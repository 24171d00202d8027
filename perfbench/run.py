"""Audit benchmark: end-to-end timings of the dpicl-audit CLI, or a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cls-wb-400k --seed 1 --seconds 20 --trace 0

The package is imported from ./src; configs are generated from --seed under
.perfbench_run/. A run with --trace 0 starts one fresh worker process that
runs the first audit and then warm passes for --seconds, then the
workload's extra fresh processes for set-up and first-audit samples. Every
audit is checked: exit code 0, report.json byte-identical across all repeats
of its config, epsilon against its reference. The last line of stdout is one JSON object with the keys
"correct", "attempted", "failed" and "metrics".

With --trace 1 one worker wraps the package's public functions (spans.py)
and alternates traced and untraced warm passes. The metrics are per layer
and per pass: times are medians over the traced passes, counts must repeat
exactly in each; plus the tracing overhead per audit, traced minus untraced.
Provenance, raw samples and spans go to
.perfbench_run/result-<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS, build_plan

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
MIN_WARM_PASSES = 2
RUN_TIMEOUT_S = 170.0
_SC_LEVEL3_CACHE_SIZE = 194  # glibc's sysconf name; os.sysconf does not know it

END_TO_END_UNITS = {"setup_s": "s", "first_audit_s": "s", "audit_s": "s",
                    "trials_per_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"_ms": "ms", "_bytes": "B", "_mb": "MB"}  # by name suffix; else "count"


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def l3_bytes() -> int | None:
    try:
        size = ctypes.CDLL(None).sysconf(_SC_LEVEL3_CACHE_SIZE)
    except (OSError, AttributeError):
        return None
    return size if size > 0 else None


def git_commit(root: Path) -> str:
    """The checkout's commit, read from .git without leaving the checkout."""
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + name):
            return line.split()[0]
    return "unknown"


def source_digest(src: Path) -> str:
    """Identifies the measured source when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.suffix in (".py", ".json", ".txt")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


class Processes:
    """Starts the run's worker processes one at a time and times their set-up."""

    def __init__(self, plan_path: Path, env: dict, deadline: float) -> None:
        self.plan = str(plan_path)
        self.env = env
        self.deadline = deadline
        self.setup_s: list[float] = []

    def run(self, *argv: str) -> None:
        """Start worker.py with ``argv``, time it to ``ready``, wait for its exit."""
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                                stdout=subprocess.PIPE, text=True, env=self.env)
        killer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.communicate()
        finally:
            killer.cancel()
        if line.strip() != "ready" or proc.returncode != 0:
            fail(f"worker {argv} failed with exit code {proc.returncode} "
                 f"(negative: killed at the {RUN_TIMEOUT_S:.0f} s run deadline)")
        if argv[0] != "--prep":
            self.setup_s.append(ready)

    def worker(self, out: Path, seconds: float, min_passes: int, trace: int) -> dict:
        self.run(self.plan, str(out), str(seconds), str(min_passes), str(trace))
        return json.loads(out.read_text("utf-8"))


def per_audit_s(worker: dict, traced: bool = False) -> list[float]:
    return [p["audit_s"] / p["audits"] for p in worker["passes"] if p["traced"] == traced]


def spread(values: list[float]) -> str:
    return f"n={len(values)}, min {min(values):.4g}, max {max(values):.4g}"


def end_to_end(procs: Processes, workdir: Path, plan: dict, seconds: float) -> tuple:
    warm = procs.worker(workdir / "worker.json", seconds, MIN_WARM_PASSES, 0)
    probes = [procs.worker(workdir / f"probe{i}.json", 0.0, 0, 0)
              for i in range(plan["fresh_probes"])]
    while len(procs.setup_s) < SETUP_SAMPLES:
        procs.run("--setup", procs.plan)

    first = [w["first_audit_s"] for w in [warm] + probes]
    per_audit = per_audit_s(warm)
    audits = sum(p["audits"] for p in warm["passes"])
    metrics = {
        "setup_s": statistics.median(procs.setup_s),
        "first_audit_s": statistics.median(first),
        "audit_s": statistics.median(per_audit),
        "trials_per_s": 2 * plan["first"]["n_sample"] * audits
        / sum(p["audit_s"] for p in warm["passes"]),
        "peak_rss_mb": warm["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {spread(procs.setup_s)} fresh interpreters",
        "first_audit_s": f"median of {spread(first)} fresh processes",
        "audit_s": f"median over warm passes of s per audit ({spread(per_audit)}, {audits} audits)",
        "trials_per_s": "2 x n_sample x warm audits / their wall time",
        "peak_rss_mb": "ru_maxrss of the warm worker process",
    }
    return [warm] + probes, metrics, notes


def unit_of(name: str) -> str:
    return END_TO_END_UNITS.get(name) or next(
        (u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix)), "count")


def per_layer(procs: Processes, workdir: Path, seconds: float) -> tuple:
    traced = procs.worker(workdir / "traced.json", seconds, 2, 1)
    layers = traced["layers"]
    metrics, notes = {}, {}
    for name in layers[0]:
        values = [p[name] for p in layers]
        if unit_of(name) == "ms":
            metrics[name] = statistics.median(values)
            notes[name] = f"median of {len(values)} traced passes"
        else:  # counts and computed bytes are exact: every pass must repeat them
            metrics[name] = values[0]
            notes[name] = "exact" if len(set(values)) == 1 else f"NOT REPEATED: {values}"
            if len(set(values)) > 1:
                traced["failures"].append(f"{name} differs between identical passes: {values}")
    for name in ("audit.tau_candidates", "audit.noise_bytes", "oracles.calls"):
        notes[name] += ", computed"
    metrics["audit.rss_gain_mb"] = traced["rss_gain_mb"]
    notes["audit.rss_gain_mb"] = "high-water RSS rise inside audit spans, whole traced process"
    metrics["trace.overhead_ms"] = 1000.0 * (statistics.median(per_audit_s(traced, True))
                                             - statistics.median(per_audit_s(traced)))
    notes["trace.overhead_ms"] = "traced minus untraced passes, median s per audit"
    return [traced], metrics, notes


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "dpicl_audit" / "__init__.py").is_file():
        fail(f"no package source at {src}/dpicl_audit; run from the root of a dpicl-audit checkout")
    deadline = time.monotonic() + RUN_TIMEOUT_S

    run_dir = root / ".perfbench_run"
    workdir = run_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = build_plan(args.workload, args.seed, workdir)
    plan_path = workdir / "plan.json"
    plan_path.write_text(json.dumps(plan, indent=1), encoding="utf-8")

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    procs = Processes(plan_path, env, deadline)
    procs.run("--prep", procs.plan)  # untimed: compiles bytecode, warms the file cache, writes replay records
    if args.trace:
        workers, metrics, notes = per_layer(procs, workdir, args.seconds)
    else:
        workers, metrics, notes = end_to_end(procs, workdir, plan, args.seconds)

    failures = [f for w in workers for f in w["failures"]]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    for key in {c["key"] for c in [plan["first"], *plan["pass"]] if c["argv"][0] == "audit"}:
        digests = {w["reports"][key] for w in workers if key in w["reports"]}
        if len(digests) > 1:
            failed += 1
            failures.append(f"{key}: report.json differs between processes")
    errors = [f"span reconstruction: {e}" for w in workers for e in w.get("reconstruction_errors", ())]

    l3 = l3_bytes()
    largest = plan["largest_array_bytes"]
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": workers[0]["numpy"], "scipy": workers[0]["scipy"],
        "commit": git_commit(root), "source_sha256": source_digest(src),
        "l3_bytes": l3, "largest_array_bytes": largest,
        "largest_array_per_l3": round(largest / l3, 4) if l3 else None,
    }
    print(f"workload {args.workload} seed {args.seed}: {attempted} audits of "
          f"2x{plan['first']['n_sample']} trials, {failed} failed")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in provenance.items()))
    result_metrics = {}
    for name, value in metrics.items():
        unit = unit_of(name)
        shown = f"{value:>16}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {name:<24} {shown} {unit:<5} {notes[name]}")
        result_metrics[name] = {"value": value, "unit": unit}
    print(f"  {'failed_ops_ratio':<24} {failed / attempted:>16.6g}       "
          f"{failed} failed / {attempted} attempted")
    if args.trace:
        print(f"  children + self time reconstruct every parent span: {not errors}")
    for problem in failures + errors:
        print(f"  FAILED {problem}")

    record = {"provenance": provenance, "setup_s": procs.setup_s, "workers": workers}
    (run_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record), encoding="utf-8")
    print(json.dumps({"correct": not failures and not errors, "attempted": attempted,
                      "failed": failed, "metrics": result_metrics}))


if __name__ == "__main__":
    main()
