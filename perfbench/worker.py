"""One fresh benchmark process: set up, run the first audit, then warm passes.

Started by run.py with PYTHONPATH pointing at the checkout's src/:

    python3 perfbench/worker.py --setup PLAN.json  # set-up only
    python3 perfbench/worker.py --prep PLAN.json   # set-up, then the plan's prep commands
    python3 perfbench/worker.py PLAN.json OUT.json SECONDS MIN_PASSES TRACE

Every form prints ``ready`` once ``dpicl_audit`` is imported and the first
config is loaded; the parent times set-up up to that line. The last form
then runs the plan's first audit and repeats warm passes until SECONDS have
passed since that audit started and at least MIN_PASSES ran, checks every report,
and writes its samples to OUT.json. With TRACE=1 the first audit and every
other pass are traced; the passes between them run with tracing switched off.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from dpicl_audit import cli, config

plan = json.loads(Path(sys.argv[2] if sys.argv[1].startswith("--") else sys.argv[1])
                  .read_text("utf-8"))
config.load_run_config(plan["setup_config"])
print("ready", flush=True)

import hashlib  # noqa: E402  (everything below runs after set-up is timed)
import io  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from dpicl_audit import gaussian_model, gdp, mechanisms  # noqa: E402

from spans import Tracer, layer_metrics, rss_gain_mb, self_times  # noqa: E402

# Allowed distance of the headline audit from the exact Gaussian vote channel
# (mu = sqrt(2)/sigma gives eps 7.914 at eps_theory 8): A1's tolerance. The
# audit's eps is a random confidence bound, and its seed-to-seed spread at
# 2x400k trials reaches +7.6% (8.519 on one seed).
EXACT_CHANNEL_BAND = 0.15


def check(command: dict, report_bytes: bytes) -> str | None:
    """Why this audit's report is wrong, or None when it passes.

    Every audit must certify some leakage; generation audits must stay below
    the theoretical budget (A6); the headline audit must land near the exact
    channel. Classification audits at 20k trials get no upper reference: the
    threshold is chosen on the trials it is scored on, so their bound can
    exceed eps_theory.
    """
    report = json.loads(report_bytes)
    eps = report["eps_emp_gdp"]
    if not isinstance(eps, float) or not math.isfinite(eps) or eps <= 0.0:
        return f"eps_emp_gdp is {eps!r}, expected a positive finite value"
    mech = command["mechanism"]
    if command["task"] == "generation" and eps >= mech["eps_theory"]:
        return f"eps_emp_gdp {eps:.6g} not below eps_theory={mech['eps_theory']}"
    if command["exact_channel"]:
        # the canary moves one of T votes: the vote difference shifts by 2, b = 1
        sigma = mechanisms.voting_noise_scale(mech["eps_theory"], mech["delta"])
        exact = gdp.eps_from_mu_delta(gaussian_model.mu_gauss(1.0, sigma),
                                     report["delta_target"])
        if abs(eps - exact) > EXACT_CHANNEL_BAND * exact:
            return f"eps_emp_gdp {eps:.6g} outside exact channel {exact:.6g} +/- {EXACT_CHANNEL_BAND:.0%}"
    return None


class Runner:
    """Runs CLI commands in this process and checks every audit they write."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.reports: dict[str, str] = {}  # config -> sha256 of its first report.json
        self.failures: list[str] = []
        self.attempted = self.failed = self.commands = 0

    def run(self, command: dict) -> float:
        """Run one command, check it, and return its wall time in seconds."""
        if self.tracer is not None:
            self.tracer.command = self.commands
        self.commands += 1
        with redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.main(list(command["argv"]))
            elapsed = time.perf_counter() - start
        if self.tracer is not None:
            self.tracer.end_command()
        is_audit = command["argv"][0] == "audit"
        self.attempted += is_audit
        problem = f"{command['argv'][0]} exited {code}" if code != 0 else None
        if problem is None and is_audit:
            data = Path(command["report"]).read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            if self.reports.setdefault(command["key"], digest) != digest:
                problem = "report.json differs from the first run of this config"
            else:
                problem = check(command, data)
        if problem is not None:
            self.failed += is_audit
            self.failures.append(f"{command['key']}: {problem}")
        return elapsed


if sys.argv[1] == "--prep":
    runner = Runner(None)
    for command in plan["prep"]:
        runner.run(command)
    if runner.failures:
        sys.exit("prep failed: " + "; ".join(runner.failures))
if sys.argv[1].startswith("--"):
    sys.exit(0)

out_path, seconds, min_passes = Path(sys.argv[2]), float(sys.argv[3]), int(sys.argv[4])
tracer = Tracer() if sys.argv[5] == "1" else None
if tracer is not None:
    tracer.install()
runner = Runner(tracer)

window_start = time.perf_counter()
first_audit_s = runner.run(plan["first"])
passes = []
while len(passes) < min_passes or time.perf_counter() - window_start < seconds:
    traced = tracer is not None and len(passes) % 2 == 0
    if tracer is not None:
        tracer.enabled = traced
    first_command = runner.commands
    audit_s, audits = 0.0, 0
    for command in plan["pass"]:
        elapsed = runner.run(command)
        if command["argv"][0] == "audit":
            audit_s += elapsed
            audits += 1
    passes.append({"audit_s": audit_s, "audits": audits, "traced": traced,
                   "commands": [first_command, runner.commands]})

result = {
    "first_audit_s": first_audit_s,
    "passes": passes,
    "attempted": runner.attempted,
    "failed": runner.failed,
    "failures": runner.failures,
    "reports": runner.reports,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    "numpy": numpy.__version__,
    "scipy": scipy.__version__,
}
if tracer is not None:
    result["reconstruction_errors"] = self_times(tracer.spans)[1]
    result["layers"] = [layer_metrics(tracer.spans, set(range(*p["commands"])))
                        for p in passes if p["traced"]]
    result["rss_gain_mb"] = rss_gain_mb(tracer.spans)
    result["spans"] = tracer.spans
out_path.write_text(json.dumps(result), encoding="utf-8")
