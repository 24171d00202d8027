"""In-memory span tracer that wraps the package's public functions from outside.

Each wrapped call records a span: name, start, end (perf_counter_ns), the
index of the enclosing span, the id of the command it belongs to, the
process high-water RSS before and after, and any counts its hook computes
from the call's arguments or result. Spans stay in memory until the
benchmark writes them out.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import time

_MIB = 1024.0  # ru_maxrss is in KiB on Linux


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _tau_candidates(args, kwargs, result) -> dict:
    # Deferred to the end of the command so the sort stays out of every span:
    # the sweep's candidates are the distinct pooled midpoints plus two sentinels.
    import numpy as np

    pooled = np.sort(np.concatenate([np.asarray(args[0], dtype=np.float64),
                                     np.asarray(args[1], dtype=np.float64)]))
    return {"tau_candidates": int(np.unique(0.5 * (pooled[1:] + pooled[:-1])).size) + 2}


def _records_bytes(args, kwargs, result) -> dict:
    path = kwargs.get("records_path")
    return {"records_bytes": os.path.getsize(path) if path is not None else 0}


# (module, attribute, hook computed right after the call, hook deferred to
# the end of the command). Hooks only read shapes and counts, never time.
TRACED = (
    ("cli", "main", None, None),
    ("config", "load_run_config", None, None),
    ("config", "build_audit_config", None, None),
    ("config", "build_signal_pair", None, None),
    ("config", "build_neighboring_pair", None, None),
    ("config", "build_oracle", None, None),
    ("config", "output_path", None, None),
    ("oracles", "collect",
     lambda a, k, r: {"calls": 2 * a[4] * a[3], "failures": r.failures}, _records_bytes),
    ("oracles", "ReplayOracle.from_file", None, None),
    ("oracles", "zero_shot_candidates", None, None),
    ("audit", "run_audit", None, None),
    ("audit", "bootstrap_audit", None, None),
    ("audit", "generate_noisy_samples", lambda a, k, r: {"noise_bytes": r.nbytes}, None),
    ("audit", "whitebox_statistic", None, None),
    ("audit", "sweep_threshold", None, _tau_candidates),
    ("audit", "append_report_csv", None, None),
    ("stats", "binom_upper_bound_array", lambda a, k, r: {"evals": int(r.size)}, None),
    ("gdp", "audit_epsilon", None, None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.command = -1
        self.enabled = True  # when False the wrappers only forward the call
        self._stack: list[int] = []
        self._deferred: list[tuple] = []

    def _wrap(self, name: str, fn, hook, deferred):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = {"name": name, "parent": self._stack[-1] if self._stack else None,
                    "command": self.command, "rss0_kib": _maxrss_kib()}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter_ns()
                span["rss1_kib"] = _maxrss_kib()
                self._stack.pop()
            if hook is not None:
                span.update(hook(args, kwargs, result))
            if deferred is not None:
                self._deferred.append((span, deferred, args, kwargs, result))
            return result
        return traced

    def install(self) -> None:
        """Replace every binding of each traced function across ``dpicl_audit``."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dpicl_audit" or n.startswith("dpicl_audit."))]
        for module_name, attr, hook, deferred in TRACED:
            module = sys.modules[f"dpicl_audit.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                original = getattr(owner, method).__func__
                setattr(owner, method, classmethod(self._wrap(name, original, hook, deferred)))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, hook, deferred)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def end_command(self) -> None:
        """Run the deferred hooks of the finished command and drop their references."""
        for span, hook, args, kwargs, result in self._deferred:
            span.update(hook(args, kwargs, result))
        self._deferred.clear()


def self_times(spans: list[dict]) -> tuple[list[int], list[str]]:
    """Self time of every span (ns) and any span its children fail to reconstruct.

    A span's self time is its duration minus the part of it that the union
    of its child spans covers. Children that overlap or leave their parent
    would make "children plus self" differ from the parent, so those are
    reported instead of silently absorbed.
    """
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(index)
    selfs, broken = [], []
    for index, span in enumerate(spans):
        covered = total = 0
        cursor = span["start"]
        for child in sorted((spans[c] for c in children.get(index, ())), key=lambda s: s["start"]):
            lo, hi = max(child["start"], cursor, span["start"]), min(child["end"], span["end"])
            covered += max(0, hi - lo)
            cursor = max(cursor, hi)
            total += child["end"] - child["start"]
        self_ns = span["end"] - span["start"] - covered
        selfs.append(self_ns)
        if total + self_ns != span["end"] - span["start"]:
            broken.append(f"{span['name']} in command {span['command']}")
    return selfs, broken


# span name -> (time metric, whether it takes self time, {count metric: span
# field to add, or None to count calls}). cli.main counts for audit commands only.
LAYERS = {
    "stats.binom_upper_bound_array": ("stats.cp_bound_ms", False, {"stats.cp_bound_evals": "evals"}),
    "audit.sweep_threshold": ("audit.sweep_self_ms", True, {"audit.tau_candidates": "tau_candidates"}),
    "audit.generate_noisy_samples": ("audit.noise_ms", False, {"audit.noise_bytes": "noise_bytes"}),
    "audit.whitebox_statistic": ("audit.statistic_ms", False, {}),
    "audit.bootstrap_audit": ("audit.decide_self_ms", True, {}),
    "config.load_run_config": ("config.load_ms", False, {"config.loads": None}),
    "oracles.collect": ("oracles.collect_ms", False, {"oracles.calls": "calls",
                                                      "oracles.failures": "failures",
                                                      "oracles.records_bytes": "records_bytes"}),
    "oracles.ReplayOracle.from_file": ("oracles.replay_load_ms", False, {}),
    "gdp.audit_epsilon": ("gdp.audit_epsilon_ms", False, {"gdp.calls": None}),
    "audit.append_report_csv": ("audit.report_csv_ms", False, {}),
    "cli.main": ("cli.audit_self_ms", True, {}),
}


def layer_metrics(spans: list[dict], commands: set[int]) -> dict:
    """Per-layer totals over the spans of the given commands (times in ms)."""
    out: dict = {}
    for time_metric, _, counts in LAYERS.values():
        out[time_metric] = 0.0
        out.update(dict.fromkeys(counts, 0))
    audit_commands = {s["command"] for s in spans if s["name"] == "audit.run_audit"}
    for span, self_ns in zip(spans, self_times(spans)[0]):
        entry = LAYERS.get(span["name"])
        if entry is None or span["command"] not in commands or (
                span["name"] == "cli.main" and span["command"] not in audit_commands):
            continue
        time_metric, use_self, counts = entry
        out[time_metric] += (self_ns if use_self else span["end"] - span["start"]) / 1e6
        for metric, field in counts.items():
            out[metric] += 1 if field is None else span[field]
    return out


def rss_gain_mb(spans: list[dict]) -> float:
    """Rise of the process high-water RSS inside audit spans, summed over audits."""
    return sum(s["rss1_kib"] - s["rss0_kib"] for s in spans if s["name"] == "audit.run_audit") / _MIB
