"""Workload definitions: run configs generated from the benchmark seed.

The benchmark's parent process builds plans without importing the package
under test. Configs are written as YAML, the CLI's own format. A plan lists
the commands a worker runs; every command is a ``cli.main`` argument vector
plus what its report is checked against.
"""

from __future__ import annotations

from pathlib import Path

import yaml

WORKLOADS = ("cls-wb-400k", "gen-bb-400k", "grid-20k")

_GRID_TASKS = (("classification", 4), ("generation", 8))
_GRID_EPS = (1.0, 2.0, 4.0, 8.0)
_SIGNAL_PAIR = {"distance": 0.7476, "dimension": 16}
_FLOAT64 = 8


def _config(task: str, threat: str, T: int, eps: float, n_sample: int, workers: int,
            seed: int, out: Path, **extra) -> dict:
    mechanism = {"eps_theory": eps, "delta": 1e-5, "num_partitions": T}
    config = {
        "task": task,
        "threat_model": threat,
        "mechanism": mechanism,
        "audit": {"n_llm": 200, "n_sample": n_sample, "seed": seed, "workers": workers},
        "oracle": {"kind": "canary_detector", "flip_probability": 0.0},
        "output": {"directory": str(out)},
    }
    if task == "generation":
        mechanism["sensitivity_mode"] = "esa_tight"
        config["signal_pair"] = dict(_SIGNAL_PAIR)
    for section, values in extra.items():
        config[section].update(values)
    return config


def _write(config: dict, path: Path) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(yaml.safe_dump(config, sort_keys=False), encoding="utf-8")
    return str(path)


def _audit(config: dict, path: Path, exact_channel: bool = False) -> dict:
    return {"argv": ["audit", "--config", _write(config, path)], "key": str(path),
            "exact_channel": exact_channel,
            "report": str(Path(config["output"]["directory"]) / "report.json"),
            "task": config["task"], "mechanism": config["mechanism"],
            "n_sample": config["audit"]["n_sample"]}


def build_plan(workload: str, seed: int, workdir: Path) -> dict:
    """Commands for one run of ``workload``; the same seed gives the same files.

    ``prep`` runs once before the timed worker starts, ``first`` is the
    first audit of a fresh process, and ``pass`` is the unit of warm work
    that the worker repeats until the run's time is up. ``fresh_probes``
    more fresh processes each run only ``first``; the headline workload gets
    none, because its first audit alone takes about nine seconds.
    """
    workdir = Path(workdir)
    if workload == "cls-wb-400k":
        cfg = _config("classification", "white_box", 4, 8.0, 400_000, 1, seed, workdir / "out")
        audit = _audit(cfg, workdir / "audit.yaml", exact_channel=True)
        largest = 400_000 * 2 * _FLOAT64  # pooled statistics / sweep counts per arm
        return {"prep": [], "first": audit, "pass": [audit], "setup_config": audit["argv"][2],
                "fresh_probes": 0, "largest_array_bytes": largest}
    if workload == "gen-bb-400k":
        cfg = _config("generation", "black_box", 8, 8.0, 400_000, 2, seed, workdir / "out",
                      mechanism={"candidate_pool_size": 10})
        audit = _audit(cfg, workdir / "audit.yaml")
        largest = 400_000 * 10 * 16 * _FLOAT64  # n_sample x pool x d distance tensor
        return {"prep": [], "first": audit, "pass": [audit], "setup_config": audit["argv"][2],
                "fresh_probes": 4, "largest_array_bytes": largest}
    if workload == "grid-20k":
        prep, commands = [], []
        for task, T in _GRID_TASKS:
            for eps in _GRID_EPS:
                cell = workdir / f"{task[:3]}-eps{eps:g}"
                records = cell / "records.jsonl"
                collect_cfg = _config(task, "white_box", T, eps, 20_000, 1, seed, cell)
                collect = {"argv": ["collect", "--config", _write(collect_cfg, cell / "collect.yaml")],
                           "key": str(cell / "collect.yaml")}
                prep.append(collect)
                commands.append(collect)
                for threat in ("white_box", "black_box"):
                    cfg = _config(task, threat, T, eps, 20_000, 1, seed, cell / threat,
                                  oracle={"kind": "replay", "records_path": str(records)})
                    commands.append(_audit(cfg, cell / f"{threat}.yaml"))
        first = next(c for c in commands if c["argv"][0] == "audit")
        largest = 2 * 20_000 * _FLOAT64  # pooled statistics of one white-box sweep
        return {"prep": prep, "first": first, "pass": commands, "setup_config": first["argv"][2],
                "fresh_probes": 4, "largest_array_bytes": largest}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
