"""Names that code outside the package binds to must resolve.

The benchmark's tracer (perfbench/spans.py) wraps functions listed by
(module, attribute), and its worker (perfbench/worker.py) calls package
modules' attributes to check each report; a rename inside the package would
otherwise only show up when a benchmark run fails.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

import dpicl_audit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, *_ in spans.TRACED]


def worker_names():
    """Every ``module.attr`` the worker reads off a module it imports from
    the package."""
    tree = ast.parse((PERFBENCH / "worker.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "dpicl_audit"
               for alias in node.names}
    return sorted({(node.value.id, node.attr) for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                   and node.value.id in modules})


@pytest.mark.parametrize("module, attr", traced_names())
def test_traced_name_resolves(module, attr):
    target = importlib.import_module(f"dpicl_audit.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_worker_binds_the_checked_names():
    # the report checks call these; the scan must keep finding them
    assert {("mechanisms", "voting_noise_scale"), ("gdp", "eps_from_mu_delta"),
            ("gaussian_model", "mu_gauss")} <= set(worker_names())


@pytest.mark.parametrize("module, attr", worker_names())
def test_worker_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"dpicl_audit.{module}"), attr))


def test_all_names_exist():
    assert [name for name in dpicl_audit.__all__ if not hasattr(dpicl_audit, name)] == []
