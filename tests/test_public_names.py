"""Names that code outside the package binds to by string must resolve.

The benchmark's tracer (perfbench/spans.py) wraps functions listed by
(module, attribute); a rename inside the package would otherwise only show
up when a traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import dpicl_audit

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attr) for module, attr, *_ in spans.TRACED]


@pytest.mark.parametrize("module, attr", traced_names())
def test_traced_name_resolves(module, attr):
    target = importlib.import_module(f"dpicl_audit.{module}")
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_all_names_exist():
    assert [name for name in dpicl_audit.__all__ if not hasattr(dpicl_audit, name)] == []
