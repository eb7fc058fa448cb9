"""Every exported name and every name the benchmark tracer wraps resolves.

A deleted or renamed function would otherwise break ``import *`` users
or a traced benchmark run (``perfbench/run.py --trace 1``) without
failing any other test.  The tracer's table is read from its source, so
the tracer itself is neither imported nor installed.
"""

import ast
import importlib
from pathlib import Path

import pytest

import schurlift

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _wrapped_pairs():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "WRAPPED" for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no WRAPPED table in {TRACER}")


@pytest.mark.parametrize("name", schurlift.__all__)
def test_exported_name_resolves(name):
    assert getattr(schurlift, name) is not None


@pytest.mark.parametrize("module, attribute", _wrapped_pairs())
def test_traced_name_resolves(module, attribute):
    target = importlib.import_module(f"schurlift.{module}")
    for part in attribute.split("."):
        target = getattr(target, part)
    assert callable(target)
