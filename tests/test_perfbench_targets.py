"""Every function the traced benchmark wraps still exists in trigon.

perfbench/tracing.py names its targets in the TARGETS table; a rename in
trigon would otherwise only show when the traced bench runs.  The table
is read from the source, without importing the bench.
"""

import ast
import importlib
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACING}")


TARGETS = _targets()


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_perfbench_target_resolves(name):
    module_name, path = TARGETS[name]
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # the bench wraps a method where its class defines it
    found = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    assert callable(getattr(found, "__func__", found))
