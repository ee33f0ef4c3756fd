"""The benchmark still fits trigon's API.

perfbench/tracing.py names the functions it wraps in its TARGETS table,
and its _enter_* hooks read their arguments by parameter name;
perfbench/workloads.py calls into trigon.  A rename or a signature
change in trigon would otherwise only show when the bench runs.  Both
files are read from the source, without importing the bench.
"""

import ast
import importlib
import inspect
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"
WORKLOADS = PERFBENCH / "workloads.py"


def _targets():
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS table in {TRACING}")


TARGETS = _targets()


def _resolve(name):
    """The function the bench wraps for a TARGETS name."""
    module_name, path = TARGETS[name]
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    # the bench wraps a method where its class defines it
    found = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return getattr(found, "__func__", found)


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_perfbench_target_resolves(name):
    assert callable(_resolve(name))


def _hook_arguments():
    """{target: the keys its enter hook reads as arguments["..."]}, for
    each enter hook that the _HOOKS table of tracing.py names."""
    tree = ast.parse(TRACING.read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    hooks = next(node.value for node in tree.body
                 if isinstance(node, ast.Assign) and any(
                     getattr(t, "id", None) == "_HOOKS" for t in node.targets))
    out = {}
    for key, value in zip(hooks.keys, hooks.values):
        enter = value.elts[0]
        if isinstance(enter, ast.Name):
            out[key.value] = sorted(
                node.slice.value for node in ast.walk(functions[enter.id])
                if isinstance(node, ast.Subscript)
                and getattr(node.value, "id", None) == "arguments")
    return out


HOOK_ARGUMENTS = _hook_arguments()


def test_hook_arguments_are_all_seen():
    assert HOOK_ARGUMENTS == {"network.detect_bps": ["scan_step", "theta_range"],
                              "network.trace": ["seed"]}


@pytest.mark.parametrize("name", sorted(HOOK_ARGUMENTS))
def test_perfbench_hook_reads_parameters(name):
    parameters = inspect.signature(_resolve(name)).parameters
    assert set(HOOK_ARGUMENTS[name]) <= set(parameters)


def _dotted(node):
    """"a.b.c" for a chain of attribute lookups on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return head and f"{head}.{node.attr}"
    return None


def _trigon_calls():
    """{name: (trigon path, arguments, keywords)} of every call in
    workloads.py whose callee it imported from trigon, the name as
    written there with "#2", "#3", ... on its later calls."""
    tree = ast.parse(WORKLOADS.read_text())
    imported = {alias.asname or alias.name: f"{node.module}.{alias.name}"
                for node in tree.body if isinstance(node, ast.ImportFrom)
                and node.module.split(".")[0] == "trigon"
                for alias in node.names}
    calls = {}
    for node in ast.walk(tree):
        name = isinstance(node, ast.Call) and _dotted(node.func)
        if not name or name.split(".")[0] not in imported:
            continue
        head, *rest = name.split(".")
        key, n = name, 1
        while key in calls:
            n += 1
            key = f"{name}#{n}"
        calls[key] = (".".join([imported[head], *rest]), node.args,
                      node.keywords)
    return calls


CALLS = _trigon_calls()


def test_workloads_calls_are_all_seen():
    seen = {key.split("#")[0] for key in CALLS}
    assert {"network.detect_bps", "PeriodMap.compute", "tba.SolverConfig",
            "tba.solve", "tba.log_x", "tba.iterate_once", "cli.main"} <= seen


@pytest.mark.parametrize("key", sorted(CALLS))
def test_workloads_call_binds_to_trigon(key):
    path, args, keywords = CALLS[key]
    # a starred argument would hide how many arguments the call passes
    assert not any(isinstance(a, ast.Starred) for a in args)
    assert all(k.arg is not None for k in keywords)
    parts = path.split(".")
    n = len(parts)
    while True:
        try:
            target = importlib.import_module(".".join(parts[:n]))
            break
        except ImportError:
            n -= 1
    for part in parts[n:]:
        target = getattr(target, part)
    inspect.signature(target).bind(*args, **{k.arg: None for k in keywords})
