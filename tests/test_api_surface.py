"""The names the package promises and the ones the benchmark hooks rely on."""

import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import renewalopt
from renewalopt import TABLE1, build_instance, core, scheduling, simulation

MODULES = sorted(f"renewalopt.{m.name}" for m in pkgutil.iter_modules(renewalopt.__path__))

ROOT = Path(__file__).resolve().parents[1]
PERF_CHILD = ROOT / "perf" / "child.py"

# exported names no src module loads and the README quickstart does not use
UNREACHED_EXPORTS = {
    # the library's builder of a general (non-scheduling) renewal system, the
    # paper's own setting; acceptance criterion 7 runs on it
    "constant_rate_model",
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing


@pytest.mark.parametrize("name", MODULES)
def test_every_import_is_used(name):
    tree = ast.parse(Path(importlib.import_module(name).__file__).read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported <= used, sorted(imported - used)


def _quickstart_tree():
    readme = (ROOT / "README.md").read_text()
    code = readme.split("## Library quickstart")[1].split("```python")[1].split("```")[0]
    return ast.parse(code)


def _loaded_names(tree):
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }


def test_every_exported_name_is_reached():
    # the library is what the CLI runs: a name in some __all__ is loaded by
    # src code or shown in the README quickstart, or it belongs in tests/
    trees = [ast.parse(Path(importlib.import_module(m).__file__).read_text()) for m in MODULES]
    loaded = set().union(*map(_loaded_names, trees))
    quickstart_tree = _quickstart_tree()
    shown = _loaded_names(quickstart_tree) | {
        alias.name
        for node in ast.walk(quickstart_tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    exported = {name for m in MODULES for name in importlib.import_module(m).__all__}
    assert exported - loaded - shown == UNREACHED_EXPORTS


# public class members no src code reads and the README quickstart does not use
UNREAD_MEMBERS = {
    # acceptance criterion 9 reads the per-system ratio SEs; FrameStats itself
    # leaves the library once its benchmark span is retired
    "FrameStats.f_se",
    "FrameStats.g_se",
}


def _read_names(tree):
    return {
        node.attr if isinstance(node, ast.Attribute) else node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        or isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_every_class_member_is_read():
    # a public method, property or annotated field of a src class is read, as
    # an attribute or a string (getattr, namedtuple fields), by src code or the
    # README quickstart, or it is a test-only member.  Members match by name,
    # so a name another class shares can hide an unread one: this is a floor
    trees = [ast.parse(Path(importlib.import_module(m).__file__).read_text()) for m in MODULES]
    read = set().union(*map(_read_names, [*trees, _quickstart_tree()]))
    members = set()
    for cls in (node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                members.add((cls.name, node.name))
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                members.add((cls.name, node.target.id))
    public = {(c, name) for c, name in members if not name.startswith("_")}
    assert {f"{c}.{name}" for c, name in public if name not in read} == UNREAD_MEMBERS


def test_perf_trace_hooks_install_and_restore():
    # perf/child.py wraps each layer at the name its caller looks up, via
    # vars(owner)[attr]; a deleted or moved name breaks traced benchmark runs
    spec = importlib.util.spec_from_file_location("perf_child", PERF_CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)

    spans = child.Spans()
    try:
        child.install_spans(spans)
        wrapped = list(spans._restore)
        assert wrapped
        assert all(vars(owner)[attr] is not original for owner, attr, original in wrapped)
    finally:
        spans.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in wrapped)


def test_trace_hooks_see_every_frame_decision(monkeypatch):
    # perf/child.py times the decision, the certificate and the frame
    # sampler by wrapping these names where the engine looks them up: the
    # decision and its one objective list once per (frame-start slot, model),
    # under check_trace the certificate, and its objectives, once per system
    # over all its frames, and the sampler and the frame type once
    # per block of FRAME_BLOCK frames of one (system, action) stream, or the
    # benchmark's spans read 0
    calls = {}

    def counted(owner, attr):
        original = vars(owner)[attr]
        calls[attr] = 0

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    names = ("ratio_objectives", "solve_enumerate", "solve_bisection", "ratio_bound_holds")
    for name in (*names, "sample_frame"):
        counted(simulation, name)
    counted(scheduling.ServiceIdleSampler, "sample")
    counted(core.FrameOutcome, "__post_init__")
    models, external, _ = build_instance(TABLE1)
    for solver, check in (("enumerate", False), ("bisection", True)):
        before = dict(calls)
        policy = simulation.DppRatioPolicy(10.0, solver)
        trace = simulation.run(models, external, policy, 400, seed=3)
        if check:
            simulation.check_trace(trace)
        made = {name: calls[name] - before[name] for name in calls}
        frames = int(trace.frames_per_system.sum())
        decisions = len({(start, id(models[n])) for n, log in enumerate(trace.frames)
                         for start in log[:, 0].tolist()})
        assert decisions < frames
        certificates = len(models) if check else 0
        assert made[f"solve_{solver}"] == made["ratio_objectives"] - certificates == decisions
        assert made["ratio_bound_holds"] == certificates
        played = [np.bincount(log[:, 2], minlength=models[n].n_actions)
                  for n, log in enumerate(trace.frames)]
        blocks = int(sum((-(-counts // simulation.FRAME_BLOCK)).sum() for counts in played))
        assert blocks < frames
        assert made["sample_frame"] == made["sample"] == made["__post_init__"] == blocks
    # two cells sharing one sample path: the second replays the blocks the
    # first drew and draws, through the same names, only those past them
    counted(simulation.ExternalProcess, "sample_matrix")
    path = simulation.SamplePath(models, external, 1500, seed=3)
    needed = []
    for v in (10.0, 200.0):
        before = dict(calls)
        trace = simulation.run(models, external, simulation.DppRatioPolicy(v), 1500, 3, path=path)
        made = {name: calls[name] - before[name] for name in calls}
        needed.append(np.array([
            -(-np.bincount(log[:, 2], minlength=models[n].n_actions) // simulation.FRAME_BLOCK)
            for n, log in enumerate(trace.frames)
        ]))
    new_blocks = int(np.maximum(needed[1] - needed[0], 0).sum())
    assert 0 < new_blocks < needed[1].sum()
    assert made["sample_frame"] == made["sample"] == made["__post_init__"] == new_blocks
    assert made["sample_matrix"] == 0 and calls["sample_matrix"] == 1


def test_src_stays_within_its_line_budget():
    # the library's size budget: deleting code is how it makes room
    files = sorted((ROOT / "src" / "renewalopt").glob("*.py"))
    lines = sum(len(path.read_text().splitlines()) for path in files)
    assert lines < 2500, f"src/renewalopt/*.py is {lines} lines, over the 2,500 budget"
