"""The benchmark's traced callables are each their owner's own attribute.

``perfbench/run.py`` times a layer by replacing ``owner.__dict__[attr]``; a
callable that a refactor moves to a base class or another module would no
longer be found there, and the traced run would fail.  This guard checks
every target without running the benchmark.
"""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _trace_targets(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run._trace_targets({})


def test_every_traced_callable_is_its_owners_own(monkeypatch):
    targets = _trace_targets(monkeypatch)
    assert targets
    missing = [
        (name, getattr(owner, "__name__", owner), attr)
        for name, pairs, _, _ in targets
        for owner, attr in pairs
        if attr not in vars(owner)
    ]
    assert missing == []
