"""Fork workers inherit their task specs instead of unpickling them."""

from __future__ import annotations

import multiprocessing
import threading
import time

import pytest

from repro import sched
from repro.sched import orchestrator as orch_mod

FORK = "fork" in multiprocessing.get_all_start_methods()


def _locked_square(lock, value):
    with lock:
        return value * value


def _sleepy_offset(offset, value):
    time.sleep(0.02)
    return offset + value


def _fail_on_two(value):
    if value == 2:
        raise ValueError("task two fails")
    return value


class _RecordingRegistry(dict):
    """A registry that remembers every stage token ever written."""

    def __init__(self):
        super().__init__()
        self.written = []

    def __setitem__(self, key, value):
        self.written.append(key)
        super().__setitem__(key, value)


@pytest.mark.skipif(not FORK, reason="needs the fork start method")
def test_unpicklable_arguments_run_under_fork_pool():
    lock = threading.Lock()
    specs = [
        sched.TaskSpec(fn=_locked_square, args=(lock, i), tag=i)
        for i in range(5)
    ]
    sequential = sched.run_stage("test.lock_seq", specs, jobs=1)
    parallel = sched.run_stage("test.lock_fork", specs, jobs=2)
    assert parallel.results == sequential.results == [0, 1, 4, 9, 16]
    assert parallel.parallel or parallel.fallback


def test_registry_empty_after_stages(monkeypatch):
    registry = _RecordingRegistry()
    monkeypatch.setattr(orch_mod, "_INHERITED", registry)
    specs = [sched.TaskSpec(fn=_fail_on_two, args=(i,)) for i in range(4)]
    assert sched.run_stage("test.ok", specs[:2], jobs=2).results == [0, 1]
    assert registry == {}
    with pytest.raises(ValueError, match="task two fails"):
        sched.run_stage("test.raises", specs, jobs=2)
    assert registry == {}
    if FORK:
        assert len(registry.written) == 2


def test_concurrent_stages_keep_their_own_specs():
    results = {}

    def stage(offset):
        specs = [
            sched.TaskSpec(fn=_sleepy_offset, args=(offset, i), tag=i)
            for i in range(6)
        ]
        results[offset] = sched.run_stage(
            f"test.thread{offset}", specs, jobs=2
        ).results

    threads = [
        threading.Thread(target=stage, args=(offset,), daemon=True)
        for offset in (0, 100)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert results == {
        0: list(range(6)),
        100: [100 + i for i in range(6)],
    }
    assert orch_mod._INHERITED == {}


def test_without_fork_the_specs_are_pickled(monkeypatch):
    registry = _RecordingRegistry()
    monkeypatch.setattr(orch_mod, "_INHERITED", registry)
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    specs = [
        sched.TaskSpec(fn=_sleepy_offset, args=(10, i), tag=i)
        for i in range(4)
    ]
    outcome = sched.run_stage("test.pickled", specs, jobs=2)
    assert outcome.results == [10, 11, 12, 13]
    assert registry.written == []
