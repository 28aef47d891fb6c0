"""Measurement plumbing shared by the three workloads.

Everything here observes the program from outside: timings come from
wrapping the public functions the workloads call (:class:`LayerTimer`),
GC pauses from :data:`gc.callbacks` (:class:`GcMonitor`), memory from
``/proc`` (through :mod:`repro.obs.resources`) and
:func:`resource.getrusage`.  The program itself is not changed or
configured by any of it.
"""

from __future__ import annotations

import contextlib
import gc
import json
import os
import platform
import resource
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.obs import resources

#: The benchmark world: about 70k reported events per seed.
SCALE = 0.02
SHARDS = 8


def world_config(seed: int):
    from repro.synth.world import WorldConfig

    return WorldConfig(seed=seed, scale=SCALE, shards=SHARDS)


#: metric name -> (value, unit)
Metrics = Dict[str, Tuple[float, str]]


class Outcome:
    """Operation counts and metrics of one workload run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Metrics = {}
        self.notes: Metrics = {}

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked operation; remember what failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def count(self, attempted: int, failed: int, what: str) -> None:
        """Count a batch of operations of which ``failed`` went wrong."""
        self.attempted += attempted
        if failed:
            self.failed += failed
            self.failures.append(f"{what}: {failed} of {attempted}")

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def note(self, name: str, value: float, unit: str) -> None:
        """A figure printed for the reader but not part of the result."""
        self.notes[name] = (float(value), unit)


# ----------------------------------------------------------------------
# Host and memory
# ----------------------------------------------------------------------


def _git_revision(root: Path) -> str:
    """HEAD's commit id read from ``.git`` directly (no git process)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint(root: Path) -> Dict[str, Any]:
    """What a result must be compared within: machine and software."""
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    mem_kb = 0
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
                break
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "mem_total_mb": round(mem_kb / 1024.0),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_rev": _git_revision(root),
    }


def rss_mb() -> float:
    """Current resident set of this process."""
    return resources.rss_kb() / 1024.0


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark."""
    return resources.peak_rss_kb() / 1024.0


def cpu_s(who: int = resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def tree_cpu_s() -> float:
    """CPU seconds of this process and its waited-for children."""
    return cpu_s() + cpu_s(resource.RUSAGE_CHILDREN)


class HostMonitor:
    """How much CPU the host gave this run, read around the workload.

    ``steal_frac`` is the share of CPU time stolen by other guests (the
    ``steal`` column of ``/proc/stat``).  ``probe_ms`` is the faster of
    two timings of a fixed pure-Python loop, one before and one after:
    it grows when the host slows the CPU down in ways steal does not
    count (shared caches, frequency).  A run that slows down together
    with either was slowed by the host, not by the program.
    """

    def __enter__(self) -> "HostMonitor":
        self._probe = [self._speed_probe_s()]
        self._start = self._read_stat()
        return self

    def __exit__(self, *exc: Any) -> None:
        end = self._read_stat()
        self._probe.append(self._speed_probe_s())
        total = sum(end) - sum(self._start)
        self.steal_frac = (end[7] - self._start[7]) / total if total else 0.0
        self.probe_ms = min(self._probe) * 1000.0

    @staticmethod
    def _read_stat() -> List[int]:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()[1:]
        return [int(field) for field in fields[:8]]

    @staticmethod
    def _speed_probe_s() -> float:
        start = time.perf_counter()
        table: Dict[int, int] = {}
        for index in range(300_000):
            table[index & 1023] = table.get(index & 1023, 0) + index
        return time.perf_counter() - start


# ----------------------------------------------------------------------
# Garbage collector
# ----------------------------------------------------------------------


class GcMonitor:
    """Counts collections and their pauses per generation via gc.callbacks."""

    def __init__(self) -> None:
        self.count = [0, 0, 0]
        self.pause_s = [0.0, 0.0, 0.0]
        self.max_pause_s = [0.0, 0.0, 0.0]
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
            return
        pause = time.perf_counter() - self._started
        generation = info["generation"]
        self.count[generation] += 1
        self.pause_s[generation] += pause
        if pause > self.max_pause_s[generation]:
            self.max_pause_s[generation] = pause

    def reset(self) -> None:
        self.count = [0, 0, 0]
        self.pause_s = [0.0, 0.0, 0.0]
        self.max_pause_s = [0.0, 0.0, 0.0]

    def __enter__(self) -> "GcMonitor":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc: Any) -> None:
        gc.callbacks.remove(self._callback)

    def figures(self) -> Dict[str, float]:
        """Totals since the last :meth:`reset`, by per-layer metric name."""
        return {
            "runtime.gc_pause_s": sum(self.pause_s),
            "runtime.gc_collections": sum(self.count),
            "runtime.gc_full_count": self.count[2],
            "runtime.gc_max_pause_ms": max(self.max_pause_s) * 1000.0,
        }

    def record(self, out: Outcome) -> None:
        """Report :meth:`figures` as per-layer metrics."""
        for name, value in self.figures().items():
            out.metric(name, value, GC_UNITS[name])


GC_UNITS = {
    "runtime.gc_pause_s": "s",
    "runtime.gc_collections": "count",
    "runtime.gc_full_count": "count",
    "runtime.gc_max_pause_ms": "ms",
}


# ----------------------------------------------------------------------
# Layer timing from outside
# ----------------------------------------------------------------------


class LayerTimer:
    """Accumulates wall time spent in wrapped callables, by metric name.

    :meth:`wrap` swaps ``owner.attribute`` for a timing wrapper for the
    duration of a ``with`` block and puts the original back afterwards.
    Re-entrant calls under the same name (a wrapped function calling
    another wrapped function of the same name) are timed once, at the
    outermost call.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self._depth: Dict[str, int] = {}

    def timed(self, name: str, fn: Callable[..., Any],
              on_result: Optional[Callable[[Any, tuple], None]] = None
              ) -> Callable[..., Any]:
        seconds = self.seconds
        depth = self._depth
        seconds.setdefault(name, 0.0)
        depth.setdefault(name, 0)
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if depth[name]:
                return fn(*args, **kwargs)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds[name] += clock() - start
                depth[name] -= 1
            if on_result is not None:
                on_result(result, args)
            return result

        return wrapper

    @contextlib.contextmanager
    def wrap(self, owner: Any, attribute: str, name: str,
             on_result: Optional[Callable[[Any, tuple], None]] = None
             ) -> Iterator[None]:
        # On a class, wrap the raw descriptor so methods keep binding; on
        # an instance or module, wrap the bound attribute and afterwards
        # drop (or restore) the instance-level override.
        own = vars(owner).get(attribute)
        if isinstance(owner, type):
            if own is None:
                raise AttributeError(f"{owner.__name__} defines no {attribute}")
            target = own
        else:
            target = getattr(owner, attribute)
        if isinstance(target, (classmethod, staticmethod)):
            inner = self.timed(name, target.__func__, on_result)
            replacement: Any = type(target)(inner)
        else:
            replacement = self.timed(name, target, on_result)
        setattr(owner, attribute, replacement)
        try:
            yield
        finally:
            if own is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)


@contextlib.contextmanager
def session_stages(timer: LayerTimer,
                   rss_after: Dict[str, float]) -> Iterator[None]:
    """Time the stages of ``repro.pipeline.build_session``, which every
    workload runs (``corpus`` in its unit of work, the others in set-up),
    and take RSS after each."""
    from repro import pipeline
    from repro.labeling.ground_truth import GroundTruthLabeler
    from repro.synth.world import World

    def after(label: str) -> Callable[[Any, tuple], None]:
        def record(_result: Any, _args: tuple) -> None:
            rss_after[label] = rss_mb()
        return record

    with contextlib.ExitStack() as stack:
        enter = stack.enter_context
        enter(timer.wrap(pipeline, "get_world", "synth.get_world",
                         after("get_world")))
        enter(timer.wrap(World, "collect", "telemetry.collect",
                         after("collect")))
        enter(timer.wrap(pipeline, "build_labeler",
                         "labeling.build_labeler"))
        enter(timer.wrap(GroundTruthLabeler, "label_dataset",
                         "labeling.label_dataset", after("label_dataset")))
        yield


def record_common(out: Outcome, timer: LayerTimer,
                  rss_after: Dict[str, float], rss_setup_mb: float,
                  rss_unit_mb: float, cpu_per_wall: float,
                  overhead_frac: float) -> None:
    """The per-layer metrics every workload reports, besides the GC ones."""
    for name in ("synth.get_world", "telemetry.collect",
                 "labeling.build_labeler", "labeling.label_dataset"):
        out.metric(f"{name}_s", timer.seconds[name], "s")
    for label in ("get_world", "collect", "label_dataset"):
        out.metric(f"rss.after_{label}_mb", rss_after[label], "MB")
    out.metric("rss.after_setup_mb", rss_setup_mb, "MB")
    out.metric("rss.after_unit_mb", rss_unit_mb, "MB")
    out.metric("cpu.unit_per_wall", cpu_per_wall, "ratio")
    out.metric("trace.overhead_frac", overhead_frac, "ratio")


def median(values: List[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------


def emit(out: Outcome, host: Dict[str, Any]) -> None:
    """Print the readable report, then the one-line JSON result last."""
    print("# host " + json.dumps(host, sort_keys=True))
    for name, (value, unit) in sorted(out.notes.items()):
        print(f"  {name:<40} {value:>14.4f} {unit}  (not in result)")
    for name, (value, unit) in sorted(out.metrics.items()):
        print(f"  {name:<40} {value:>14.4f} {unit}")
    print(f"# operations: {out.failed} failed of {out.attempted} attempted")
    for failure in out.failures:
        print(f"#   FAILED {failure}")
    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in out.metrics.items()
        },
    }
    print(json.dumps(result, sort_keys=True), flush=True)
