"""Resource-governed run orchestrator: one owner for every worker fan-out.

Three places used to hand-roll the same fork-preferring
:class:`~concurrent.futures.ProcessPoolExecutor` block -- world-shard
generation (:mod:`repro.synth.engine`), month-pair evaluation
(:mod:`repro.core.evaluation`) and (sequentially, until now) the
validation seed sweep (:mod:`repro.validation.runner`).  Each copy had
no memory or CPU budget, no backpressure, and silently degraded to
sequential execution without leaving a trace.  This module centralises
all of it behind a :class:`TaskSpec`/:class:`Orchestrator` API:

* **CPU budget** -- worker count is the minimum of the caller's
  ``jobs``, the task count, and the stage budget's ``max_workers`` /
  ``cpu_fraction`` allowance (``os.cpu_count``-based).
* **Memory budget** -- before each submit the orchestrator reads the
  process tree's RSS from ``/proc`` (:func:`repro.obs.resources.tree_rss_kb`)
  and, when it exceeds ``memory_mb``, *halves the in-flight window*
  instead of letting the pool OOM.  Degradation only ever changes how
  many tasks run concurrently -- never the task list itself -- so the
  output stays bit-identical to an unconstrained run (worlds are pure
  functions of their configs; ``jobs`` and budgets are execution knobs).
* **Backpressure** -- the in-flight window is enforced with the same
  :class:`repro.serve.queues.BoundedQueue` the streaming collector uses:
  submission blocks while the queue is at capacity and a completion
  callback drains one token per finished task.  Degradation is a live
  :meth:`~repro.serve.queues.BoundedQueue.resize` of that queue.
* **Argument passing** -- under a ``fork`` context the stage's specs
  sit in a module-level registry, under a per-stage token, while its
  pool runs: the forked workers inherit them, and a submit carries only
  ``(token, index)``.  A month-pair task's arguments are the whole
  labeled dataset, which would otherwise be pickled in the parent and
  unpickled in a worker for every task.  ``spawn`` and ``forkserver``
  workers share no memory with the parent, so there the specs are
  pickled as before.
* **Telemetry** -- every pool task runs inside the
  :func:`repro.obs.worker.run_task` envelope, and the returned payloads
  are absorbed under the caller's fan-out span, so merged ``--trace``
  trees and summed counters keep matching a ``jobs=1`` run.  Platforms
  where process pools are unavailable (seccomp'd sandboxes, no
  ``/dev/shm``) fall back to in-process execution -- same results --
  and now increment ``sched.fallback_sequential`` instead of hiding it.

The stage verdict comes back as a :class:`StageOutcome` carrying the
results (always in spec order) plus how the stage actually ran.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from ..obs import metrics as obs_metrics
from ..obs import resources, trace
from ..obs import worker as obs_worker

__all__ = [
    "Orchestrator",
    "StageBudget",
    "StageOutcome",
    "TaskSpec",
    "default_budget",
    "run_stage",
    "set_default_budget",
]

#: Default in-flight tasks per worker when the budget does not pin a
#: queue depth: one running plus one queued keeps workers busy without
#: materialising every pending task's arguments at once.
DEFAULT_DEPTH_PER_WORKER = 2


@dataclasses.dataclass(frozen=True)
class TaskSpec:
    """One schedulable unit of work.

    Under a fork pool the workers inherit the spec; elsewhere
    ``fn``/``args`` cross the process boundary and must be picklable
    (module-level function, plain data).  Results always come back
    pickled.  ``tag`` is the
    opaque worker id stamped on the task's grafted span roots -- the
    shard index, month index or sweep seed at the built-in sites.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    tag: Any = None


@dataclasses.dataclass(frozen=True)
class StageBudget:
    """Per-stage resource budget; ``None`` fields are unconstrained.

    ``memory_mb``
        Process-tree RSS ceiling (parent + pool workers).  Crossing it
        halves the in-flight window before the next submit.
    ``cpu_fraction``
        Fraction of ``os.cpu_count()`` the stage may occupy.
    ``max_workers``
        Hard cap on pool workers regardless of ``jobs``.
    ``queue_depth``
        Initial in-flight window (defaults to
        ``DEFAULT_DEPTH_PER_WORKER * workers``).
    """

    memory_mb: Optional[float] = None
    cpu_fraction: Optional[float] = None
    max_workers: Optional[int] = None
    queue_depth: Optional[int] = None


@dataclasses.dataclass
class StageOutcome:
    """How one stage ran, and what it produced (in spec order)."""

    stage: str
    results: List[Any]
    workers: int
    parallel: bool
    fallback: bool
    window_initial: int
    window_final: int
    degradations: int
    queue_max_depth: int
    wall_seconds: float


_DEFAULT_BUDGET = StageBudget()

#: Task lists of the running fork-pool stages, by stage token.  A forked
#: worker finds its spec here in the memory it inherited, so the
#: arguments are never pickled.
_INHERITED: Dict[int, List[TaskSpec]] = {}
_STAGE_TOKENS = itertools.count()


@contextlib.contextmanager
def _inheritance(specs: List[TaskSpec]) -> Iterator[int]:
    """Register ``specs`` for forked workers while one pool runs.

    Entered before the pool is created, so every worker it forks sees
    the entry; removed when the pool is shut, even if a task raised.
    """
    token = next(_STAGE_TOKENS)
    _INHERITED[token] = specs
    try:
        yield token
    finally:
        del _INHERITED[token]


def _run_inherited(
    config: obs_worker.ObsConfig, token: int, index: int
) -> Tuple[Any, obs_worker.ObsPayload]:
    """Pool entry point under fork: run one inherited spec."""
    spec = _INHERITED[token][index]
    return obs_worker.run_task(config, spec.tag, spec.fn, *spec.args)


def set_default_budget(budget: Optional[StageBudget]) -> StageBudget:
    """Install the process-wide default budget; returns the previous one.

    The CLI points this at ``--memory-budget-mb`` so every fan-out in a
    run -- generation shards, month pairs, sweep seeds -- shares one
    ceiling without threading a budget through every signature.
    """
    global _DEFAULT_BUDGET
    previous = _DEFAULT_BUDGET
    _DEFAULT_BUDGET = budget if budget is not None else StageBudget()
    return previous


def default_budget() -> StageBudget:
    """The budget stages run under when none is passed explicitly."""
    return _DEFAULT_BUDGET


class Orchestrator:
    """Runs one stage's tasks under a resource budget."""

    def __init__(
        self,
        stage: str,
        jobs: Optional[int] = None,
        budget: Optional[StageBudget] = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.stage = stage
        self.jobs = jobs
        self.budget = budget if budget is not None else default_budget()

    # ------------------------------------------------------------------
    # Budget resolution
    # ------------------------------------------------------------------

    def resolve_workers(self, tasks: int) -> int:
        """Worker count for ``tasks`` tasks under the CPU budget."""
        jobs = self.jobs if self.jobs is not None else (os.cpu_count() or 1)
        workers = min(jobs, max(1, tasks))
        if self.budget.max_workers is not None:
            workers = min(workers, self.budget.max_workers)
        if self.budget.cpu_fraction is not None:
            allowance = int((os.cpu_count() or 1) * self.budget.cpu_fraction)
            workers = min(workers, allowance)
        return max(1, workers)

    def _initial_window(self, workers: int, tasks: int) -> int:
        depth = self.budget.queue_depth
        if depth is None:
            depth = DEFAULT_DEPTH_PER_WORKER * workers
        return max(1, min(depth, tasks))

    def _memory_pressured(self) -> bool:
        limit = self.budget.memory_mb
        if limit is None:
            return False
        return resources.tree_rss_kb() / 1024.0 >= limit

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run(
        self,
        specs: Sequence[TaskSpec],
        parent_span: Optional[Any] = None,
    ) -> StageOutcome:
        """Execute every spec; results come back in spec order.

        ``parent_span`` is the caller's live fan-out span: worker span
        trees graft under it (roots tagged with each spec's ``tag``)
        and the stage's scheduling attributes land on it.
        """
        specs = list(specs)
        start = time.perf_counter()
        workers = self.resolve_workers(len(specs))
        if workers <= 1 or len(specs) <= 1:
            outcome = self._run_sequential(specs, workers, fallback=False)
        else:
            try:
                outcome = self._run_parallel(specs, workers, parent_span)
            except (OSError, PermissionError):
                obs_metrics.counter(
                    "sched.fallback_sequential",
                    "Stages that degraded to in-process execution because "
                    "a process pool could not be created",
                ).inc()
                outcome = self._run_sequential(specs, workers, fallback=True)
        outcome.wall_seconds = time.perf_counter() - start
        obs_metrics.counter(
            "sched.tasks", "Tasks executed by the run orchestrator"
        ).inc(len(specs))
        obs_metrics.histogram(
            "sched.stage_seconds", "Wall time of orchestrated stages"
        ).observe(outcome.wall_seconds)
        if isinstance(parent_span, trace.Span):
            parent_span.set_attribute("sched_workers", outcome.workers)
            parent_span.set_attribute("sched_window", outcome.window_final)
            if outcome.degradations:
                parent_span.set_attribute(
                    "sched_degradations", outcome.degradations
                )
            if outcome.fallback:
                parent_span.set_attribute("sched_fallback", True)
        return outcome

    def _run_sequential(
        self, specs: List[TaskSpec], workers: int, fallback: bool
    ) -> StageOutcome:
        # In-process execution records spans/metrics straight into the
        # parent's tracer and registry -- no envelope, no payloads.
        results = [spec.fn(*spec.args) for spec in specs]
        return StageOutcome(
            stage=self.stage,
            results=results,
            workers=1 if fallback else workers,
            parallel=False,
            fallback=fallback,
            window_initial=1,
            window_final=1,
            degradations=0,
            queue_max_depth=0,
            wall_seconds=0.0,
        )

    def _run_parallel(
        self,
        specs: List[TaskSpec],
        workers: int,
        parent_span: Optional[Any],
    ) -> StageOutcome:
        # Imported here: repro.serve pulls in repro.core, which imports
        # this package right back -- the lazy import breaks the cycle.
        from ..serve.queues import BoundedQueue

        obs = obs_worker.current_config()
        inherit = "fork" in multiprocessing.get_all_start_methods()
        mp_context = multiprocessing.get_context("fork") if inherit else None
        window = self._initial_window(workers, len(specs))
        window_initial = window
        degradations = 0
        admission = BoundedQueue(capacity=window)

        def release(_future: Any) -> None:
            # Runs on the executor's result thread: free one admission
            # token so a blocked submit can proceed.
            try:
                admission.get(timeout=0)
            except Exception:  # pragma: no cover - defensive drain
                pass

        futures = []
        inheritance = (
            _inheritance(specs) if inherit else contextlib.nullcontext()
        )
        with inheritance as token, ProcessPoolExecutor(
            max_workers=workers, mp_context=mp_context
        ) as pool:
            for index, spec in enumerate(specs):
                if window > 1 and self._memory_pressured():
                    window = max(1, window // 2)
                    admission.resize(window)
                    degradations += 1
                    obs_metrics.counter(
                        "sched.degradations",
                        "In-flight window halvings under memory pressure",
                    ).inc()
                admission.put(index)
                if token is None:
                    future = pool.submit(
                        obs_worker.run_task, obs, spec.tag, spec.fn,
                        *spec.args,
                    )
                else:
                    future = pool.submit(_run_inherited, obs, token, index)
                future.add_done_callback(release)
                futures.append(future)
            pairs = [future.result() for future in futures]
        results = [result for result, _ in pairs]
        obs_worker.absorb(
            (payload for _, payload in pairs), parent_span=parent_span
        )
        obs_metrics.counter(
            "sched.tasks_parallel",
            "Tasks executed via an orchestrator process pool",
        ).inc(len(specs))
        obs_metrics.gauge(
            "sched.window",
            "In-flight task window of the last parallel stage",
        ).set(window)
        return StageOutcome(
            stage=self.stage,
            results=results,
            workers=workers,
            parallel=True,
            fallback=False,
            window_initial=window_initial,
            window_final=window,
            degradations=degradations,
            queue_max_depth=admission.max_depth,
            wall_seconds=0.0,
        )


def run_stage(
    stage: str,
    specs: Sequence[TaskSpec],
    *,
    jobs: Optional[int] = None,
    budget: Optional[StageBudget] = None,
    parent_span: Optional[Any] = None,
) -> StageOutcome:
    """One-call convenience wrapper: build an orchestrator and run it."""
    return Orchestrator(stage, jobs=jobs, budget=budget).run(
        specs, parent_span=parent_span
    )
