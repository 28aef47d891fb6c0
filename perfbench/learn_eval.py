"""Workload ``learn_eval``: PART rule learning and month-over-month evaluation.

Set-up builds the labeled session.  One unit of work is
``full_evaluation`` over the six month pairs at tau in {0, 0.001},
from a cleared rule memo, with the CLI's default ``jobs`` (one worker
per core), so the month pairs fan out through ``sched.run_stage``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import resource
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

import harness
from repro import sched
from repro.core import evaluation
from repro.core.classifier import RuleBasedClassifier
from repro.core.dataset import TrainingSet
from repro.core.evaluation import clear_rule_cache, full_evaluation
from repro.core.part import PartLearner
from repro.labeling.ground_truth import LabeledDataset
from repro.pipeline import build_session
from repro.sched.trials import _TreeRssSampler
from repro.telemetry.events import MONTH_NAMES

TAUS = (0.0, 0.001)
MONTH_PAIRS = 6


def _evaluate(session, jobs: Optional[int],
              gc_monitor: Optional[harness.GcMonitor] = None):
    # A fresh copy of the labeled dataset has cold lazy caches (content
    # digest, first events), as in a fresh `repro evaluate` run.
    labeled = dataclasses.replace(session.labeled)
    clear_rule_cache()
    gc.collect()
    if gc_monitor is not None:
        gc_monitor.reset()
    start = time.perf_counter()
    result = full_evaluation(labeled, session.alexa, taus=TAUS, jobs=jobs)
    return result, time.perf_counter() - start


def _outputs(result) -> Dict[str, Any]:
    rule_text: Dict[str, List[str]] = {}
    for run in result.runs:
        rule_text.setdefault(
            run.extraction.train_month,
            [rule.render() for rule in run.ruleset.rules],
        )
    return {
        "table_xvi": [dataclasses.asdict(row)
                      for row in result.extraction_rows()],
        "table_xvii": [dataclasses.asdict(row)
                       for row in result.evaluation_rows()],
        "rule_text": rule_text,
    }


def _row_valid(row: Dict[str, Any]) -> bool:
    decided = (row["unknown_malicious"] + row["unknown_benign"]
               + row["unknown_rejected"])
    return (0.0 <= row["tp_rate"] <= 1.0 and 0.0 <= row["fp_rate"] <= 1.0
            and decided <= row["unknown_total"])


def _check(out: harness.Outcome, outputs: Dict[str, Any], refs) -> None:
    """12 month x tau rows plus 6 rule lists, against the references."""
    expected_rows = refs.get("table_xvii")
    expected_xvi = refs.get("table_xvi")
    rows = outputs["table_xvii"]
    out.check(len(rows) == MONTH_PAIRS * len(TAUS),
              f"{len(rows)} evaluation rows != {MONTH_PAIRS * len(TAUS)}")
    for index, (row, xvi) in enumerate(zip(rows, outputs["table_xvi"])):
        what = f"row {row['train_month']}->{row['test_month']} tau={row['tau']}"
        if expected_rows is None:
            out.check(_row_valid(row)
                      and xvi["selected_rules"] <= xvi["total_rules"], what)
        else:
            out.check(row == expected_rows[index]
                      and xvi == expected_xvi[index],
                      what + " differs from reference")
    expected_text = refs.get("rule_text")
    for month in MONTH_NAMES[:MONTH_PAIRS]:
        rules = outputs["rule_text"].get(month)
        if expected_text is None:
            out.check(bool(rules), f"rule list of {month} is empty")
        else:
            out.check(rules == expected_text.get(month),
                      f"rule list of {month} differs from reference")


class _SchedProbe:
    """CPU of parent and pool children around each ``sched.run_stage``."""

    def __init__(self) -> None:
        self.parent_cpu_s = 0.0
        self.children_cpu_s = 0.0
        self.wall_s = 0.0
        self.workers = 0

    @contextlib.contextmanager
    def installed(self):
        original = sched.run_stage

        def run_stage(*args: Any, **kwargs: Any):
            parent = harness.cpu_s()
            children = harness.cpu_s(resource.RUSAGE_CHILDREN)
            start = time.perf_counter()
            outcome = original(*args, **kwargs)
            self.wall_s += time.perf_counter() - start
            self.parent_cpu_s += harness.cpu_s() - parent
            self.children_cpu_s += (
                harness.cpu_s(resource.RUSAGE_CHILDREN) - children)
            self.workers = max(self.workers, outcome.workers)
            return outcome

        sched.run_stage = run_stage
        try:
            yield self
        finally:
            sched.run_stage = original


@contextlib.contextmanager
def _core_timers(timer: harness.LayerTimer, counts: Dict[str, int]):
    def on_fit(rules: Any, args: tuple) -> None:
        counts["core.instances"] += len(args[1])
        counts["core.rules"] += len(rules)

    with contextlib.ExitStack() as stack:
        enter = stack.enter_context
        enter(timer.wrap(evaluation, "learn_rules", "core.learn_rules"))
        enter(timer.wrap(LabeledDataset, "month_slice", "core.month_slice"))
        enter(timer.wrap(TrainingSet, "from_labeled", "core.training_set"))
        enter(timer.wrap(evaluation, "unknown_vectors",
                         "core.unknown_vectors"))
        enter(timer.wrap(PartLearner, "fit", "core.part_fit", on_fit))
        enter(timer.wrap(RuleBasedClassifier, "evaluate", "core.classify"))
        enter(timer.wrap(RuleBasedClassifier, "classify_batch",
                         "core.classify"))
        yield


def run(seed: int, seconds: float, trace: bool, refs, write_refs: bool,
        work_dir: Path) -> harness.Outcome:
    out = harness.Outcome()
    timer = harness.LayerTimer()
    rss_after: Dict[str, float] = {}
    with (harness.session_stages(timer, rss_after) if trace
          else contextlib.nullcontext()):
        start = time.perf_counter()
        session = build_session(harness.world_config(seed), jobs=1)
        setup_s = time.perf_counter() - start
    rss_setup = harness.rss_mb()

    probe = _SchedProbe()
    units: List[float] = []
    peak_mb = harness.peak_rss_mb()
    begin = time.perf_counter()
    while True:
        with _TreeRssSampler() as sampler, probe.installed():
            cpu = harness.tree_cpu_s()
            result, elapsed = _evaluate(session, jobs=None)
            cpu_per_wall = (harness.tree_cpu_s() - cpu) / elapsed
        peak_mb = max(peak_mb, sampler.peak_kb / 1024.0)
        units.append(elapsed)
        outputs = _outputs(result)
        _check(out, outputs, refs)
        if trace or time.perf_counter() - begin >= seconds:
            break
    if write_refs:
        refs.write(outputs)
    out.note("learn_eval.units", len(units), "count")

    if not trace:
        out.metric("unit_s", harness.median(units), "s")
        out.metric("setup_s", setup_s, "s")
        out.metric("peak_rss_mb", max(peak_mb, harness.peak_rss_mb()), "MB")
        return out

    rss_unit = harness.rss_mb()
    out.note("sched.parent_cpu_s", probe.parent_cpu_s, "s")
    out.note("sched.children_cpu_s", probe.children_cpu_s, "s")
    out.note("sched.workers", probe.workers, "count")
    out.note("sched.parallel_efficiency",
             probe.children_cpu_s / (max(probe.workers, 1) * probe.wall_s)
             if probe.wall_s else 0.0, "ratio")
    # Per-layer core timings need the month pairs in this process.  The
    # untraced serial runs before and after the traced one; their mean
    # cancels warm-up within the process (the first run is ~20% slower).
    _, untraced_before = _evaluate(session, jobs=1)
    core_timer = harness.LayerTimer()
    counts = {"core.instances": 0, "core.rules": 0}
    with harness.GcMonitor() as gc_monitor, _core_timers(core_timer, counts):
        result, traced_s = _evaluate(session, jobs=1, gc_monitor=gc_monitor)
    _check(out, _outputs(result), refs)
    _, untraced_after = _evaluate(session, jobs=1)
    untraced_s = (untraced_before + untraced_after) / 2
    for name, value in core_timer.seconds.items():
        out.note(f"{name}_s", value, "s")
    for name, value in counts.items():
        out.note(name, value, "count")
    out.note("core.serial_eval_s", traced_s, "s")
    out.note("core.part_fit_share",
             core_timer.seconds["core.part_fit"] / traced_s, "ratio")
    gc_monitor.record(out)
    harness.record_common(
        out, timer, rss_after, rss_setup, rss_unit, cpu_per_wall,
        overhead_frac=traced_s / untraced_s - 1.0)
    return out
