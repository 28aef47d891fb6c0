"""Workload ``corpus``: the cold, serial batch path behind run/report/validate.

One unit of work generates the world, collects and labels it, builds
the analysis frame, renders all 22 tables and figures of ``repro report
--all`` and checks the 26 fidelity targets -- from cleared caches, with
``jobs=1``.  ``core`` (PART) is never called.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List

import harness
from repro import reporting
from repro.analysis.frame import session_frame
from repro.cli import _EXPERIMENTS, _NEEDS_ALEXA
from repro.pipeline import build_session, clear_all_caches
from repro.validation import DEFAULT_P_FLOOR, evaluate_session

LAYER_IMPORTS = (
    "import repro.synth.cache, repro.synth.world, repro.labeling.ground_truth,"
    " repro.labeling.whitelists, repro.analysis.frame, repro.reporting,"
    " repro.validation, repro.pipeline, repro.cli"
)
SETUP_SAMPLES = 5


def _setup_s(src: Path) -> float:
    """Median wall time of loading every layer in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", LAYER_IMPORTS],
            check=True,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        samples.append(time.perf_counter() - start)
    return harness.median(samples)


def _unit(seed: int, stages: Dict[str, float]) -> Dict[str, Any]:
    """One cold pass; fills the seconds of the stages after the session."""
    clear_all_caches()

    def stage(name: str, fn: Callable[[], Any]) -> Any:
        start = time.perf_counter()
        result = fn()
        stages[name] = time.perf_counter() - start
        return result

    session = build_session(harness.world_config(seed), jobs=1, cache=False)
    labeled, alexa = session.labeled, session.alexa
    stage("analysis.session_frame", lambda: session_frame(labeled, alexa))

    def render() -> List[str]:
        texts = []
        for name in sorted(_EXPERIMENTS):  # as `repro report --all`
            renderer = getattr(reporting, _EXPERIMENTS[name])
            texts.append(renderer(labeled, alexa) if name in _NEEDS_ALEXA
                         else renderer(labeled))
        return texts

    texts = stage("reporting.render", render)
    results = stage(
        "validation.evaluate_session",
        lambda: evaluate_session(session, p_floor=DEFAULT_P_FLOOR),
    )
    return {
        "dataset_digest": session.dataset.content_digest(),
        "report_digest": hashlib.sha256(
            "\n\n".join(texts).encode("utf-8")).hexdigest(),
        "texts": texts,
        "fidelity": [(r.name, r.verdict) for r in results],
    }


def _check(out: harness.Outcome, result: Dict[str, Any], refs) -> None:
    for name, verdict in result["fidelity"]:
        out.check(verdict == "pass", f"fidelity target {name}: {verdict}")
    out.check(len(result["fidelity"]) == 26,
              f"fidelity targets evaluated: {len(result['fidelity'])} != 26")
    out.check(len(result["texts"]) == 22 and all(result["texts"]),
              "22 non-empty rendered tables and figures")
    for key in ("dataset_digest", "report_digest"):
        expected = refs.get(key)
        if expected is not None:
            out.check(result[key] == expected, f"{key} differs from reference")


def run(seed: int, seconds: float, trace: bool, refs, write_refs: bool,
        work_dir: Path) -> harness.Outcome:
    out = harness.Outcome()
    src = Path(__file__).resolve().parent.parent / "src"
    setup_s = _setup_s(src)
    rss_setup = harness.rss_mb()

    def untraced_unit() -> float:
        start = time.perf_counter()
        _unit(seed, {})
        return time.perf_counter() - start

    units: List[float] = []
    # Untraced units before and after the traced one, for the overhead
    # comparison (their mean cancels warm-up within the process).
    untraced_s = [untraced_unit()] if trace else []
    timer = harness.LayerTimer()
    rss_after: Dict[str, float] = {}
    gc_monitor = harness.GcMonitor()
    with contextlib.ExitStack() as stack:
        if trace:
            stack.enter_context(gc_monitor)
            stack.enter_context(harness.session_stages(timer, rss_after))
        begin = time.perf_counter()
        while True:
            stages: Dict[str, float] = {}
            cpu = harness.tree_cpu_s()
            start = time.perf_counter()
            result = _unit(seed, stages)
            units.append(time.perf_counter() - start)
            cpu_per_wall = (harness.tree_cpu_s() - cpu) / units[-1]
            _check(out, result, refs)
            if trace or time.perf_counter() - begin >= seconds:
                break
    if write_refs:
        refs.write({key: result[key]
                    for key in ("dataset_digest", "report_digest")})
    out.note("corpus.units", len(units), "count")
    if not trace:
        out.metric("unit_s", harness.median(units), "s")
        out.metric("setup_s", setup_s, "s")
        out.metric("peak_rss_mb", harness.peak_rss_mb(), "MB")
        return out

    rss_unit = harness.rss_mb()
    untraced_s.append(untraced_unit())
    for name, value in stages.items():
        out.note(f"{name}_s", value, "s")
    gc_monitor.record(out)
    harness.record_common(
        out, timer, rss_after, rss_setup, rss_unit, cpu_per_wall,
        overhead_frac=units[-1] / (sum(untraced_s) / 2) - 1.0)
    return out
