"""The repository benchmark: one command, three workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload corpus --seed 7 --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Its metrics are
the same for every workload: with ``--trace 0`` the end-to-end ones,
with ``--trace 1`` the per-layer ones (timed from outside each layer).
Figures particular to one workload are printed above it.  See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus", "learn_eval", "stream")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7,
                        help="world seed (default 7)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="minimum measured time; the workload's unit "
                             "of work repeats until it is reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead of "
                             "end-to-end ones")
    parser.add_argument("--write-references", action="store_true",
                        help="store this run's outputs as the seed's "
                             "references instead of checking them")
    args = parser.parse_args(argv)

    source = ROOT / "src" / "repro" / "__init__.py"
    if not source.is_file():
        print(f"error: program source {source.relative_to(ROOT)} not found; "
              f"run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import harness
    from references import References

    try:
        refs = References(args.seed)
    except (OSError, ValueError) as exc:
        print(f"error: cannot read the reference outputs: {exc}",
              file=sys.stderr)
        return 2
    if args.workload == "corpus":
        import corpus as workload
    elif args.workload == "learn_eval":
        import learn_eval as workload
    else:
        import stream as workload
    work_dir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        with harness.HostMonitor() as host:
            out = workload.run(
                seed=args.seed,
                seconds=args.seconds,
                trace=bool(args.trace),
                refs=refs,
                write_refs=args.write_references,
                work_dir=work_dir,
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass
    # Printed with every run, in the result only when traced.
    report = out.metric if args.trace else out.note
    report("host.steal_frac", host.steal_frac, "ratio")
    report("host.speed_probe_ms", host.probe_ms, "ms")
    harness.emit(out, harness.host_fingerprint(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
