"""``python -m repro.benchfab`` — run, compare, list.

* ``run <bench>`` executes one fabric bench (optionally a subset of its
  scenarios), writes the unified scorecard artifact, appends it to the
  trajectory, prints the scorecard report, and exits non-zero when a
  tolerance rule fails.
* ``compare <artifact-or-bench>`` evaluates an existing fabric
  ``BENCH_*.json`` against the rules it embeds and the stored
  trajectory.  This is the trend-regression gate CI runs.
* ``list`` prints the bench registry (``--scenarios`` expands each
  matrix so the conformance/CI tiers are inspectable as data).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.benchfab.scenarios import (
    BENCHES,
    DEFAULT_OUT_DIR,
    bench_spec,
    run_bench,
)
from repro.benchfab.trend import (
    DEFAULT_TRAJECTORY_DIR,
    TrajectoryStore,
    compare_artifact,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.benchfab",
        description="FRESQUE benchmark fabric: scenario matrices, "
        "unified scorecards, trend-regression gates.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one fabric bench")
    run.add_argument("bench", help="bench name (see `list`)")
    run.add_argument(
        "--out", default=DEFAULT_OUT_DIR, help="artifact directory"
    )
    run.add_argument(
        "--trajectory",
        default=DEFAULT_TRAJECTORY_DIR,
        help="trajectory directory (compared before this run is appended)",
    )
    run.add_argument(
        "--no-trajectory",
        action="store_true",
        help="neither read nor append the trajectory",
    )
    run.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="SCENARIO",
        help="run only the named scenario (repeatable)",
    )
    run.add_argument(
        "--data-root", default=None, help="directory for durable journals"
    )

    compare = commands.add_parser(
        "compare", help="evaluate an artifact against its tolerance rules"
    )
    compare.add_argument(
        "artifact",
        help="path to a BENCH_*.json, or a bench name resolved in "
        f"{DEFAULT_OUT_DIR}/",
    )
    compare.add_argument(
        "--trajectory",
        default=DEFAULT_TRAJECTORY_DIR,
        help="trajectory directory for trajectory-within rules",
    )
    compare.add_argument(
        "--cpus",
        type=int,
        default=None,
        help="override the CPU count rule guards see",
    )

    listing = commands.add_parser("list", help="print the bench registry")
    listing.add_argument(
        "--scenarios",
        action="store_true",
        help="expand every matrix into its concrete scenario rows",
    )
    return parser


def _resolve_artifact(spec: str) -> pathlib.Path:
    path = pathlib.Path(spec)
    if path.exists():
        return path
    named = pathlib.Path(DEFAULT_OUT_DIR) / f"BENCH_{spec}.json"
    if named.exists():
        return named
    raise SystemExit(f"no such artifact: {spec} (also tried {named})")


def _cmd_run(args) -> int:
    trajectory = (
        None
        if args.no_trajectory
        else TrajectoryStore(pathlib.Path(args.trajectory))
    )
    path, comparison = run_bench(
        args.bench,
        out_dir=args.out,
        data_root=args.data_root,
        trajectory=trajectory,
        only=args.only,
    )
    print(f"wrote {path}")
    print(comparison.report())
    return 1 if comparison.failed else 0


def _cmd_compare(args) -> int:
    comparison = compare_artifact(
        _resolve_artifact(args.artifact),
        trajectory=TrajectoryStore(pathlib.Path(args.trajectory)),
        cpu_count=args.cpus,
    )
    print(comparison.report())
    return 1 if comparison.failed else 0


def _cmd_list(args) -> int:
    for name in sorted(BENCHES):
        spec = bench_spec(name)
        scenarios = spec.scenarios()
        tier = " [smoke]" if spec.smoke else ""
        print(
            f"{name}{tier}: {spec.title} — {len(scenarios)} scenarios, "
            f"{len(spec.rules)} rules"
        )
        if args.scenarios:
            for scenario in scenarios:
                axes = ", ".join(
                    f"{key}={value}"
                    for key, value in sorted(scenario.axes().items())
                )
                print(f"  {scenario.name}  ({axes})")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"run": _cmd_run, "compare": _cmd_compare, "list": _cmd_list}
    return handler[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
