"""Command-line interface.

Four subcommands exercise the library end to end::

    python -m repro demo                 # ingest + publish + query
    python -m repro capacity nasa        # nodes needed per target rate
    python -m repro figure fig9          # print one figure's reproduction
    python -m repro attack               # informed-attacker curve

Everything runs offline and deterministically under ``--seed``.
"""

from __future__ import annotations

import argparse
import random

from repro.analysis.attacker import advantage_vs_buffer
from repro.core.config import FresqueConfig
from repro.core.stats import collect_stats
from repro.core.system import FresqueSystem
from repro.crypto.cipher import SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.datasets.flu import FluSurveyGenerator
from repro.simulation.analytic import (
    fresque_publishing_times,
    fresque_throughput,
    nonparallel_pp_throughput,
    parallel_pp_throughput,
)
from repro.simulation.costs import cost_model_for


def _cmd_demo(args: argparse.Namespace) -> int:
    generator = FluSurveyGenerator(seed=args.seed)
    config = FresqueConfig(
        schema=generator.schema,
        domain=generator.domain,
        num_computing_nodes=args.nodes,
        epsilon=args.epsilon,
    )
    cipher = SimulatedCipher(KeyStore(random.Random(args.seed).randbytes(32)))
    system = FresqueSystem(config, cipher, seed=args.seed)
    system.start()
    summary = system.run_publication(list(generator.raw_lines(args.records)))
    print(
        f"publication {summary.publication}: {summary.real_records} real, "
        f"{summary.dummies} dummies, {summary.removed} removed, "
        f"{summary.published_pairs} pairs published"
    )
    result = system.query(380, 420)
    print(f"fever query [38.0, 42.0] C -> {len(result.records)} records")
    print(collect_stats(system).render())
    return 0


def _cmd_capacity(args: argparse.Namespace) -> int:
    costs = cost_model_for(args.dataset)
    print(f"{args.dataset}: throughput by computing-node count")
    print(f"{'nodes':>6} {'FRESQUE':>10} {'par-PP':>10} {'nonpar-PP':>10}")
    nonparallel = nonparallel_pp_throughput(costs)
    for nodes in range(2, args.max_nodes + 1, 2):
        fresque = fresque_throughput(costs, nodes)
        parallel = parallel_pp_throughput(costs, nodes)
        print(
            f"{nodes:>6} {fresque / 1000:>9.1f}k {parallel / 1000:>9.1f}k "
            f"{nonparallel / 1000:>9.1f}k"
        )
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    costs = cost_model_for(args.dataset)
    if args.figure == "fig9":
        print(f"Figure 9 ({args.dataset}): FRESQUE throughput")
        for nodes in (2, 4, 6, 8, 10, 12):
            print(f"  {nodes:>2} nodes: "
                  f"{fresque_throughput(costs, nodes) / 1000:.1f}k records/s")
    elif args.figure == "fig13":
        print(f"Figure 13 ({args.dataset}): publishing times")
        for nodes in (2, 4, 6, 8, 10, 12):
            times = fresque_publishing_times(costs, nodes)
            print(
                f"  {nodes:>2} nodes: dispatcher {times.dispatcher * 1000:6.1f} ms, "
                f"merger {times.merger * 1000:6.1f} ms, "
                f"checking {times.checking_node * 1000:6.1f} ms, "
                f"cloud {times.cloud * 1000:6.1f} ms"
            )
    else:
        print(
            "unknown figure; available: fig9, fig13 "
            "(run `pytest benchmarks/ --benchmark-only -s` for all)"
        )
        return 2
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    sizes = [1, 10, 50, args.dummies, 2 * args.dummies, 4 * args.dummies]
    curve = advantage_vs_buffer(
        n_real=args.records,
        n_dummies=args.dummies,
        buffer_sizes=sizes,
        trials=5,
        seed=args.seed,
    )
    print("informed-attacker dummy identification rate by buffer size:")
    for size in sizes:
        note = "  <- alpha=2 sizing" if size == 2 * args.dummies else ""
        print(f"  buffer {size:>6}: {curve[size]:6.1%}{note}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description="FRESQUE reproduction CLI"
    )
    parser.add_argument("--seed", type=int, default=2021)
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="ingest, publish and query")
    demo.add_argument("--records", type=int, default=2000)
    demo.add_argument("--nodes", type=int, default=3)
    demo.add_argument("--epsilon", type=float, default=1.0)
    demo.set_defaults(func=_cmd_demo)

    capacity = sub.add_parser("capacity", help="throughput by node count")
    capacity.add_argument("dataset", choices=["nasa", "gowalla"])
    capacity.add_argument("--max-nodes", type=int, default=12)
    capacity.set_defaults(func=_cmd_capacity)

    figure = sub.add_parser("figure", help="print one figure reproduction")
    figure.add_argument("figure", help="fig9 or fig13")
    figure.add_argument(
        "--dataset", choices=["nasa", "gowalla"], default="nasa"
    )
    figure.set_defaults(func=_cmd_figure)

    attack = sub.add_parser("attack", help="informed-attacker curve")
    attack.add_argument("--records", type=int, default=4000)
    attack.add_argument("--dummies", type=int, default=200)
    attack.set_defaults(func=_cmd_attack)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
