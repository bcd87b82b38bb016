"""Figure 13 — publishing time of each FRESQUE component.

Paper (NASA / Gowalla): dispatcher always below 520/200 ms and decreasing
with computing nodes (101/19 ms at 12); merger ~149–191 / 18–20 ms;
checking node under 600/80 ms; cloud matching up to 877/837 ms for the
full 60-second publication.

The dispatcher/checking/merger/cloud series come from the analytic model;
the merger's merge job is additionally benchmarked on the *real* code.
"""

import random

from benchmarks.common import (
    DATASETS,
    NODE_SWEEP,
    emit,
    format_series,
    milliseconds,
)
from repro.index.domain import gowalla_domain
from repro.index.perturb import draw_noise_plan
from repro.index.template import merge_plan_and_counts
from repro.index.tree import IndexTree
from repro.simulation.analytic import fresque_publishing_times


def _series():
    return {
        name: {
            nodes: fresque_publishing_times(costs, nodes)
            for nodes in NODE_SWEEP
        }
        for name, costs in DATASETS
    }


def test_fig13_series(benchmark):
    """Regenerate the four publishing-time series for both datasets."""
    series = benchmark.pedantic(_series, rounds=1, iterations=1)
    for name, _ in DATASETS:
        rows = [
            [
                nodes,
                milliseconds(series[name][nodes].dispatcher),
                milliseconds(series[name][nodes].merger),
                milliseconds(series[name][nodes].checking_node),
                milliseconds(series[name][nodes].cloud),
            ]
            for nodes in NODE_SWEEP
        ]
        emit(
            f"fig13_{name}",
            format_series(
                f"Figure 13 ({name}): publishing time per component",
                ["nodes", "dispatcher", "merger", "checking", "cloud"],
                rows,
            ),
        )
    nasa, gowalla = series["nasa"], series["gowalla"]
    # Dispatcher: bounded and decreasing, paper endpoints.
    assert all(nasa[n].dispatcher <= 0.53 for n in NODE_SWEEP)
    assert all(gowalla[n].dispatcher <= 0.21 for n in NODE_SWEEP)
    assert 0.08 < nasa[12].dispatcher < 0.13  # ~101 ms
    assert 0.014 < gowalla[12].dispatcher < 0.025  # ~19 ms
    # Merger: NASA in the paper's 149–191 ms band (±20%).
    assert 0.12 < nasa[12].merger < 0.23
    # Checking node bounds.
    assert nasa[12].checking_node < 0.6
    assert gowalla[12].checking_node < 0.11
    # Cloud matching of the full publication.
    assert 0.75 < nasa[12].cloud < 1.0  # ~877 ms
    assert 0.72 < gowalla[12].cloud < 0.95  # ~837 ms


def test_fig13_real_merge_job(benchmark):
    """Benchmark the real merger merge (Gowalla-sized index, 626 leaves)."""
    domain = gowalla_domain()
    rng = random.Random(3)
    shape = IndexTree(domain, fanout=16)
    plan = draw_noise_plan(shape, 1.0, rng=rng)
    counts = [rng.randrange(2000) for _ in range(domain.num_leaves)]

    def merge():
        return merge_plan_and_counts(domain, plan, counts, fanout=16)

    merged = benchmark(merge)
    assert merged.root.count > 0
