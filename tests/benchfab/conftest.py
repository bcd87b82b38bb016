"""Synthetic artifacts: tier-1 never reads a committed wall-clock number."""

from __future__ import annotations

import pytest

from repro.benchfab.scenarios import run_bench
from repro.benchfab.scorecard import Scorecard


@pytest.fixture
def batching_artifact(tmp_path):
    """Write a native ``batching`` scorecard whose throughputs are the
    given records/s over batch sizes 1/8/64/256; returns its path.

    Goes through ``run_bench`` with a stub runner, so the artifact
    embeds the real bench's scenarios and rules.
    """

    def write(durable, memory=(30_000, 50_000, 70_000, 72_000)):
        rates = {
            (mode, batch): float(rate)
            for mode, series in (("durable", durable), ("memory", memory))
            for batch, rate in zip((1, 8, 64, 256), series)
        }

        def runner(scenario, *, data_root=None):
            rate = rates[(scenario.durability, scenario.batch_size)]
            return [
                Scorecard(
                    scenario=scenario.name,
                    key=scenario.axes(),
                    metrics={"throughput_rps": rate},
                )
            ]

        path, _ = run_bench("batching", out_dir=tmp_path, runner=runner)
        return path

    return write
