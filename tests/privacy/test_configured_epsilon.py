"""Every noise plan is drawn at the configured budget.

The published index is ε-DP only if each publication's noise is drawn
at the ε the deployment is configured with (and the accountant charges,
Sections 5–6).  :func:`~repro.index.perturb.draw_noise_plan` has four
callers; each is driven here at a budget other than 1.0 — the value a
hard-coded literal would most likely carry, and the one most fixtures
configure — and every plan it draws must carry that budget.
"""

import dataclasses
import random

import pytest

from repro.cloud.node import FresqueCloud, MatchingTableCloud
from repro.core import dispatcher
from repro.core.system import FresqueSystem
from repro.durability import system as durable
from repro.durability.system import DurableFresqueSystem
from repro.index import template
from repro.pinedrq import collector as pinedrq
from repro.pinedrq.collector import PinedRqCollector
from repro.pinedrqpp.collector import PinedRqPPCollector

CONFIGURED = 0.37


@pytest.fixture
def config(flu_config):
    return dataclasses.replace(flu_config, epsilon=CONFIGURED)


def _drive_dispatcher(config, cipher, generator, tmp_path):
    system = FresqueSystem(config, cipher, seed=3)
    system.start()
    system.run_publication(list(generator.raw_lines(300)))


def _drive_durable(config, cipher, generator, tmp_path):
    system = DurableFresqueSystem(config, cipher, tmp_path, seed=3)
    system.start()
    try:
        system.run_publication(list(generator.raw_lines(300)))
    finally:
        system.close()


def _drive_template(config, cipher, generator, tmp_path):
    collector = PinedRqPPCollector(
        config.schema,
        config.domain,
        cipher,
        epsilon=config.epsilon,
        rng=random.Random(3),
    )
    collector.start_publication(MatchingTableCloud(config.domain))


def _drive_pinedrq(config, cipher, generator, tmp_path):
    collector = PinedRqCollector(
        config.schema,
        config.domain,
        cipher,
        epsilon=config.epsilon,
        rng=random.Random(3),
    )
    for record in generator.records(300):
        collector.ingest(record)
    collector.publish(FresqueCloud(config.domain))


SITES = {
    "Dispatcher.start_publication": (dispatcher, _drive_dispatcher),
    "DurableFresqueSystem._open_publication": (durable, _drive_durable),
    "IndexTemplate": (template, _drive_template),
    "PinedRqCollector.publish": (pinedrq, _drive_pinedrq),
}


@pytest.mark.parametrize("site", SITES)
def test_every_plan_is_drawn_at_the_configured_epsilon(
    site, config, fast_cipher, flu_generator, tmp_path, monkeypatch
):
    module, drive = SITES[site]
    drawn = []
    real = module.draw_noise_plan

    def recording(tree, epsilon, rng=None):
        plan = real(tree, epsilon, rng=rng)
        drawn.append(plan.epsilon)
        return plan

    monkeypatch.setattr(module, "draw_noise_plan", recording)
    drive(config, fast_cipher, flu_generator, tmp_path)
    assert drawn, f"{site} drew no noise plan"
    assert drawn == [pytest.approx(CONFIGURED)] * len(drawn)
