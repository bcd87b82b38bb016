"""Role construction.

:mod:`repro.runtime.roles` is the one place worker processes rebuild
their components from a JSON spec; the shared-memory runtime's workers
route through it, so what each role's handler accepts is pinned here
without spawning any processes.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.computing_node import ComputingNode
from repro.core.checking import CheckingNode
from repro.core.config import FresqueConfig
from repro.core.merger import Merger
from repro.core.messages import (
    AlSnapshot,
    CnPublishing,
    DoneMsg,
    PublishingMsg,
    RawBatch,
)
from repro.crypto.cipher import SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.datasets.flu import FluSurveyGenerator, flu_domain
from repro.records.schema import flu_survey_schema
from repro.runtime.roles import (
    build_handler,
    cipher_from_spec,
    config_from_spec,
    spec_from_config,
)

_KEY = b"fresque-test-master-key-32bytes!"


@pytest.fixture
def config() -> FresqueConfig:
    return FresqueConfig(
        schema=flu_survey_schema(),
        domain=flu_domain(),
        num_computing_nodes=2,
        epsilon=1.0,
        alpha=2.0,
        batch_size=4,
    )


def _cipher() -> SimulatedCipher:
    return SimulatedCipher(KeyStore(_KEY, key_size=16))


class TestSpecRoundtrip:
    def test_config_survives_the_spec(self, config):
        spec = spec_from_config(config, _KEY)
        rebuilt = config_from_spec(spec)
        assert rebuilt.schema.name == config.schema.name
        assert rebuilt.domain.num_leaves == config.domain.num_leaves
        assert rebuilt.num_computing_nodes == config.num_computing_nodes
        assert rebuilt.batch_size == config.batch_size
        assert rebuilt.deterministic_ivs == config.deterministic_ivs

    def test_deterministic_ivs_flag_rides_along(self, config):
        spec = spec_from_config(config, _KEY)
        spec["deterministic_ivs"] = True
        assert config_from_spec(spec).deterministic_ivs is True

    def test_unknown_schema_rejected(self, config):
        spec = spec_from_config(config, _KEY)
        spec["schema"] = "no-such-schema"
        with pytest.raises(ValueError, match="unknown schema"):
            config_from_spec(spec)

    def test_cipher_rebuilds_from_key_hex(self, config):
        spec = spec_from_config(config, _KEY)
        cipher = cipher_from_spec(spec)
        plaintext = b"sixteen byte msg"
        assert _cipher().decrypt(cipher.encrypt(plaintext)) == plaintext

    def test_cipher_counter_start_partitions_ivs(self, config):
        spec = spec_from_config(config, _KEY)
        low = cipher_from_spec(spec).encrypt(b"sixteen byte msg")
        high = cipher_from_spec(spec, counter_start=1 << 44).encrypt(
            b"sixteen byte msg"
        )
        assert low != high  # disjoint counter ranges → different IVs

    def test_every_config_field_survives_the_spec(self):
        """Drift guard: a field added to FresqueConfig but forgotten in
        the spec would silently fall back to its default in every worker
        process (the credit_window bug).  Build a config where *every*
        scalar field is non-default and demand an exact round trip."""
        overrides = {
            "epsilon": 0.7,
            "alpha": 3.5,
            "delta": 0.42,
            "delta_prime": 0.7,
            "publish_interval": 12.5,
            "max_batch_delay": 0.125,
            "shed_policy": "drop-oldest",
        }
        values: dict[str, object] = {}
        for field in dataclasses.fields(FresqueConfig):
            if not field.init or field.name in ("schema", "domain"):
                continue
            if field.name in overrides:
                value = overrides[field.name]
            elif field.type == "bool":
                value = not field.default
            elif field.type == "int":
                value = field.default + 3
            else:  # a new float/str field: update `overrides` above
                value = field.default + 0.25
            assert value != field.default, field.name
            values[field.name] = value
        config = FresqueConfig(
            schema=flu_survey_schema(), domain=flu_domain(), **values
        )
        rebuilt = config_from_spec(spec_from_config(config, _KEY))
        for name, value in values.items():
            assert getattr(rebuilt, name) == value, (
                f"{name} did not survive spec_from_config/config_from_spec"
            )


class TestBuildHandler:
    def test_cn_role_dispatch(self, config):
        handle, node = build_handler("cn-1", config, _cipher(), {})
        assert isinstance(node, ComputingNode) and node.node_id == 1
        line = next(iter(FluSurveyGenerator(seed=3).raw_lines(1)))
        out = handle(RawBatch(0, (line,), seq=0, ordinal=0))
        (destination, batch), = out
        assert destination == "checking"
        assert batch.seq == 0 and len(batch) == 1
        out = handle(PublishingMsg(0, last_seq=0))
        assert isinstance(out[0][1], CnPublishing)
        assert node.waiting_for_done
        handle(DoneMsg(0))
        assert not node.waiting_for_done
        with pytest.raises(TypeError):
            handle(AlSnapshot(0, ()))

    def test_checking_role_dispatch(self, config):
        handle, node = build_handler("checking", config, _cipher(), {})
        assert isinstance(node, CheckingNode)
        assert handle(CnPublishing(0, node_id=0)) == []
        with pytest.raises(TypeError):
            handle(RawBatch(0, ("x",)))

    def test_checking_seed_controls_the_randomer(self, config):
        _, a = build_handler("checking", config, _cipher(), {"checking": 1.5})
        _, b = build_handler("checking", config, _cipher(), {"checking": 1.5})
        _, c = build_handler("checking", config, _cipher(), {"checking": 2.5})
        draws = lambda node: [node._rng.random() for _ in range(4)]
        assert draws(a) == draws(b) != draws(c)

    def test_merger_role_dispatch(self, config):
        import random

        from repro.core.messages import TemplateMsg
        from repro.index.perturb import draw_noise_plan
        from repro.index.tree import IndexTree

        handle, node = build_handler("merger", config, _cipher(), {})
        assert isinstance(node, Merger)
        plan = draw_noise_plan(
            IndexTree(config.domain, fanout=config.fanout),
            config.epsilon,
            rng=random.Random(1),
        )
        assert handle(TemplateMsg(0, plan)) == []
        out = handle(AlSnapshot(0, (0,) * config.domain.num_leaves))
        assert out and out[0][0] == "cloud"
        with pytest.raises(TypeError):
            handle(DoneMsg(0))

    def test_cloud_role_dispatch(self, config):
        from repro.cloud.node import FresqueCloud
        from repro.core.messages import AnnouncePublication
        from repro.core.system import CloudAdapter

        handle, (cloud, adapter) = build_handler(
            "cloud", config, _cipher(), {}
        )
        assert isinstance(cloud, FresqueCloud)
        assert isinstance(adapter, CloudAdapter)
        handle(AnnouncePublication(0))
        with pytest.raises(TypeError):
            handle(DoneMsg(0))

    def test_unknown_role_rejected(self, config):
        with pytest.raises(ValueError, match="unknown role"):
            build_handler("accountant", config, _cipher(), {})
