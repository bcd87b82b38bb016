"""Role construction for the multiprocess runtime.

The shared-memory :class:`~repro.runtime.shm.ShmFresqueCluster`
describes a deployment as a JSON-able *spec* (schema name, domain
bounds, node count, key, per-role seeds) that worker processes
reconstruct on their side of the process boundary.  This module owns
that reconstruction — spec → :class:`FresqueConfig`, spec → cipher,
role name → component and its handler.
"""

from __future__ import annotations

import dataclasses
import random

from repro.cloud.node import FresqueCloud
from repro.core.checking import CheckingNode
from repro.core.computing_node import ComputingNode
from repro.core.config import FresqueConfig
from repro.core.merger import Merger
from repro.core.system import CloudAdapter
from repro.crypto.cipher import RecordCipher, SimulatedCipher
from repro.crypto.keys import KeyStore
from repro.datasets.flu import flu_domain
from repro.index.domain import AttributeDomain, gowalla_domain, nasa_domain
from repro.records.schema import (
    Schema,
    flu_survey_schema,
    gowalla_schema,
    nasa_log_schema,
)

SCHEMAS = {
    "flu_survey": (flu_survey_schema, flu_domain),
    "gowalla": (gowalla_schema, gowalla_domain),
    "nasa_log": (nasa_log_schema, nasa_domain),
}


#: Scalar ``FresqueConfig`` fields carried verbatim in a cluster spec.
#: Derived from the dataclass itself so a new config field automatically
#: rides every spec — the drift the hardcoded field list used to allow
#: (schema/domain get structured entries; ``num_computing_nodes`` keeps
#: its legacy ``computing_nodes`` spec key).
_SCALAR_FIELDS: tuple[str, ...] = tuple(
    f.name
    for f in dataclasses.fields(FresqueConfig)
    if f.init and f.name not in ("schema", "domain", "num_computing_nodes")
)

#: Field → dataclass default, the single source of truth for spec
#: fallbacks (a spec written by an older parent simply omits the field).
_FIELD_DEFAULTS: dict[str, object] = {
    f.name: f.default
    for f in dataclasses.fields(FresqueConfig)
    if f.init and f.default is not dataclasses.MISSING
}


def spec_from_config(config: FresqueConfig, key: bytes) -> dict:
    """The JSON-able spec a worker needs to rebuild ``config``."""
    spec = {
        "schema": config.schema.name,
        "domain": {
            "dmin": config.domain.dmin,
            "dmax": config.domain.dmax,
            "bin": config.domain.bin_interval,
        },
        "computing_nodes": config.num_computing_nodes,
        "key_hex": key.hex(),
    }
    for name in _SCALAR_FIELDS:
        spec[name] = getattr(config, name)
    return spec


def config_from_spec(spec: dict) -> FresqueConfig:
    """Rebuild the deployment configuration from a cluster spec.

    Missing scalar fields fall back to the ``FresqueConfig`` dataclass
    defaults — never to values hardcoded here, which drifted once
    already (``max_batch_delay``).
    """
    schema_name = spec["schema"]
    if schema_name in SCHEMAS:
        schema_factory, domain_factory = SCHEMAS[schema_name]
        schema: Schema = schema_factory()
        domain = domain_factory()
    else:
        raise ValueError(f"unknown schema {schema_name!r}")
    if "domain" in spec:
        d = spec["domain"]
        domain = AttributeDomain(d["dmin"], d["dmax"], d["bin"])
    return FresqueConfig(
        schema=schema,
        domain=domain,
        num_computing_nodes=spec["computing_nodes"],
        **{
            name: spec.get(name, _FIELD_DEFAULTS[name])
            for name in _SCALAR_FIELDS
        },
    )


def cipher_from_spec(spec: dict, counter_start: int = 0) -> RecordCipher:
    """Rebuild the shared record cipher from a cluster spec.

    ``counter_start`` partitions the simulated cipher's IV-counter space
    between worker processes (each gets a disjoint range), so counter
    IVs stay unique across a deployment that no longer shares the
    counter lock.  Deterministic-IV deployments do not depend on it —
    their IVs derive from dispatch ordinals — but the offsets keep
    non-deterministic multiprocess runs safe too.
    """
    return SimulatedCipher(
        KeyStore(bytes.fromhex(spec["key_hex"])), counter_start=counter_start
    )


def build_handler(role: str, config, cipher, seeds: dict):
    """Instantiate the component for ``role`` and return (handler, extra).

    ``handler`` is the component's own ``handle`` — one inbound message
    to an outbox of ``(destination, message)`` pairs, the
    transport-agnostic contract every runtime drives; ``extra`` exposes
    the underlying component(s) for stats and control channels.
    ``seeds`` carries per-role RNG seeds (``random.Random`` accepts ints
    and floats alike; the shared-memory cluster passes the float chain
    the in-memory :class:`~repro.core.system.FresqueSystem` derives, for
    bytewise equivalence).
    """
    if role.startswith("cn-"):
        node = ComputingNode(int(role[3:]), config, cipher)
    elif role == "checking":
        node = CheckingNode(config, rng=random.Random(seeds.get(role)))
    elif role == "merger":
        node = Merger(config, cipher, rng=random.Random(seeds.get(role)))
    elif role == "cloud":
        cloud = FresqueCloud(config.domain)
        adapter = CloudAdapter(cloud)
        return adapter.handle, (cloud, adapter)
    else:
        raise ValueError(f"unknown role {role!r}")
    return node.handle, node
