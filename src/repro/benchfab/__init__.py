"""Shared benchmark fixtures: named datasets, the benchmark master key
and the canonical cloud-state fingerprint.

:mod:`~repro.benchfab.datasets` maps a dataset name to its schema,
domain and seeded generator; :data:`~repro.benchfab.runner.MASTER_KEY`
is the fixed key every benchmark deployment derives its cipher from;
:mod:`~repro.benchfab.fingerprint` serialises a deployment's cloud
state for byte-identity checks.
"""
