"""The benchmark master key."""

#: Master key every benchmark deployment derives its cipher from — a
#: fixed benchmark constant so fingerprints are reproducible across runs.
MASTER_KEY = b"fresque-bench-master-key-32bytes"  # fresque-lint: disable=FRQ-X202 -- reproducible benchmark key, not a production secret
