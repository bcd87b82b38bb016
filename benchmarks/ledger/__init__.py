"""The repo's one benchmark: six workloads, end-to-end metrics, and a
per-layer cost ledger that reconciles with them (see README.md)."""
