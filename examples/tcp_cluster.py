#!/usr/bin/env python3
"""FRESQUE over real TCP sockets.

Boots the collector as a set of socket servers on the loopback interface —
computing nodes, checking node, merger and cloud each listen on their own
port and exchange the wire-encoded protocol frames the paper's cluster
exchanged over TCP (Section 7.1).  Nothing is shared between nodes except
bytes on sockets.

Run:  python examples/tcp_cluster.py
"""

import time

from repro.core import FresqueConfig
from repro.crypto import KeyStore, SimulatedCipher
from repro.datasets import FluSurveyGenerator
from repro.runtime import TcpFresqueCluster


def main() -> None:
    generator = FluSurveyGenerator(seed=33)
    config = FresqueConfig(
        schema=generator.schema,
        domain=generator.domain,
        num_computing_nodes=3,
    )
    cipher = SimulatedCipher(KeyStore(b"tcp-cluster-demo-master-key-32b!"))
    with TcpFresqueCluster(config, cipher, seed=11) as cluster:
        print("node address book:")
        for node in cluster._servers.values():
            print(f"  {node.name:<10} 127.0.0.1:{node.port}")
        lines = list(generator.raw_lines(3000))
        started = time.perf_counter()
        matched = cluster.run_publication(lines).published_pairs
        elapsed = time.perf_counter() - started
        print(
            f"\npublished {matched} pairs over TCP in {elapsed:.2f}s "
            f"({len(lines) / elapsed:,.0f} records/s wall)"
        )
        result = cluster.make_client().range_query(380, 420)
        print(f"fever query -> {len(result.records)} records")
        frames = sum(node.handled for node in cluster._servers.values())
        print(f"total frames handled across nodes: {frames}")


if __name__ == "__main__":
    main()
