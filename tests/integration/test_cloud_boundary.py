"""Cloud-boundary canary: the paper's security model (Section 3.2) is a
statement about what the untrusted cloud *receives*.  One TCP run, with
telemetry on, and a byte-level search of everything that leaves the
trusted collector — frames addressed to the cloud, what the cloud
stored, the telemetry export — for plaintext and key material."""

import json

from repro.core import FresqueConfig
from repro.crypto import KeyStore, SimulatedCipher
from repro.datasets import FluSurveyGenerator
from repro.index.query import RangeQuery
from repro.records.serialize import (
    DummyRecordSerializer,
    parse_raw_line,
    serialize_record,
)
from repro.runtime import tcp
from repro.telemetry import Telemetry
from repro.telemetry.exporters import write_jsonl


def test_nothing_secret_crosses_the_cloud_boundary(monkeypatch, tmp_path):
    generator = FluSurveyGenerator(seed=5)
    config = FresqueConfig(
        schema=generator.schema,
        domain=generator.domain,
        num_computing_nodes=2,
    )
    schema, domain = config.schema, config.domain
    keys = KeyStore(b"canary-master-key-32-bytes-long!")
    lines = list(generator.raw_lines(300))

    secrets = {keys._master_key, keys.record_key()}
    secrets.update(line.encode() for line in lines)
    secrets.update(json.dumps(line)[1:-1].encode() for line in lines)
    secrets.update(
        serialize_record(parse_raw_line(line, schema), schema)
        for line in lines
    )
    # Every dummy plaintext there is: the indexed value is the only
    # degree of freedom, and the flu domain has 81 of them.
    dummy = DummyRecordSerializer(schema)
    secrets.update(
        dummy.serialize_many(range(domain.dmin, domain.dmax + 1))
    )
    needles = secrets | {secret.hex().encode() for secret in secrets}

    cloud_frames = []
    append = tcp.append_frame

    def recording_append(out, destination, message):
        start = len(out)
        append(out, destination, message)
        if destination == "cloud":
            cloud_frames.append(bytes(out[start:]))

    monkeypatch.setattr(tcp, "append_frame", recording_append)
    telemetry = Telemetry()
    with tcp.TcpFresqueCluster(
        config, SimulatedCipher(keys), seed=3, telemetry=telemetry
    ) as cluster:
        assert cluster.run_publication(lines) >= len(lines)
        # The cloud's side of a query only — decrypting is the client's.
        answer = cluster.cloud.query(RangeQuery(360, 420)).ciphertexts()
        store = cluster.cloud.store
        stored = b"".join(
            record.ciphertext
            for file_id in store.file_ids()
            for _, record in store.scan(file_id)
        )
    exported = write_jsonl(tmp_path / "run.jsonl", telemetry).read_bytes()

    haystacks = {
        "frames sent to the cloud": b"".join(cloud_frames),
        "cloud store": stored,
        "query answer": b"".join(answer),
        "telemetry export": exported,
    }
    for where, haystack in haystacks.items():
        assert haystack, f"nothing captured for {where}"
        leaked = [needle for needle in needles if needle in haystack]
        assert not leaked, f"{where} carry {len(leaked)} secrets: {leaked[:3]}"
