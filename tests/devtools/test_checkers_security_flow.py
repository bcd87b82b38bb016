"""FRQ-S9xx: whole-program plaintext and key-material flow."""

from tests.devtools.conftest import codes_of, lint_files


def test_s901_plaintext_across_a_function_boundary(lint_project):
    diagnostics = lint_project(
        {
            "src/repro/core/pipeline.py": """
            def ingest(line, sock):
                record = parse_raw_line(line)
                ship(record, sock)

            def ship(record, sock):
                sock.sendall(record)
            """
        }
    )
    assert codes_of(diagnostics) == ["FRQ-S901"]
    assert "ship()" in diagnostics[0].message


def test_s901_plaintext_to_cloud_storage_across_modules(lint_project):
    diagnostics = lint_project(
        {
            "src/repro/records/make.py": """
            def parse_raw_line(line):
                pass
            """,
            "src/repro/core/send.py": """
            from repro.records.make import parse_raw_line

            def publish(line, cloud):
                cloud.receive_pair(0, 0, parse_raw_line(line))
            """,
        }
    )
    assert codes_of(diagnostics) == ["FRQ-S901"]


def test_s901_plaintext_to_the_bulk_store_write(lint_project):
    """The cloud's one storage entry point is ``store.write_batch``."""
    diagnostics = lint_project(
        {
            "src/repro/cloud/node.py": """
            def receive_pairs(store, publication, lines):
                records = [parse_raw_line(line) for line in lines]
                store.write_batch(publication, records)
            """
        }
    )
    assert codes_of(diagnostics) == ["FRQ-S901"]


def test_s901_encrypted_flow_is_clean(lint_project):
    diagnostics = lint_project(
        {
            "src/repro/core/pipeline.py": """
            def ingest(line, sock, cipher):
                record = parse_raw_line(line)
                ship(cipher.encrypt(record), sock)

            def ship(payload, sock):
                sock.sendall(payload)
            """
        }
    )
    assert diagnostics == []


def test_s901_leaf_offset_is_declassified(lint_project):
    diagnostics = lint_project(
        {
            "src/repro/core/pipeline.py": """
            def ingest(line, domain, cloud, cipher):
                record = parse_raw_line(line)
                offset = domain.leaf_offset(record)
                cloud.receive_pair(offset, cipher.encrypt(record))
            """
        }
    )
    assert diagnostics == []


def test_s901_struct_field_precision(lint_project):
    diagnostics = lint_project(
        {
            "src/repro/core/pipeline.py": """
            class RemovedRecord:
                def __init__(self, publication, leaf_offset, encrypted):
                    self.publication = publication
                    self.leaf_offset = leaf_offset
                    self.encrypted = encrypted

            def publish(line, cloud, cipher):
                record = parse_raw_line(line)
                pair = RemovedRecord(1, 3, cipher.encrypt(record))
                cloud.receive_pair(pair)
            """
        }
    )
    assert diagnostics == []


def test_s901_telemetry_annotation_of_plaintext_fires(lint_project):
    diagnostics = lint_project(
        {
            "src/repro/core/pipeline.py": """
            def ingest(line, span):
                record = parse_raw_line(line)
                span.annotate(record)
            """
        }
    )
    assert codes_of(diagnostics) == ["FRQ-S901"]


def test_s902_derived_key_on_the_wire(lint_project):
    diagnostics = lint_project(
        {
            "src/repro/core/handshake.py": """
            def exchange(keystore, sock):
                key = keystore.derive(b"query")
                sock.send(key)
            """
        }
    )
    assert codes_of(diagnostics) == ["FRQ-S902"]


def test_s902_key_crossing_a_helper_fires(lint_project):
    diagnostics = lint_project(
        {
            "src/repro/core/handshake.py": """
            def exchange(keystore, sock):
                push(keystore.record_key(7), sock)

            def push(material, sock):
                sock.sendall(material)
            """
        }
    )
    assert codes_of(diagnostics) == ["FRQ-S902"]


def test_s902_ciphertext_made_with_a_key_is_clean(lint_project):
    diagnostics = lint_project(
        {
            "src/repro/core/handshake.py": """
            def exchange(keystore, cipher, payload, sock):
                key = keystore.derive(b"query")
                sock.send(cipher.encrypt(payload, key))
            """
        }
    )
    assert diagnostics == []


def test_inline_suppression_is_honored(lint_project):
    diagnostics = lint_files(
        {
            "src/repro/core/pipeline.py": """
            def ingest(line, sock):
                record = parse_raw_line(line)
                # fresque-lint: disable=FRQ-S901 -- test harness loopback socket
                sock.sendall(record)
            """
        }
    )
    assert diagnostics == []
