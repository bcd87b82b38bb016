"""Security dataflow checkers (FRQ-S9xx) — whole-program.

FRESQUE's security model (paper Section 3.2) is a *reachability* claim:
no plaintext record and no key material ever reaches the cloud, the
wire, durable cloud storage, or a telemetry channel — only AES-CBC
ciphertexts (plus the deliberately-cleartext leaf offsets) do.  The
per-module crypto checkers (FRQ-X2xx) pin local hygiene; these two
rules pin the end-to-end flow, following values through assignments,
message dataclasses, helper calls and returns via the
:mod:`repro.devtools.dataflow` engine:

* ``FRQ-S901`` — a plaintext :class:`~repro.records.record.Record`
  value (parsed, decrypted, serialized or dummy-generated) reaches a
  wire/storage/telemetry sink without passing through an ``encrypt*``
  sanitizer — including across any number of function boundaries;
* ``FRQ-S902`` — :class:`~repro.crypto.keys.KeyStore` key material (a
  derived subkey or the master key) reaches any of the same sinks.

``.leaf_offset(...)`` results are declassified: the paper ships
``<leaf offset, e-record>`` pairs with the offset in the clear by
design (Section 5.1(a)).
"""

from __future__ import annotations

import re
from typing import Iterable

from repro.devtools.callgraph import CallGraph, Project
from repro.devtools.dataflow import SinkSpec, TaintEngine, TaintSpec
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import ProjectChecker, register

#: Receivers that are a transport socket.
_SOCKET_RE = re.compile(
    r"(sock|socket|conn|connection|server|client|peer)", re.IGNORECASE
)

#: Receivers that are the cloud or its durable storage.  ``bucket`` is
#: deliberately absent: in this repo a *bucket* is a local per-leaf
#: histogram list, never a storage service.
_CLOUD_RE = re.compile(r"(cloud|store|storage|blob)", re.IGNORECASE)

#: Receivers that are a telemetry channel.
_TELEMETRY_RE = re.compile(
    r"(telemetry|_tel\b|tel$|span|tracer|exporter|metric|counter|gauge|"
    r"histogram)",
    re.IGNORECASE,
)

_SINKS = (
    SinkSpec(
        description="a socket send",
        methods=frozenset({"send", "sendall", "sendto"}),
        receiver_re=_SOCKET_RE,
    ),
    SinkSpec(
        description="cloud storage",
        methods=frozenset(
            {
                "write", "write_batch", "put", "upload", "insert",
                "receive_pair", "receive_pairs", "receive_tagged",
            }
        ),
        receiver_re=_CLOUD_RE,
    ),
    SinkSpec(
        description="a telemetry channel",
        methods=frozenset(
            {"annotate", "observe", "record", "emit", "export", "log", "set"}
        ),
        receiver_re=_TELEMETRY_RE,
    ),
)

#: Declassifiers: encryption, plus the protocol's deliberate leaks.
_SANITIZERS = ("encrypt", "cbc_encrypt", "leaf_offset")

PLAINTEXT_SPEC = TaintSpec(
    label="plaintext",
    source_calls=frozenset(
        {
            "parse_raw_line",
            "serialize_record",
            "make_dummy",
            "Record",
            ".decrypt",
            ".decrypt_batch",
            ".decrypt_record",
        }
    ),
    source_param_annotations=frozenset({"Record", "RawBatch"}),
    sinks=_SINKS,
    sanitizers=_SANITIZERS,
)

KEY_MATERIAL_SPEC = TaintSpec(
    label="key material",
    source_calls=frozenset({".derive", ".record_key", ".fresh_key"}),
    source_attrs=frozenset({"_master_key"}),
    sinks=_SINKS,
    # Encrypting *with* a key is fine; the ciphertext is clean.  There
    # is no declassifier for the key itself.
    sanitizers=("encrypt", "cbc_encrypt"),
)


def _render_trace(trace: tuple[str, ...]) -> str:
    return f" via {' -> '.join(trace)}" if trace else ""


@register
class SecurityFlowChecker(ProjectChecker):
    """Plaintext and key material must never reach an untrusted sink."""

    name = "security-dataflow"
    codes = {
        "FRQ-S901": (
            "plaintext record data reaches a wire/storage/telemetry sink "
            "without encryption"
        ),
        "FRQ-S902": (
            "key material reaches a wire/storage/telemetry sink"
        ),
    }

    def check_project(self, project: Project) -> Iterable[Diagnostic]:
        graph = CallGraph(project)
        for code, spec, what in (
            ("FRQ-S901", PLAINTEXT_SPEC, "plaintext record data"),
            ("FRQ-S902", KEY_MATERIAL_SPEC, "key material"),
        ):
            engine = TaintEngine(project, graph, spec)
            engine.run()
            for hit in engine.hits:
                yield self.diagnostic(
                    hit.module,
                    hit.node,
                    code,
                    f"{what} reaches {hit.sink}"
                    f"{_render_trace(hit.trace)} without passing through "
                    f"an encrypt* sanitizer — the cloud-facing channel "
                    f"must only ever carry ciphertext",
                )
