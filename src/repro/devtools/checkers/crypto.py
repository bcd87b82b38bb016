"""Crypto-misuse checkers (FRQ-X2xx).

FRESQUE publishes *every* record encrypted; the security argument
(paper Section 3.2, one-way trapdoor per publication) collapses under
classic implementation mistakes that functional tests cannot see:

* ``FRQ-X201`` — ECB mode or a constant IV/nonce (also a literal nonce or
  batch of nonces handed to ``encrypt_seeded`` / ``encrypt_batch_seeded``,
  which the merger's one-batch padding goes through): equal plaintexts yield
  equal ciphertexts, so the cloud can cluster records by value and
  reconstruct the index distribution the dummies exist to hide;
* ``FRQ-X202`` — a hard-coded key/secret literal in library code;
* ``FRQ-X203`` — comparing digests/MACs with ``==`` instead of
  ``hmac.compare_digest`` (timing side channel on tag verification);
* ``FRQ-X204`` — the non-CSPRNG ``random`` module inside ``crypto/``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from repro.devtools.astutil import call_name, dotted_name
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import Checker, ModuleInfo, register

_KEY_NAME_RE = re.compile(
    r"(^|_)(key|secret|password|passphrase|token)s?$", re.IGNORECASE
)
#: Key-ish names that are sizes/labels, not material.
_KEY_NAME_ALLOW_RE = re.compile(
    r"(size|len|length|bytes|bits|name|id|index|type)", re.IGNORECASE
)
_DIGEST_METHODS = {"digest", "hexdigest"}
_TAG_NAME_RE = re.compile(r"(^|_)(tag|mac|digest|hmac)s?$", re.IGNORECASE)


def _last_segment(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def _is_key_name(name: str | None) -> bool:
    if name is None:
        return False
    segment = _last_segment(name)
    return bool(_KEY_NAME_RE.search(segment)) and not _KEY_NAME_ALLOW_RE.search(
        segment
    )


def _is_secret_literal(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (str, bytes))
        and len(node.value) >= 8
    )


#: Seeded-IV entry points; the nonce (or batch of nonces) is argument 1.
_SEEDED_METHODS = frozenset({"encrypt_seeded", "encrypt_batch_seeded"})


def _is_constant_nonce(node: ast.expr) -> bool:
    """A literal nonce, or a batch of them that names no per-message
    identity: ``[b"n", ...]``, ``[b"n"] * count``, ``[b"n" for _ in ...]``."""
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, (ast.List, ast.Tuple)):
        return bool(node.elts) and all(
            isinstance(element, ast.Constant) for element in node.elts
        )
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _is_constant_nonce(node.left) or _is_constant_nonce(node.right)
    if isinstance(node, ast.ListComp):
        return isinstance(node.elt, ast.Constant)
    return False


def _digest_call(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _DIGEST_METHODS
    )


@register
class CryptoChecker(Checker):
    """Classic crypto-implementation mistakes."""

    name = "crypto"
    codes = {
        "FRQ-X201": "ECB mode or constant IV/nonce (deterministic encryption)",
        "FRQ-X202": "hard-coded key or secret literal",
        "FRQ-X203": "digest/MAC compared with == (use hmac.compare_digest)",
        "FRQ-X204": "non-CSPRNG random module used in crypto code",
    }

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        yield from self._check_modes_and_ivs(module)
        yield from self._check_hardcoded_keys(module)
        yield from self._check_digest_compares(module)
        if module.in_package("crypto"):
            yield from self._check_weak_random(module)

    # -- FRQ-X201 ----------------------------------------------------------

    def _check_modes_and_ivs(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Attribute) and node.attr == "MODE_ECB":
                yield self.diagnostic(
                    module,
                    node,
                    "FRQ-X201",
                    "ECB mode leaks plaintext equality — identical records "
                    "produce identical ciphertexts",
                )
            if isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if keyword.arg in (
                        "iv", "nonce", "nonces"
                    ) and _is_constant_nonce(keyword.value):
                        yield self.diagnostic(
                            module,
                            keyword.value,
                            "FRQ-X201",
                            f"constant {keyword.arg}= makes encryption "
                            f"deterministic; derive a fresh one per message",
                        )
                name = call_name(node)
                if (
                    name is not None
                    and _last_segment(name) in _SEEDED_METHODS
                    and len(node.args) >= 2
                    and _is_constant_nonce(node.args[1])
                ):
                    yield self.diagnostic(
                        module,
                        node.args[1],
                        "FRQ-X201",
                        "constant nonce to a seeded encryption: every "
                        "message must get its own (record_nonce / "
                        "padding_nonce of its pipeline-wide identity)",
                    )
                if (
                    name is not None
                    and _last_segment(name).endswith("cbc_encrypt")
                    and len(node.args) >= 3
                    and isinstance(node.args[2], ast.Constant)
                ):
                    yield self.diagnostic(
                        module,
                        node.args[2],
                        "FRQ-X201",
                        "literal IV passed to CBC encryption — IV must be "
                        "fresh and unpredictable per message",
                    )

    # -- FRQ-X202 ----------------------------------------------------------

    def _check_hardcoded_keys(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if _is_key_name(dotted_name(target)) and _is_secret_literal(
                        node.value
                    ):
                        yield self.diagnostic(
                            module,
                            node,
                            "FRQ-X202",
                            f"{dotted_name(target)} is assigned a literal "
                            f"secret — load key material from the keystore "
                            f"or environment",
                        )
            elif isinstance(node, ast.Call):
                for keyword in node.keywords:
                    if (
                        keyword.arg is not None
                        and _is_key_name(keyword.arg)
                        and _is_secret_literal(keyword.value)
                    ):
                        yield self.diagnostic(
                            module,
                            keyword.value,
                            "FRQ-X202",
                            f"literal secret passed as {keyword.arg}= — load "
                            f"key material from the keystore or environment",
                        )

    # -- FRQ-X203 ----------------------------------------------------------

    def _check_digest_compares(
        self, module: ModuleInfo
    ) -> Iterator[Diagnostic]:
        in_crypto = module.in_package("crypto")
        for function in self._functions(module):
            digest_names = self._names_assigned_digests(function)
            for node in ast.walk(function):
                if not isinstance(node, ast.Compare):
                    continue
                if not any(
                    isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
                ):
                    continue
                operands = [node.left, *node.comparators]
                if any(self._is_digest_operand(
                    operand, digest_names, in_crypto
                ) for operand in operands):
                    yield self.diagnostic(
                        module,
                        node,
                        "FRQ-X203",
                        "digest/MAC compared with == — short-circuit "
                        "comparison leaks a timing oracle; use "
                        "hmac.compare_digest",
                    )

    @staticmethod
    def _functions(module: ModuleInfo):
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    @staticmethod
    def _names_assigned_digests(function: ast.AST) -> set[str]:
        names: set[str] = set()
        for node in ast.walk(function):
            if isinstance(node, ast.Assign) and _digest_call(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    @staticmethod
    def _is_digest_operand(
        node: ast.expr, digest_names: set[str], in_crypto: bool
    ) -> bool:
        if _digest_call(node):
            return True
        name = dotted_name(node)
        if name is None:
            return False
        if name in digest_names:
            return True
        return in_crypto and bool(_TAG_NAME_RE.search(_last_segment(name)))

    # -- FRQ-X204 ----------------------------------------------------------

    def _check_weak_random(self, module: ModuleInfo) -> Iterator[Diagnostic]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random":
                        yield self.diagnostic(
                            module,
                            node,
                            "FRQ-X204",
                            "the random module is a Mersenne Twister, not a "
                            "CSPRNG — use secrets or os.urandom for IVs and "
                            "key material",
                        )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                yield self.diagnostic(
                    module,
                    node,
                    "FRQ-X204",
                    "the random module is a Mersenne Twister, not a CSPRNG — "
                    "use secrets or os.urandom for IVs and key material",
                )
