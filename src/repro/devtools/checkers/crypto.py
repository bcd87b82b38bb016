"""Crypto-misuse checkers (FRQ-X2xx).

FRESQUE publishes *every* record encrypted; the security argument
(paper Section 3.2, one-way trapdoor per publication) collapses under
classic implementation mistakes that functional tests cannot see:

* ``FRQ-X202`` — a hard-coded key/secret literal in library code;
* ``FRQ-X203`` — comparing digests/MACs with ``==`` instead of
  ``hmac.compare_digest`` (timing side channel on tag verification);
* ``FRQ-X204`` — the non-CSPRNG ``random`` module inside ``crypto/``.

(That encryption is probabilistic — fresh IVs, per-message nonces — is
observable, so it is tested: ``tests/crypto/test_cipher.py`` and the
seeded byte pins in ``tests/integration/test_parent_identity.py``.)
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
        "FRQ-X202": "hard-coded key or secret literal",
        "FRQ-X203": "digest/MAC compared with == (use hmac.compare_digest)",
        "FRQ-X204": "non-CSPRNG random module used in crypto code",
    }

    def check(self, module: ModuleInfo) -> Iterable[Diagnostic]:
        yield from self._check_hardcoded_keys(module)
        yield from self._check_digest_compares(module)
        if module.in_package("crypto"):
            yield from self._check_weak_random(module)

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
