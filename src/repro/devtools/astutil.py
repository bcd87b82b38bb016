"""Small AST helpers shared by the checker families."""

from __future__ import annotations

import ast


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` for Name/Attribute chains, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted_name(node.value)
        if base is None:
            return None
        return f"{base}.{node.attr}"
    return None


def call_name(call: ast.Call) -> str | None:
    """Dotted name of a call's callee (``None`` for computed callees)."""
    return dotted_name(call.func)


def self_attr(node: ast.AST) -> str | None:
    """Attribute name for ``self.X`` expressions, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def keyword_arg(call: ast.Call, name: str) -> ast.expr | None:
    """The value of keyword argument ``name``, if present."""
    for keyword in call.keywords:
        if keyword.arg == name:
            return keyword.value
    return None


def iter_functions(tree: ast.AST):
    """Every function/method definition in ``tree`` (including nested)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
