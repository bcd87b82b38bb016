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


def assigned_names(target: ast.expr):
    """Every plain name bound by an assignment target.

    Handles tuple/list destructuring and ``*rest`` starred targets;
    attribute and subscript targets yield nothing (they bind no local
    name).  Walrus targets are plain ``ast.Name`` nodes, so
    ``assigned_names(node.target)`` covers ``ast.NamedExpr`` too.
    """
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, ast.Starred):
        yield from assigned_names(target.value)
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from assigned_names(element)


def annotation_names(annotation: ast.expr | None) -> frozenset[str]:
    """Type names mentioned in an annotation expression.

    ``Record | None``, ``Optional[Record]``, ``list[Record]`` and string
    annotations (``"Record"``) all yield ``{"Record", ...}``; dotted
    names contribute their final attribute (``records.Record`` →
    ``Record``).
    """
    if annotation is None:
        return frozenset()
    if isinstance(annotation, ast.Constant) and isinstance(
        annotation.value, str
    ):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return frozenset()
    names: set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return frozenset(names)


def function_params(
    function: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[ast.arg]:
    """Named parameters of a function, in call-mapping order.

    Positional-only then positional-or-keyword then keyword-only;
    ``*args``/``**kwargs`` catch-alls are excluded (nothing flows
    through them name-wise).
    """
    args = function.args
    return [*args.posonlyargs, *args.args, *args.kwonlyargs]
