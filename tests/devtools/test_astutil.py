"""Edge cases for the shared AST helpers."""

import ast
import textwrap

from repro.devtools.astutil import (
    call_name,
    dotted_name,
    iter_functions,
    keyword_arg,
    self_attr,
)


def parse(source: str) -> ast.Module:
    return ast.parse(textwrap.dedent(source))


def first_expr(source: str) -> ast.expr:
    return parse(source).body[0].value


def test_dotted_name_on_chains_and_computed_bases():
    assert dotted_name(first_expr("a.b.c")) == "a.b.c"
    assert dotted_name(first_expr("a")) == "a"
    assert dotted_name(first_expr("a[0].b")) is None
    assert dotted_name(first_expr("f().b")) is None


def test_call_name_on_lambda_and_subscript_callees():
    assert call_name(first_expr("(lambda x: x)(1)")) is None
    assert call_name(first_expr("handlers[0](1)")) is None
    assert call_name(first_expr("mod.sub.f(1)")) == "mod.sub.f"


def test_self_attr_only_matches_self():
    assert self_attr(first_expr("self.lock")) == "lock"
    assert self_attr(first_expr("other.lock")) is None
    assert self_attr(first_expr("self.a.b")) is None


def test_keyword_arg_lookup():
    call = first_expr("f(1, epsilon=0.5)")
    assert isinstance(keyword_arg(call, "epsilon"), ast.Constant)
    assert keyword_arg(call, "rng") is None


def test_iter_functions_finds_async_and_decorated_methods():
    tree = parse(
        """
        class Node:
            @property
            def size(self):
                return 1

            @staticmethod
            def area(w, h):
                return w * h

            async def pump(self):
                pass

        async def main():
            def inner():
                pass
        """
    )
    names = sorted(fn.name for fn in iter_functions(tree))
    assert names == ["area", "inner", "main", "pump", "size"]


def test_iter_functions_skips_lambdas():
    tree = parse("f = lambda x: (lambda y: y)(x)")
    assert list(iter_functions(tree)) == []
