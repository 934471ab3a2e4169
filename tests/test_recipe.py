import itertools
import re

import pytest

from snarkforge.errors import DomainError
from snarkforge.graph6 import encode_graph6
from snarkforge.coloring import count_colorings
from snarkforge.recipe import (
    evaluate_text,
    format_recipe,
    parse_recipe,
)


def test_leaf_recipes(P, J5):
    assert evaluate_text("(petersen)") == P
    assert evaluate_text("(flower 5)") == J5


def test_graph6_leaf(P):
    s = encode_graph6(P)
    assert evaluate_text(f"(graph6 {s})") == P


def test_join_recipes_build(P):
    g = evaluate_text("(pentagonjoin (petersen) p=0 (petersen) p=0)")
    assert (g.n, g.m) == (10, 15)
    g = evaluate_text("(superpose52 (petersen) e=0 (petersen) u=0 v=6)")
    assert (g.n, g.m) == (22, 33)
    g = evaluate_text("(dotproduct (petersen) e1=0 e2=7 (petersen) x=0 y=1)")
    assert (g.n, g.m) == (18, 27)
    assert count_colorings(g) == 0


def test_spec_style_example():
    g = evaluate_text("(superpose52 (petersen) e=7 (petersen) u=2 v=9)")
    assert g.n == 22


def test_nested_chain():
    text = "(superpose52 (petersen) e=0 (superpose52 (petersen) e=0 (petersen) u=0 v=6) u=17 v=20)"
    g = evaluate_text(text)
    assert g.n == 34


def test_determinism(P):
    text = "(pentagonjoin (flower 5) p=0 (petersen) p=3 rot=2)"
    assert evaluate_text(text) == evaluate_text(text)
    assert encode_graph6(evaluate_text(text)) == encode_graph6(evaluate_text(text))


def _key_orders(text: str):
    """Every spelling of ``text`` that permutes the key=value tokens
    within each node, sub-recipes and bare words kept in place."""
    tokens = re.findall(r"[()]|[^\s()]+", text)
    # the token positions of each node's keys
    nodes, stack = [], []
    for i, tok in enumerate(tokens):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            nodes.append(stack.pop())
        elif "=" in tok:
            stack[-1].append(i)
    for orders in itertools.product(
        *(itertools.permutations(slots) for slots in nodes)
    ):
        spelled = list(tokens)
        for slots, order in zip(nodes, orders):
            for at, source in zip(slots, order):
                spelled[at] = tokens[source]
        yield " ".join(spelled)


def test_format_round_trip():
    cases = [
        "(petersen)",
        "(flower 7)",
        "(pentagonjoin (petersen) p=0 (flower 5) p=0 rot=3)",
        "(superpose52 (petersen) e=0 (petersen) u=0 v=6)",
        "(dotproduct (petersen) e1=0 e2=7 (petersen) x=0 y=1 wiring=crossed)",
        "(superpose52 (petersen) e=0 (superpose52 (petersen) e=0 (petersen) u=0 v=6) u=17 v=20)",
    ]
    for text in cases:
        canonical = format_recipe(parse_recipe(text))
        assert format_recipe(parse_recipe(canonical)) == canonical
        g = evaluate_text(canonical)
        assert g == evaluate_text(text)
        for spelled in _key_orders(text):
            assert format_recipe(parse_recipe(spelled)) == canonical, spelled
            assert evaluate_text(spelled) == g, spelled


def test_pentagonjoin_keys_bind_in_order():
    text = "(pentagonjoin (petersen) p=0 (petersen) rot=2 p=1)"
    canonical = format_recipe(parse_recipe(text))
    assert canonical == "(pentagonjoin (petersen) p=0 (petersen) p=1 rot=2)"
    assert encode_graph6(evaluate_text(canonical)) == encode_graph6(evaluate_text(text))


def test_formatting_normalizes_spacing():
    messy = "( superpose52   (petersen)  e=0 (petersen) u=0   v=6 )"
    assert (
        format_recipe(parse_recipe(messy))
        == "(superpose52 (petersen) e=0 (petersen) u=0 v=6)"
    )


@pytest.mark.parametrize(
    "bad",
    [
        "petersen",
        "(petersen",
        "(petersen) extra",
        "(frobnicate)",
        "(flower)",
        "(flower 5 7)",
        "(pentagonjoin (petersen) p=0 (petersen))",
        "(superpose52 (petersen) (petersen) u=0 v=6)",
        "(superpose52 (petersen) e=0 (petersen) u=0 v=5)",  # adjacent pair
        "(pentagonjoin (petersen) p=99 (petersen) p=0)",
        # integers: non-numeric, or not in canonical decimal
        "(flower x)",
        "(flower 05)",
        "(flower +5)",
        "(pentagonjoin (petersen) p=x (petersen) p=0)",
        "(pentagonjoin (petersen) p=0 (petersen) p=0 rot=y)",
        "(superpose52 (petersen) e=1_0 (petersen) u=0 v=6)",
        "(dotproduct (petersen) e1=0 e2=7 (petersen) x=0 y=one)",
        # pentagon indexes are not counted from the end
        "(pentagonjoin (petersen) p=-1 (petersen) p=0)",
        "(pentagonjoin (petersen) p=0 (petersen) p=-12)",
        # rotations are taken mod 5, so only 0..4 are spelled
        "(pentagonjoin (petersen) p=0 (petersen) p=0 rot=5)",
        "(pentagonjoin (petersen) p=0 (petersen) p=0 rot=7)",
        "(pentagonjoin (petersen) p=0 (petersen) p=0 rot=-3)",
        # unknown and repeated keys
        "(flower 5 foo=3)",
        "(petersen n=7)",
        "(superpose52 (petersen) e=3 e=0 (petersen) u=0 v=6)",
        "(pentagonjoin (petersen) p=0 (petersen) p=0 p=1)",
        # a positional argument has no keyed spelling
        "(flower n=5)",
        "(graph6 s=I????????)",
    ],
)
def test_bad_recipes_rejected(bad):
    with pytest.raises(DomainError):
        evaluate_text(bad)
