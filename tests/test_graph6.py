import random

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from oracles import decode_graph6_by_pair_bits, to_nx
from snarkforge.errors import DomainError, Graph6ParseError
from snarkforge.graph import Graph
from snarkforge.graph6 import decode_graph6, encode_graph6, graph6_order, to_dot
from snarkforge.isomorphism import is_isomorphic


def test_round_trip_named(P, W, J5):
    for g in [P, W, J5]:
        assert decode_graph6(encode_graph6(g)) == g


def test_round_trip_is_identity_on_strings():
    s = "D?{"
    g = decode_graph6(s)
    assert g.n == 5
    assert encode_graph6(g) == s


def test_matches_networkx_encoding(P, W, J5, prism):
    for g in [P, W, J5, prism]:
        ours = encode_graph6(g)
        theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert ours == theirs


def test_decodes_networkx_output(P):
    data = nx.to_graph6_bytes(to_nx(P), header=True).decode().strip()
    assert decode_graph6(data) == P


def test_random_round_trips():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 40)
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = rng.sample(pairs, k=min(len(pairs), rng.randint(0, 3 * n)))
        g = Graph.from_edges(n, edges)
        assert decode_graph6(encode_graph6(g)) == g


def test_agrees_with_networkx_past_the_one_byte_prefix():
    # n up to 130 crosses the 62/63 boundary of the size prefix
    rng = random.Random(11)
    for n in [1, 2, 61, 62, 63, 64, 130] + [rng.randint(1, 130) for _ in range(8)]:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        edges = rng.sample(pairs, k=min(len(pairs), rng.randint(0, 3 * n)))
        g = Graph.from_edges(n, edges)
        theirs = nx.to_graph6_bytes(to_nx(g), header=False).decode().strip()
        assert encode_graph6(g) == theirs
        assert decode_graph6(theirs) == g


def test_padding_bits_are_ignored():
    # n=5 has 10 pair bits in two bytes: the last two bits of "~" are padding
    assert decode_graph6("D?~") == decode_graph6("D?{")


GRAPH6 = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def body_digits(n: int) -> int:
    return (n * (n - 1) // 2 + 5) // 6


@GRAPH6
@given(st.integers(1, 130), st.integers(0, 2**32 - 1), st.floats(0, 1))
def test_round_trips_against_the_pair_bit_decoder(n, seed, density):
    # n up to 130 crosses the 62/63 boundary of the size prefix
    rng = random.Random(seed)
    pairs = [(i, j) for j in range(1, n) for i in range(j) if rng.random() < density]
    g = Graph.from_edges(n, pairs)
    s = encode_graph6(g)
    assert decode_graph6(s) == decode_graph6_by_pair_bits(s) == g


@GRAPH6
@given(st.integers(1, 130), st.data())
def test_any_body_decodes_as_the_pair_bit_decoder(n, data):
    # every digit drawn, padding bits included: those are ignored, so the
    # string decodes as its cleared form, which encode_graph6 gives back
    empty = encode_graph6(Graph(n, ()))
    need = body_digits(n)
    body = data.draw(st.lists(st.integers(0, 63), min_size=need, max_size=need))
    s = empty[:len(empty) - need] + "".join(chr(d + 63) for d in body)
    g = decode_graph6(s)
    assert g == decode_graph6_by_pair_bits(s)
    padding = 6 * need - n * (n - 1) // 2
    cleared = s[:-1] + chr((body[-1] >> padding << padding) + 63) if need else s
    assert decode_graph6(cleared) == g and encode_graph6(g) == cleared


@pytest.mark.parametrize("n", [5, 63, 130])
def test_set_padding_bits_decode_as_cleared(n):
    # a body of set bits is K_n whether its padding bits are set or not
    # (n = 5, 63 and 130 leave 2, 3 and 3 of them)
    empty = encode_graph6(Graph(n, ()))
    need = body_digits(n)
    full = empty[:len(empty) - need] + "~" * need
    complete = Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j)])
    assert decode_graph6(full) == complete
    assert encode_graph6(complete) != full and decode_graph6(encode_graph6(complete)) == complete


def test_parse_errors_carry_offset():
    with pytest.raises(Graph6ParseError) as err:
        decode_graph6("!!!")
    assert err.value.offset == 0
    with pytest.raises(Graph6ParseError):
        decode_graph6("")
    with pytest.raises(Graph6ParseError):
        decode_graph6("D?")  # truncated body


@pytest.mark.parametrize(
    "n, prefix",
    [
        (1, "@"),
        (62, "}"),
        (63, "~??~"),
        (258047, "~}~~"),
        (258048, "~~???~??"),
        (68719476735, "~~~~~~~~"),
    ],
)
def test_order_from_each_prefix_width(n, prefix):
    # the prefix alone: the body is not read, so none is needed
    assert graph6_order(prefix) == n
    assert graph6_order(">>graph6<<" + prefix + "\n") == n


def test_order_agrees_with_decode(P):
    big = Graph.from_edges(70, [(i, i + 1) for i in range(69)])
    for g in (P, big):
        s = encode_graph6(g)
        assert graph6_order(s) == decode_graph6(s).n == g.n


@pytest.mark.parametrize("text", ["", "~", "~?@", "~~", "~~???~?"])
def test_truncated_prefix_is_a_parse_error(text):
    with pytest.raises(Graph6ParseError):
        graph6_order(text)
    with pytest.raises(Graph6ParseError):
        decode_graph6(text)


def test_isomorphic_after_round_trip(P):
    # encoding is label-faithful, so decode is not merely isomorphic
    g = decode_graph6(encode_graph6(P))
    assert g == P and is_isomorphic(g, P)


def test_to_dot(W_parts):
    W, spokes, _ = W_parts
    text = to_dot(W)
    assert text.startswith("graph G {")
    assert "0 -- 1;" in text
    colored = to_dot(W, coloring={spokes[0].index: 1})
    assert "color=red" in colored and "label=a" in colored


@pytest.mark.parametrize("coloring", [{0: 0}, {0: 4}, {99: 1}, {-1: 1}])
def test_to_dot_rejects_what_is_not_an_edge_coloring(W, coloring):
    with pytest.raises(DomainError):
        to_dot(W, coloring=coloring)
