"""graph6 encoding/decoding (McKay's format) and DOT export.

Only the undirected graph6 dialect is supported, with the optional
``>>graph6<<`` header accepted on input.  Encoding is canonical for a
labeled graph: round-tripping a string produced here is the identity.
"""

from __future__ import annotations

from math import isqrt
from typing import Optional

from .errors import DomainError, Graph6ParseError
from .graph import Graph
from .klein import COLOR_NAMES

_HEADER = ">>graph6<<"
_MAX_N = 68719476735  # largest vertex count the size prefix can carry


def _size_prefix(n: int) -> list[int]:
    if n <= 62:
        return [n]
    if n <= 258047:
        return [63, n >> 12, (n >> 6) & 63, n & 63]
    return [63, 63] + [(n >> (6 * k)) & 63 for k in range(5, -1, -1)]


def encode_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no header, no newline)."""
    if g.n > _MAX_N:
        raise ValueError("graph too large for graph6")
    # pair (i, j), i < j, is bit j(j-1)/2 + i of the body, six to a digit,
    # most significant first
    digits = [0] * ((g.n * (g.n - 1) // 2 + 5) // 6)
    for i, j in g.edges:
        p = j * (j - 1) // 2 + i
        digits[p // 6] |= 32 >> (p % 6)
    return "".join(chr(b + 63) for b in _size_prefix(g.n) + digits)


def _digit(s: str, pos: int) -> int:
    b = ord(s[pos])
    if not 63 <= b <= 126:
        raise Graph6ParseError(f"invalid graph6 character {s[pos]!r}", pos)
    return b - 63


def _read_prefix(text: str) -> tuple[str, int, int]:
    """(the string without header and surrounding whitespace, its vertex
    count, the length of its size prefix)."""
    s = text.strip()
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
    if not s:
        raise Graph6ParseError("empty graph6 string", 0)
    width = 1 if s[0] != "~" else 4 if s[1:2] != "~" else 8
    if len(s) < width:
        raise Graph6ParseError("truncated size prefix", len(s))
    n = 0
    for pos in range((width > 1) + (width > 4), width):
        n = (n << 6) | _digit(s, pos)
    return s, n, width


def graph6_order(text: str) -> int:
    """The vertex count of a graph6 string, read from its size prefix
    alone: the body is neither decoded nor checked."""
    return _read_prefix(text)[1]


def decode_graph6(text: str) -> Graph:
    """Parse a graph6 string.  Malformed input raises Graph6ParseError
    with the byte offset of the problem."""
    s, n, width = _read_prefix(text)
    body = [_digit(s, pos) for pos in range(width, len(s))]
    if n == 0:
        raise Graph6ParseError("zero-vertex graph not supported", 0)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(body) != need:
        raise Graph6ParseError(
            f"expected {need} data bytes for n={n}, got {len(body)}", len(s)
        )
    # bit p = j(j-1)/2 + i of the body is pair (i, j), i < j, as in
    # encode_graph6; only set bits are read, and padding bits are ignored
    pairs = []
    for p in [6 * k + r for k, d in enumerate(body) if d for r in range(6) if d & 32 >> r]:
        if p < nbits:
            j = (isqrt(8 * p + 1) + 1) // 2
            pairs.append((p - j * (j - 1) // 2, j))
    return Graph.from_edges(n, pairs)


def to_dot(g: Graph, coloring: Optional[dict[int, int]] = None) -> str:
    """Render as DOT graph ``G``.  ``coloring`` maps edge index -> color
    element and becomes the DOT ``color`` attribute (a/b/c drawn
    red/green/blue); a key that is not an edge index of g or a value that
    is not a color raises DomainError."""
    palette = {1: "red", 2: "green", 3: "blue"}
    coloring = coloring or {}
    bad = {i: c for i, c in coloring.items() if i not in range(g.m) or c not in palette}
    if bad:
        raise DomainError(f"not edge colors of this graph: {bad}")
    lines = ["graph G {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for i, (u, v) in enumerate(g.edges):
        attr = ""
        if i in coloring:
            col = coloring[i]
            attr = f' [color={palette[col]} label={COLOR_NAMES[col]}]'
        lines.append(f"  {u} -- {v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
