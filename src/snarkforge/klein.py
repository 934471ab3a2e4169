"""The Klein four-group used for edge colors.

Elements are the ints 0..3 read as two bits, so coordinatewise addition
mod 2 is plain XOR.  The three nonzero elements are the edge colors:

    ZERO = 0b00    A = 0b01    B = 0b10    C = 0b11

Every element is its own inverse, and three colors are pairwise distinct
exactly when they sum (XOR) to zero.
"""

from __future__ import annotations

ZERO = 0
A = 1
B = 2
C = 3

COLORS = (A, B, C)

COLOR_NAMES = {A: "a", B: "b", C: "c"}
COLOR_BY_NAME = {"a": A, "b": B, "c": C}


def group_add(x: int, y: int) -> int:
    """Sum of two group elements (coordinatewise mod-2 addition)."""
    if not 0 <= x <= 3 or not 0 <= y <= 3:
        raise ValueError(f"not group elements: {x}, {y}")
    return x ^ y


def color_name(x: int) -> str:
    return COLOR_NAMES[x]


def parse_color(name: str) -> int:
    try:
        return COLOR_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown color name {name!r}") from None
