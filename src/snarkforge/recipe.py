"""Reproducible text recipes for constructed graphs.

Grammar (s-expression-like, whitespace-separated):

    recipe  := "(" head ")"
    head    := "petersen"
             | "flower" N
             | "graph6" STR
             | "pentagonjoin" recipe "p=" I recipe "p=" J ["rot=" K]
             | "superpose52" recipe "e=" I recipe "u=" A "v=" B
             | "dotproduct" recipe "e1=" I "e2=" J recipe "x=" A "y=" B
                            ["wiring=" parallel|crossed]

Within a node, keys may come in any order among themselves and the
sub-recipes; a key given twice in the grammar (pentagonjoin's p=) binds
in order of appearance.  An unknown or repeated key is a domain error.
The canonical form lists keys in grammar order and omits optional keys
left at their defaults (rot=0, wiring=parallel).

Pentagon choices index the host's pentagon list (canonical order), and a
rotation K is one of 0..4; edge and vertex choices are indexes/labels of
the child graph.  Evaluation is deterministic: one recipe always
reproduces the identical labeled graph.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Optional

from .errors import DomainError
from .graph import Cycle, Graph, list_pentagons
from .graph6 import decode_graph6
from .construct import dot_product, flower, pentagon_join, petersen, superpose_52
from .value import Value


class _Slot(NamedTuple):
    key: str = ""  # "" marks a sub-recipe
    default: Optional[str] = None  # an optional key's value when omitted
    positional: bool = False  # written bare, not as key=value


_SUB = _Slot()

# Each operator's slots in canonical order.
_SIGNATURES: dict[str, tuple[_Slot, ...]] = {
    "petersen": (),
    "flower": (_Slot("n", positional=True),),
    "graph6": (_Slot("s", positional=True),),
    "pentagonjoin": (_SUB, _Slot("p"), _SUB, _Slot("p"), _Slot("rot", "0")),
    "superpose52": (_SUB, _Slot("e"), _SUB, _Slot("u"), _Slot("v")),
    "dotproduct": (
        _SUB, _Slot("e1"), _Slot("e2"), _SUB, _Slot("x"), _Slot("y"),
        _Slot("wiring", "parallel"),
    ),
}

_CONSTRUCTORS = {
    "petersen": petersen,
    "flower": flower,
    "graph6": decode_graph6,
    "pentagonjoin": pentagon_join,
    "superpose52": superpose_52,
    "dotproduct": dot_product,
}


class Recipe(Value):
    """One recipe node: its operator, its sub-recipes in order, and a
    (key, value) pair for every key slot in the operator's slot order,
    omitted optional keys holding their defaults."""

    op: str
    children: tuple["Recipe", ...] = ()
    params: tuple[tuple[str, str], ...] = ()


def _slots(r: Recipe) -> list[tuple[_Slot, object]]:
    """r's slots in canonical order, each with its sub-recipe or value."""
    children, params = iter(r.children), iter(r.params)
    return [
        (s, next(children) if s is _SUB else next(params)[1])
        for s in _SIGNATURES[r.op]
    ]


def _bind(op: str, children: list[Recipe], words: list[str]) -> Recipe:
    """Bind a node's words to the operator's key slots: ``key=value`` to
    the first free slot of that key, a bare word to the positional slot."""
    signature = _SIGNATURES[op]
    keys = [s for s in signature if s is not _SUB]
    if len(children) != signature.count(_SUB):
        raise DomainError(
            f"{op!r} takes {signature.count(_SUB)} sub-recipes, got {len(children)}"
        )
    values: list[Optional[str]] = [None] * len(keys)
    for word in words:
        key, value = word.split("=", 1) if "=" in word else (None, word)
        for i, s in enumerate(keys):
            if values[i] is None and (None if s.positional else s.key) == key:
                values[i] = value
                break
        else:
            raise DomainError(
                f"recipe {op!r} has no slot left for {word!r}"
                " (an unknown or repeated key, or an extra argument)"
            )
    params = []
    for s, v in zip(keys, values):
        if v is None and s.default is None:
            raise DomainError(f"recipe {op!r} is missing parameter {s.key}")
        params.append((s.key, s.default if v is None else v))
    return Recipe(op, tuple(children), tuple(params))


_TOKEN = re.compile(r"[()]|[^\s()]+")


def parse_recipe(text: str) -> Recipe:
    tokens = iter(_TOKEN.findall(text))

    def parse_node() -> Recipe:
        """The node whose '(' was just read, through its ')'."""
        op = next(tokens, None)
        if op is None:
            raise DomainError("unexpected end of recipe")
        op = op.lower()
        if op not in _SIGNATURES:
            raise DomainError(f"unknown recipe operator {op!r}")
        children: list[Recipe] = []
        words: list[str] = []
        for tok in tokens:
            if tok == ")":
                return _bind(op, children, words)
            if tok == "(":
                children.append(parse_node())
            else:
                words.append(tok)
        raise DomainError("unclosed '(' in recipe")

    if next(tokens, None) != "(":
        raise DomainError("recipe must start with '('")
    node = parse_node()
    if next(tokens, None) is not None:
        raise DomainError("trailing tokens after recipe")
    return node


def format_recipe(r: Recipe) -> str:
    """Canonical text for a recipe tree (parse . format is stable)."""
    parts = [r.op]
    for slot, x in _slots(r):
        if slot is _SUB:
            parts.append(format_recipe(x))
        elif slot.positional:
            parts.append(x)
        elif x != slot.default:
            parts.append(f"{slot.key}={x}")
    return "(" + " ".join(parts) + ")"


_INTEGER = re.compile(r"0|-?[1-9][0-9]*")


def _integer(r: Recipe, key: str, text: str) -> int:
    """A recipe integer.  Only canonical decimal is accepted, so that one
    integer has one spelling and one graph one recipe text."""
    if not _INTEGER.fullmatch(text):
        raise DomainError(f"{r.op!r} parameter {key}={text!r} is not an integer")
    return int(text)


def pentagon_at(g: Graph, i: int) -> Cycle:
    """Entry i of g's canonical pentagon list; negative indexes are
    rejected rather than counted from the end."""
    pents = list_pentagons(g)
    if not 0 <= i < len(pents):
        raise DomainError(f"pentagon index {i} out of range: graph has {len(pents)}")
    return pents[i]


def join_arguments(r: Recipe) -> tuple:
    """The evaluated arguments of a recipe node in slot order, the order
    its construction (and, for a two-child node, the matching identity
    verifier) takes them: sub-recipes as graphs, p= as that pentagon of
    the sub-recipe before it, s= and wiring= as text, the rest as
    integers."""
    args: list = []
    for slot, x in _slots(r):
        if slot is _SUB:
            host = evaluate(x)
            args.append(host)
        elif slot.key in ("s", "wiring"):
            args.append(x)
        else:
            value = _integer(r, slot.key, x)
            if slot.key == "p":
                value = pentagon_at(host, value)
            elif slot.key == "rot" and not 0 <= value <= 4:
                # the construction reads rotations mod 5; one graph, one text
                raise DomainError(f"pentagonjoin rotation rot={value} is outside 0..4")
            args.append(value)
    return tuple(args)


def evaluate(r: Recipe) -> Graph:
    built = _CONSTRUCTORS[r.op](*join_arguments(r))
    # a two-child construction returns its graph with the block maps
    return built.graph if r.children else built


def evaluate_text(text: str) -> Graph:
    return evaluate(parse_recipe(text))
