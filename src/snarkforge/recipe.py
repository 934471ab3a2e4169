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

Pentagon choices index the host's pentagon list (canonical order), and a
rotation K is one of 0..4; edge and vertex choices are indexes/labels of
the child graph.  Evaluation is deterministic: one recipe always
reproduces the identical labeled graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import DomainError
from .graph import Cycle, Graph, list_pentagons
from .graph6 import decode_graph6
from .construct import dot_product, flower, pentagon_join, petersen, superpose_52


@dataclass(frozen=True)
class Recipe:
    op: str
    children: tuple["Recipe", ...] = ()
    params: tuple[tuple[str, str], ...] = ()

    def param(self, key: str, default: str | None = None) -> str:
        for k, v in self.params:
            if k == key:
                return v
        if default is None:
            raise DomainError(f"recipe {self.op!r} is missing parameter {key}=")
        return default


def _tokenize(text: str) -> list[str]:
    out = []
    cur = []
    for ch in text:
        if ch in "()":
            if cur:
                out.append("".join(cur))
                cur = []
            out.append(ch)
        elif ch.isspace():
            if cur:
                out.append("".join(cur))
                cur = []
        else:
            cur.append(ch)
    if cur:
        out.append("".join(cur))
    return out


_ARITY = {
    "petersen": 0,
    "flower": 0,
    "graph6": 0,
    "pentagonjoin": 2,
    "superpose52": 2,
    "dotproduct": 2,
}


def parse_recipe(text: str) -> Recipe:
    tokens = _tokenize(text)
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise DomainError("unexpected end of recipe")
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_node() -> Recipe:
        if take() != "(":
            raise DomainError("recipe must start with '('")
        op = take().lower()
        if op not in _ARITY:
            raise DomainError(f"unknown recipe operator {op!r}")
        children: list[Recipe] = []
        params: list[tuple[str, str]] = []
        positional: list[str] = []
        while True:
            if pos >= len(tokens):
                raise DomainError("unclosed '(' in recipe")
            if tokens[pos] == ")":
                pos_advance()
                break
            if tokens[pos] == "(":
                children.append(parse_node())
            else:
                tok = take()
                if "=" in tok:
                    k, v = tok.split("=", 1)
                    params.append((k, v))
                else:
                    positional.append(tok)
        if op == "flower":
            if len(positional) != 1:
                raise DomainError("flower takes exactly one order argument")
            params.append(("n", positional[0]))
        elif op == "graph6":
            if len(positional) != 1:
                raise DomainError("graph6 takes exactly one string argument")
            params.append(("s", positional[0]))
        elif positional:
            raise DomainError(f"unexpected arguments {positional} for {op!r}")
        if len(children) != _ARITY[op]:
            raise DomainError(
                f"{op!r} takes {_ARITY[op]} sub-recipes, got {len(children)}"
            )
        return Recipe(op, tuple(children), tuple(params))

    def pos_advance():
        nonlocal pos
        pos += 1

    node = parse_node()
    if pos != len(tokens):
        raise DomainError("trailing tokens after recipe")
    return node


def format_recipe(r: Recipe) -> str:
    """Canonical text for a recipe tree (parse . format is stable)."""
    parts = [r.op]
    if r.op == "flower":
        parts.append(r.param("n"))
        return "(" + " ".join(parts) + ")"
    if r.op == "graph6":
        parts.append(r.param("s"))
        return "(" + " ".join(parts) + ")"
    if r.op == "pentagonjoin":
        left, right = r.children
        parts = [
            "pentagonjoin",
            format_recipe(left),
            f"p={r.params[0][1]}",
            format_recipe(right),
            f"p={r.params[1][1]}",
        ]
        rot = r.param("rot", "0")
        if rot != "0":
            parts.append(f"rot={rot}")
        return "(" + " ".join(parts) + ")"
    if r.op == "superpose52":
        left, right = r.children
        return "({} {} e={} {} u={} v={})".format(
            r.op, format_recipe(left), r.param("e"),
            format_recipe(right), r.param("u"), r.param("v"),
        )
    if r.op == "dotproduct":
        left, right = r.children
        text = "({} {} e1={} e2={} {} x={} y={}".format(
            r.op, format_recipe(left), r.param("e1"), r.param("e2"),
            format_recipe(right), r.param("x"), r.param("y"),
        )
        wiring = r.param("wiring", "parallel")
        if wiring != "parallel":
            text += f" wiring={wiring}"
        return text + ")"
    return "(" + " ".join(parts) + ")"


_INTEGER = re.compile(r"0|-?[1-9][0-9]*")


def _integer(r: Recipe, key: str, text: str) -> int:
    """A recipe integer.  Only canonical decimal is accepted, so that one
    integer has one spelling and one graph one recipe text."""
    if not _INTEGER.fullmatch(text):
        raise DomainError(f"{r.op!r} parameter {key}={text!r} is not an integer")
    return int(text)


def _int_param(r: Recipe, key: str, default: str | None = None) -> int:
    return _integer(r, key, r.param(key, default))


def _pentagon_params(r: Recipe) -> tuple[int, int]:
    # pentagonjoin carries two p= entries, in child order.
    ps = [_integer(r, k, v) for k, v in r.params if k == "p"]
    if len(ps) != 2:
        raise DomainError("pentagonjoin needs p= for both sides")
    return ps[0], ps[1]


def pentagon_at(g: Graph, i: int) -> Cycle:
    """Entry i of g's canonical pentagon list; negative indexes are
    rejected rather than counted from the end."""
    pents = list_pentagons(g)
    if not 0 <= i < len(pents):
        raise DomainError(f"pentagon index {i} out of range: graph has {len(pents)}")
    return pents[i]


def join_arguments(r: Recipe) -> tuple:
    """The evaluated arguments of a two-child recipe node, in the order
    its construction (and the matching identity verifier) takes them."""
    left, right = (evaluate(c) for c in r.children)
    if r.op == "pentagonjoin":
        i, j = _pentagon_params(r)
        rot = _int_param(r, "rot", "0")
        if not 0 <= rot <= 4:
            # the construction reads rotations mod 5; one graph, one text
            raise DomainError(f"pentagonjoin rotation rot={rot} is outside 0..4")
        return left, pentagon_at(left, i), right, pentagon_at(right, j), rot
    if r.op == "superpose52":
        return left, _int_param(r, "e"), right, _int_param(r, "u"), _int_param(r, "v")
    return (
        left, _int_param(r, "e1"), _int_param(r, "e2"),
        right, _int_param(r, "x"), _int_param(r, "y"),
        r.param("wiring", "parallel"),
    )


_JOINS = {"pentagonjoin": pentagon_join, "superpose52": superpose_52, "dotproduct": dot_product}


def evaluate(r: Recipe) -> Graph:
    if r.op == "petersen":
        return petersen()
    if r.op == "flower":
        return flower(_int_param(r, "n"))
    if r.op == "graph6":
        return decode_graph6(r.param("s"))
    if r.op in _JOINS:
        return _JOINS[r.op](*join_arguments(r)).graph
    raise DomainError(f"unknown recipe operator {r.op!r}")


def evaluate_text(text: str) -> Graph:
    return evaluate(parse_recipe(text))
