"""The package's value classes are built on value.Value instead of
dataclass(), and keep what callers read from them: the constructor and
its TypeError messages, the dataclass repr, equality by fields within one
class, a hash by fields on the frozen classes, AttributeError on
assignment and deletion, vars() in field order, the type hints the ledger
loader checks, and pickling for a pooled search.  Each message is compared
with the one a dataclass of the same name, fields and defaults gives, and
each repr is the string the dataclass form printed."""

import dataclasses
import pickle
from typing import Optional, get_type_hints

import pytest

from snarkforge import __version__
from snarkforge.analyze import SnarkCertificate
from snarkforge.coloring import EdgeColoring
from snarkforge.construct import JoinResult
from snarkforge.graph import EdgeRef, Graph
from snarkforge.kempe import KempeChain
from snarkforge.ledger import PsiRecord, SearchBudget, TruncationRecord
from snarkforge.recipe import Recipe

PATH = Graph(3, ((0, 1), (1, 2)))
COLORING = EdgeColoring(PATH, (1, 2))
PATH_REPR = "Graph(n=3, edges=((0, 1), (1, 2)))"
COLORING_REPR = f"EdgeColoring(graph={PATH_REPR}, colors=(1, 2))"
TRUNCATED = "recipe: flower graphs need an odd order of at least 5"

# class, its field names, its defaults, one instance's field values, that
# instance's repr in the dataclass form, and one field changed
CASES = [
    (Graph, ("n", "edges"), {}, (3, ((0, 1), (1, 2))), PATH_REPR, ("n", 4)),
    (EdgeRef, ("index", "pair"), {}, (1, (1, 2)), "EdgeRef(index=1, pair=(1, 2))", ("index", 2)),
    (EdgeColoring, ("graph", "colors"), {}, (PATH, (1, 2)), COLORING_REPR, ("colors", (2, 1))),
    (
        KempeChain,
        ("coloring", "colors", "edge_indexes", "kind", "endpoints"),
        {},
        (COLORING, frozenset({1, 2}), frozenset({0, 1}), "path", (0, 2)),
        f"KempeChain(coloring={COLORING_REPR}, colors=frozenset({{1, 2}}), "
        "edge_indexes=frozenset({0, 1}), kind='path', endpoints=(0, 2))",
        ("kind", "cycle"),
    ),
    (
        JoinResult,
        ("graph", "prime_map", "star_map", "connecting_edges", "new_vertices"),
        {"new_vertices": ()},
        (PATH, {0: 0}, {1: 2}, (1,), (2,)),
        f"JoinResult(graph={PATH_REPR}, prime_map={{0: 0}}, star_map={{1: 2}}, "
        "connecting_edges=(1,), new_vertices=(2,))",
        ("new_vertices", ()),
    ),
    (
        Recipe,
        ("op", "children", "params"),
        {"children": (), "params": ()},
        ("flower", (), (("n", "5"),)),
        "Recipe(op='flower', children=(), params=(('n', '5'),))",
        ("op", "petersen"),
    ),
    (
        SnarkCertificate,
        ("girth", "girth_ok", "connectivity_level", "connectivity_ok", "coloring_count"),
        {},
        (5, True, 4, True, 0),
        "SnarkCertificate(girth=5, girth_ok=True, connectivity_level=4, "
        "connectivity_ok=True, coloring_count=0)",
        ("coloring_count", 6),
    ),
    (
        PsiRecord,
        ("recipe", "graph6", "edge_index", "psi", "ec_count", "certificate", "wall_time",
         "version", "tags"),
        {"version": __version__, "tags": ()},
        ("(petersen)", "IheA@GUAo", 0, 1, 18, "girth=5 cyc>=4:y EC=0 pass", 0.01, "0.1.0",
         ("pentagon",)),
        "PsiRecord(recipe='(petersen)', graph6='IheA@GUAo', edge_index=0, psi=1, "
        "ec_count=18, certificate='girth=5 cyc>=4:y EC=0 pass', wall_time=0.01, "
        "version='0.1.0', tags=('pentagon',))",
        ("wall_time", 0.02),
    ),
    (
        TruncationRecord,
        ("recipe", "reason", "version"),
        {"version": __version__},
        ("(flower 4)", TRUNCATED, "0.1.0"),
        f"TruncationRecord(recipe='(flower 4)', reason='{TRUNCATED}', version='0.1.0')",
        ("version", "0.0.0"),
    ),
    (
        SearchBudget,
        ("max_edges", "max_nodes"),
        {"max_edges": 80, "max_nodes": 10**8},
        (80, 7),
        "SearchBudget(max_edges=80, max_nodes=7)",
        ("max_nodes", 8),
    ),
]
IDS = [case[0].__name__ for case in CASES]


def twin(cls, fields, defaults):
    """A dataclass of the same name, fields and defaults as ``cls``."""
    spec = [
        (f, object, dataclasses.field(default=defaults[f])) if f in defaults else (f, object)
        for f in fields
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=cls is not SearchBudget)


def outcome(cls, args, kwargs) -> str:
    """The TypeError message of a constructor call, or "ok"."""
    try:
        cls(*args, **kwargs)
    except TypeError as exc:
        return str(exc)
    return "ok"


@pytest.mark.parametrize("cls, fields, defaults, values, text, change", CASES, ids=IDS)
def test_constructor_takes_positional_keyword_and_default_arguments(
    cls, fields, defaults, values, text, change
):
    positional = cls(*values)
    assert cls(**dict(zip(fields, values))) == positional
    assert [getattr(positional, f) for f in fields] == list(values)
    required = [v for f, v in zip(fields, values) if f not in defaults]
    bare = cls(*required)
    assert {f: getattr(bare, f) for f in defaults} == defaults


@pytest.mark.parametrize("cls, fields, defaults, values, text, change", CASES, ids=IDS)
def test_constructor_errors_match_the_dataclass_form(cls, fields, defaults, values, text, change):
    ref = twin(cls, fields, defaults)
    calls = [
        ((), {}),  # no argument
        (values[:1], {}),  # the first alone
        ((), dict(zip(fields[1:], values[1:]))),  # all but the first
        (values, {"colour": 1}),  # unknown
        (values, {fields[0]: values[0]}),  # repeated
        (values + (None,), {}),  # too many
    ]
    outcomes = [outcome(cls, args, kwargs) for args, kwargs in calls]
    assert outcomes == [outcome(ref, args, kwargs) for args, kwargs in calls]
    assert "ok" not in outcomes[3:]
    if not defaults:
        assert "ok" not in outcomes


@pytest.mark.parametrize("cls, fields, defaults, values, text, change", CASES, ids=IDS)
def test_repr_is_the_dataclass_repr(cls, fields, defaults, values, text, change):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, fields, defaults, values, text, change", CASES, ids=IDS)
def test_equality_by_fields_within_one_class(cls, fields, defaults, values, text, change):
    value = cls(*values)
    assert value == cls(*values) and not value != cls(*values)
    assert value.__eq__(twin(cls, fields, defaults)(*values)) is NotImplemented
    assert value != twin(cls, fields, defaults)(*values)
    changed = cls(**{**dict(zip(fields, values)), change[0]: change[1]})
    assert changed != value and not changed == value


@pytest.mark.parametrize("cls, fields, defaults, values, text, change", CASES, ids=IDS)
def test_hash_by_fields_on_the_frozen_classes(cls, fields, defaults, values, text, change):
    value = cls(*values)
    if cls is SearchBudget:
        assert cls.__hash__ is None
        with pytest.raises(TypeError, match="unhashable type: 'SearchBudget'"):
            hash(value)
    elif cls is JoinResult:
        # its block maps are dicts, which the dataclass form could not hash either
        with pytest.raises(TypeError, match="unhashable type: 'dict'"):
            hash(value)
    else:
        assert hash(value) == hash(cls(*values)) == hash(twin(cls, fields, defaults)(*values))
        assert hash(value) == hash(tuple(values))


@pytest.mark.parametrize("cls, fields, defaults, values, text, change", CASES, ids=IDS)
def test_assignment_and_deletion(cls, fields, defaults, values, text, change):
    value = cls(*values)
    if cls is SearchBudget:
        value.max_nodes = 9
        assert value == SearchBudget(80, 9)
        del value.max_nodes
        assert "max_nodes" not in vars(value)
        return
    ref = twin(cls, fields, defaults)(*values)
    for name in (fields[0], "other"):
        with pytest.raises(AttributeError) as err:
            setattr(value, name, 1)
        with pytest.raises(AttributeError) as want:
            setattr(ref, name, 1)
        assert str(err.value) == str(want.value) == f"cannot assign to field '{name}'"
    with pytest.raises(AttributeError) as err:
        delattr(value, fields[0])
    assert str(err.value) == f"cannot delete field '{fields[0]}'"
    assert [getattr(value, f) for f in fields] == list(values)


@pytest.mark.parametrize("cls, fields, defaults, values, text, change", CASES, ids=IDS)
def test_vars_lists_the_fields_in_order(cls, fields, defaults, values, text, change):
    # keyword order does not change it; a graph stores its adjacency after
    kwargs = dict(reversed(list(zip(fields, values))))
    assert list(vars(cls(**kwargs)))[:len(fields)] == list(fields)
    if cls is not Graph:
        assert vars(cls(**kwargs)) == dict(zip(fields, values))


def test_type_hints_the_ledger_loader_reads():
    assert get_type_hints(PsiRecord) == {
        "recipe": str, "graph6": str, "edge_index": int, "psi": int, "ec_count": int,
        "certificate": str, "wall_time": float, "version": str, "tags": tuple[str, ...],
    }
    assert get_type_hints(TruncationRecord) == {"recipe": str, "reason": str, "version": str}
    assert get_type_hints(SnarkCertificate)["girth"] == Optional[int]


@pytest.mark.parametrize("cls", [PsiRecord, TruncationRecord, SearchBudget, Graph])
def test_pickle_round_trip(cls):
    case = next(c for c in CASES if c[0] is cls)
    value = cls(*case[3])
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is cls and back == value and repr(back) == repr(value)
    if cls is Graph:
        assert back.neighbors(1) == (0, 2) and back.edge_index(2, 1) == 1
    else:
        assert vars(back) == vars(value)
