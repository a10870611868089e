"""Property tests for the three text parsers: on any text they raise
nothing but ``TreematchError``, and what the writers produce reads back
unchanged.

Runs are derandomized, so every run checks the same examples.  Integer
tokens stay small: a ``p cnf`` line announcing many variables makes
``parse_cnf_layout`` allocate per variable.
"""

from __future__ import annotations

import pytest

from treematch import (
    RotationSystem,
    TreematchError,
    WeightedGraph,
    format_cnf_layout,
    format_graph,
    format_rotation,
    parse_cnf_layout,
    parse_graph,
    parse_rotation,
)
from treematch.generate import cube, random_cnf_layout

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None)
ROUND_TRIP = settings(derandomize=True, max_examples=100, deadline=None, database=None)

CUBE = cube()

# Lines built from the parsers' own keywords and small numbers reach far
# deeper than arbitrary characters, which rarely get past the first line.
HEADS = st.sampled_from(["p", "p cnf", "e", "r", "l", "o", "c", ""])
FIELDS = st.one_of(
    st.sampled_from(["x", "in", "out", "cnf", "1:1", "2:3", "1:", ":2"]),
    st.integers(-3, 12).map(str),
)
LINE = st.builds(lambda head, rest: " ".join([head, *rest]), HEADS, st.lists(FIELDS, max_size=5))
LINES = st.lists(LINE, max_size=12).map("\n".join)
TEXTS = st.one_of(st.text(max_size=200), LINES)


def only_treematch_errors(parse) -> None:
    try:
        parse()
    except TreematchError:
        pass


@FUZZ
@given(TEXTS)
def test_parse_graph_raises_only_treematch_errors(text):
    only_treematch_errors(lambda: parse_graph(text))


@FUZZ
@given(TEXTS)
def test_parse_rotation_raises_only_treematch_errors(text):
    only_treematch_errors(lambda: parse_rotation(text, CUBE))


@FUZZ
@given(TEXTS)
def test_parse_cnf_layout_raises_only_treematch_errors(text):
    only_treematch_errors(lambda: parse_cnf_layout(text))


@st.composite
def graphs(draw) -> WeightedGraph:
    n = draw(st.integers(1, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    weights = draw(st.lists(st.integers(-50, 50), min_size=len(chosen), max_size=len(chosen)))
    return WeightedGraph(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])


@ROUND_TRIP
@given(graphs(), st.text(st.characters(blacklist_categories=("Cs",)), max_size=30))
def test_graph_round_trip(g, comment):
    text = format_graph(g, comment=comment)
    h = parse_graph(text)
    assert h.vertex_count == g.vertex_count
    assert sorted(h.edges) == sorted(g.edges)
    assert format_graph(h, comment=comment) == text


@ROUND_TRIP
@given(graphs(), st.randoms(use_true_random=False))
def test_rotation_round_trip(g, rng):
    order = []
    for v in range(g.vertex_count):
        around = [e for e, _ in g.adjacency[v]]
        rng.shuffle(around)
        order.append(tuple(around))
    rot = RotationSystem(g, tuple(order))
    assert parse_rotation(format_rotation(rot), g) == rot


@ROUND_TRIP
@given(st.integers(1, 6), st.integers(0, 8), st.integers(0, 2**32 - 1))
def test_cnf_layout_round_trip(num_vars, num_clauses, seed):
    layout = random_cnf_layout(num_vars, num_clauses, seed)
    assert parse_cnf_layout(format_cnf_layout(layout)) == layout
