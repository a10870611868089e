"""The CLI's report writer gives the bytes of ``json.dumps(doc, indent=2)``
plus a newline, on nested docs of every kind the encoder accepts, and on
the checked-in golden reports.

Hypothesis runs are derandomized, so every run checks the same examples.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from treematch.cli import _flat_list, _json

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))

# Keys and strings reach quotes, backslashes, control characters and
# non-ASCII text, all of which the encoder escapes.
TEXT = st.text(alphabet=st.sampled_from('ab"\\/\n\t\x00\x1f é漢😀'), max_size=6) | st.text(max_size=4)
INTS = st.integers(-(10**12), 10**12)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    INTS,
    st.floats(allow_nan=True, allow_infinity=True),
    TEXT,
)
# The two shapes the writer joins in one go, and near misses that it
# must leave to the general path (bools among ints, an empty row).
INT_LISTS = st.lists(INTS | st.booleans(), max_size=5)
PAIR_LISTS = st.lists(st.lists(INTS, min_size=2, max_size=2) | st.just([]), max_size=5)
LEAVES = SCALARS | INT_LISTS | PAIR_LISTS
DOCS = st.recursive(
    LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(TEXT, kids, max_size=4),
    ),
    max_leaves=15,
)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.dictionaries(TEXT, DOCS, max_size=5))
@example({})
@example({"edges": [[]], "empty": [], "obj": {}, "tuple": (1, (2, 3)), "nan": float("nan")})
@example({"mixed": [1, [2, 3], "x", None, -4.5, True], "pairs": [[0, 1], [2, 3]], "ints": [-1, 0]})
@example({"ragged": [[1], [2, 3, 4]], "bools": [[True, 1]], "nested": [[[1, 2]]]})
@example({"edges": [(0, 1), (2, 3)], "matching": ((4, 5),), "one": [(7,)]})
@example({"ragged": [(1,), [2, 3], (4, 5, 6), [7]], "mixed": [[1, 2], (3, 4)], "long": [(1, 2, 3, 4, 5)]})
@example({"big": [(-(2**63) - 1, 2**64), [-1, 2**63]], "neg": [(-5, -6)], "flat": [2**70, -(2**65)]})
def test_same_bytes_as_json_dumps(doc):
    assert _json(doc) == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.name)
def test_golden_reports_round_trip(path):
    text = path.read_text(encoding="utf-8")
    assert _json(json.loads(text)) == text


def test_non_str_keys_are_refused():
    with pytest.raises(TypeError, match="keys must be str"):
        _json({"certificate": {1: 2}})


def _rows(count, lengths, seed):
    rng = random.Random(seed)
    return [
        [rng.randrange(-5, 10**6) for _ in range(lengths[i % len(lengths)])] for i in range(count)
    ]


BOOL_LAST = _rows(50, (2,), 3)
BOOL_LAST[-1][-1] = True


@pytest.mark.parametrize(
    "rows, flat",
    [
        (_rows(3000, (2,), 1), True),
        ([tuple(row) for row in _rows(1000, (1, 3, 2, 2, 3), 2)], True),
        (BOOL_LAST, False),
    ],
    ids=["3000-pairs", "1000-ragged", "bool-in-last-row"],
)
def test_long_row_lists(rows, flat):
    # Whole int row lists are written by one % over all their entries; a
    # bool anywhere, even in the last row, sends the list to the general
    # path, which writes it as json does.
    doc = {"edges": rows, "certificate": {"matching": rows[:7]}}
    assert (_flat_list(rows, 1) is not None) == flat
    assert _json(doc) == json.dumps(doc, indent=2) + "\n"
