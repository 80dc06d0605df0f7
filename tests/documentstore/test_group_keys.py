"""``$group`` gathers its keys under the equality ``$match`` and ``distinct`` use.

``1`` and ``1.0`` are one value to ``count_documents({"x": 1})`` and to
``distinct("x")``, and ``True`` is another; so they are one group and another.
:func:`reference_group` is the obviously-correct definition: a linear scan
for the first group whose key is ``values_equal`` to the document's.
"""

from __future__ import annotations

from typing import Any

from hypothesis import given, settings, strategies as st

from repro.documentstore import Collection
from repro.documentstore.matching import values_equal

PIPELINE = [{"$group": {"_id": "$x", "n": {"$sum": "$v"}}}]


def reference_group(documents: list[dict[str, Any]]) -> list[tuple[Any, int]]:
    """``(first key seen, sum of v)`` per ``values_equal`` class of ``x``, in first-seen order."""
    groups: list[list[Any]] = []
    for document in documents:
        key = document.get("x")
        for group in groups:
            if values_equal(group[0], key):
                group[1] += document["v"]
                break
        else:
            groups.append([key, document["v"]])
    return [(key, total) for key, total in groups]


def grouped(documents: list[dict[str, Any]]) -> list[tuple[Any, int]]:
    collection = Collection(None, "t")
    collection.insert_many([dict(document) for document in documents])
    return [(row["_id"], row["n"]) for row in collection.aggregate(PIPELINE)]


def test_one_and_one_point_zero_are_one_group_and_true_another():
    documents = [{"x": 1, "v": 1}, {"x": 1.0, "v": 2}, {"x": True, "v": 4}]
    collection = Collection(None, "t")
    collection.insert_many([dict(document) for document in documents])
    assert collection.count_documents({"x": 1}) == 2
    assert len(collection.distinct("x")) == 2
    got = grouped(documents)
    assert [(type(key), total) for key, total in got] == [(int, 3), (bool, 4)]
    assert got == reference_group(documents)


SCALARS = st.one_of(
    st.integers(-2, 2),
    st.integers(-2, 2).map(float),
    st.booleans(),
    st.none(),
    st.sampled_from(["a", "b"]),
)
KEYS = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=2),
    st.dictionaries(st.sampled_from(["p", "q"]), SCALARS, max_size=2),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fixed_dictionaries({"x": KEYS, "v": st.integers(-5, 5)}), max_size=25))
def test_group_keys_match_the_reference(documents):
    got = grouped(documents)
    want = reference_group(documents)
    assert len(got) == len(want)
    for (got_key, got_total), (want_key, want_total) in zip(got, want):
        assert values_equal(got_key, want_key)
        assert type(got_key) is type(want_key)  # the first key seen names the group
        assert got_total == want_total
