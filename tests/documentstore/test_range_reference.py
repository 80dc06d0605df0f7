"""Range operators against a per-document reference, with and without an index.

``{path: {$gt|$gte|$lt|$lte: operand}}`` matches a document when one value at
*path* — or, when that value is an array, one of its elements — is of the
operand's type and compares as asked; a document with no value at *path*
matches only ``$gte``/``$lte`` with a ``None`` operand (missing reads as
``None``).  The reference below spells that out per document; the store must
return the same documents from a collection scan, a single-field index and a
multikey index (the same index once an array is stored), on a plain and on a
dotted path through arrays of embedded documents.  With a ``None`` operand the
plan reads nothing (``$gt``, ``$lt``) or only the null bracket (``$gte``,
``$lte``: missing values, ``[]`` and the ``None`` elements of arrays), and its
candidates still hold every reference match.
"""

from __future__ import annotations

import operator

from hypothesis import given, settings, strategies as st

from repro.documentstore import Collection, plan_query
from repro.documentstore.indexes import Index, IndexSpec

OPERATORS = {"$gt": operator.gt, "$gte": operator.ge, "$lt": operator.lt, "$lte": operator.le}

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3, allow_nan=False).map(lambda x: round(x, 1)),
    st.sampled_from(["", "a", "b"]),
)
VALUES = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=3),
    st.lists(st.lists(SCALARS, max_size=2), max_size=2),  # elements that are arrays never match
)
#: What ``a`` holds for the dotted path ``a.b``: a value, a document, or an array of documents.
HOLDERS = st.one_of(
    VALUES,
    st.fixed_dictionaries({}, optional={"b": VALUES}),
    st.lists(st.fixed_dictionaries({}, optional={"b": VALUES}), max_size=3),
)
DOCUMENTS = st.lists(st.fixed_dictionaries({}, optional={"a": HOLDERS}), max_size=25)
CONDITIONS = st.one_of(
    st.builds(lambda op, v: {op: v}, st.sampled_from(sorted(OPERATORS)), SCALARS),
    st.builds(
        lambda low, high, v, w: {low: v, high: w},
        st.sampled_from(["$gt", "$gte"]),
        st.sampled_from(["$lt", "$lte"]),
        SCALARS,
        SCALARS,
    ),
)


def kind(value):
    """The comparison class of a scalar: values of different classes never match."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def order(value):
    """Python's order within one class; every ``None`` equals every other."""
    return 0 if value is None else value


def values_at(node, parts):
    """Every value at the dotted path *parts*, descending into arrays of documents."""
    if not parts:
        return [node]
    head, rest = parts[0], parts[1:]
    if isinstance(node, dict):
        return values_at(node[head], rest) if head in node else []
    if isinstance(node, list):
        return [
            value
            for item in node
            if isinstance(item, dict) and head in item
            for value in values_at(item[head], rest)
        ]
    return []


def reference_matches(document, path, condition) -> bool:
    values = values_at(document, path.split("."))
    for name, operand in condition.items():
        if not values:
            if operand is None and name in ("$gte", "$lte"):
                continue
            return False
        candidates = [
            element
            for value in values
            for element in (value if isinstance(value, list) else [value])
        ]
        if not any(
            kind(element) == kind(operand) and OPERATORS[name](order(element), order(operand))
            for element in candidates
        ):
            return False
    return True


def found(collection, query):
    return sorted(document["_id"] for document in collection.find(query))


@given(documents=DOCUMENTS, path=st.sampled_from(["a", "a.b"]), condition=CONDITIONS)
@settings(max_examples=400, deadline=None)
def test_ranges_match_the_per_document_reference(documents, path, condition):
    stored = [dict(document, _id=i) for i, document in enumerate(documents)]
    expected = [d["_id"] for d in stored if reference_matches(d, path, condition)]
    scan = Collection(None, "scan")
    scan.insert_many(stored)
    indexed = Collection(None, "indexed")
    indexed.create_index(path)  # multikey as soon as an array is stored under it
    indexed.insert_many(stored)
    query = {path: condition}
    assert found(scan, query) == expected
    assert found(indexed, query) == expected
    assert indexed.explain(query)["queryPlanner"]["winningPlan"]["stage"] == "IXSCAN"


@given(
    documents=DOCUMENTS,
    path=st.sampled_from(["a", "a.b"]),
    name=st.sampled_from(sorted(OPERATORS)),
)
@settings(max_examples=300, deadline=None)
def test_a_none_bound_reads_at_most_the_null_bracket(documents, path, name):
    stored = dict(enumerate(documents))
    index = Index(IndexSpec.from_key_specification(path))
    index.rebuild(stored.items())
    condition = {name: None}
    expected = {i for i, document in stored.items() if reference_matches(document, path, condition)}
    plan = plan_query({path: condition}, {"i": index}, len(stored))
    assert plan.stage == "IXSCAN"
    assert set(plan.candidate_ids) >= expected
    null_bracket = index.count_prefix((None,))
    assert plan.documents_examined <= (null_bracket if name in ("$gte", "$lte") else 0)


def test_explain_counts_the_keys_a_none_bound_reads():
    collection = Collection(None, "c")
    collection.insert_many([{"a": i} for i in range(999)] + [{"a": None}, {"b": 1}])
    collection.create_index("a")
    for name, keys, returned in [("$gt", 0, 0), ("$lt", 0, 0), ("$gte", 2, 2), ("$lte", 2, 2)]:
        explained = collection.explain({"a": {name: None}}, verbosity="executionStats")
        assert explained["queryPlanner"]["winningPlan"]["keysExamined"] == keys, name
        assert explained["executionStats"]["nReturned"] == returned, name
