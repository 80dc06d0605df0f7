"""Copy-on-write updates against the deep-copy reference, under random input.

Random nested documents and random operator sequences (all 13 operators,
dotted paths through lists, paths into values an earlier step embedded) must
give, step by step:

(i)   the document the reference (``reference_update.apply_operators``) gives,
      or the same kind of error;
(ii)  no change to any document that went in: the input and every earlier
      version still encode to the bytes they encoded to when they were made —
      versions share subtrees, so a write into a shared one would show here;
(iii) a cached size equal to ``document_size`` of what is stored, also after
      an update that failed, a ``replace_one``, a ``delete_one`` and ``drop``.
"""

from __future__ import annotations

import datetime

import reference_update
from hypothesis import given, settings, strategies as st

from repro.documentstore import Collection, DocumentStoreError
from repro.documentstore.bson import document_size, encode_document
from repro.documentstore.update import OperatorUpdate, apply_operators

NAMES = st.sampled_from(["a", "b", "c"])
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(-2, 2, allow_nan=False),
    st.sampled_from(["", "x", "é¥"]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(NAMES, inner, max_size=3)
    ),
    max_leaves=8,
)
DOCUMENTS = st.dictionaries(NAMES, VALUES, max_size=3)
#: One to three steps, each a field name or a small array index.
PATHS = st.lists(st.one_of(NAMES, st.sampled_from(["0", "1", "3"])), min_size=1, max_size=3).map(
    ".".join
)
ITEMS = st.one_of(VALUES, st.builds(lambda items: {"$each": items}, st.lists(VALUES, max_size=3)))
NUMBERS = st.one_of(st.integers(-3, 3), st.floats(-2, 2, allow_nan=False))


def existing_paths(value, prefix=""):
    """``(dotted path, value there)`` for every path into *value*."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, nested in items:
        yield f"{prefix}{key}", nested
        if isinstance(nested, (dict, list)):
            yield from existing_paths(nested, f"{prefix}{key}.")


def steps(document=None):
    """One update; most of its paths lead into *document* when one is given.

    A random path rarely exists, and hardly ever names an array, so half of
    the paths are drawn from the document's own, and the array operators
    mostly get the paths of its arrays.
    """
    known = sorted(existing_paths(document or {}), key=lambda pair: pair[0])
    paths = array_paths = PATHS
    if known:
        paths = st.one_of(st.sampled_from([path for path, _value in known]), PATHS)
    arrays = [path for path, value in known if isinstance(value, list)]
    if arrays:
        array_paths = st.one_of(st.sampled_from(arrays), st.sampled_from(arrays), paths)

    def step(operator, arguments, paths=paths):
        return st.builds(lambda path, argument: {operator: {path: argument}}, paths, arguments)

    return st.one_of(
        step("$set", VALUES),
        step("$setOnInsert", VALUES),
        step("$unset", st.just("")),
        step("$inc", NUMBERS),
        step("$mul", NUMBERS),
        step("$rename", paths),
        step("$min", VALUES),
        step("$max", VALUES),
        step("$push", ITEMS, array_paths),
        step("$addToSet", ITEMS, array_paths),
        step("$pull", st.one_of(SCALARS, st.just({"$gt": 0}), st.just({"a": 1})), array_paths),
        step("$pop", st.sampled_from([1, -1]), array_paths),
        step("$currentDate", st.just(True)),
        # Two operators and two paths in one update.
        st.builds(
            lambda p, q, v, n: {"$set": {p: v}, "$inc": {q: n}}, paths, paths, VALUES, NUMBERS
        ),
    )


def outcome(function, *arguments, **options):
    """``("ok", result)`` or ``("error", its type)``."""
    try:
        return "ok", function(*arguments, **options)
    except Exception as error:  # noqa: BLE001 - the reference raises what it raises
        return "error", type(error)


def without_clock(value):
    """*value* with every datetime replaced by its type (``$currentDate``)."""
    if isinstance(value, dict):
        return {key: without_clock(nested) for key, nested in value.items()}
    if isinstance(value, (list, tuple)):
        return [without_clock(item) for item in value]
    return datetime.datetime if isinstance(value, datetime.datetime) else value


@settings(max_examples=150, deadline=None)
@given(DOCUMENTS, st.booleans(), st.data())
def test_copy_on_write_equals_the_deep_copy_reference(document, on_insert, data):
    versions = [(document, encode_document(document))]
    for _step in range(data.draw(st.integers(1, 6))):
        current = versions[-1][0]
        update = data.draw(steps(current))
        expected = outcome(reference_update.apply_operators, current, update, on_insert=on_insert)
        actual = outcome(apply_operators, current, update, on_insert=on_insert)
        assert without_clock(actual) == without_clock(expected), update
        for version, encoded in versions:
            assert encode_document(version) == encoded, update
        if actual[0] == "ok":
            versions.append((actual[1], encode_document(actual[1])))


@settings(max_examples=100, deadline=None)
@given(DOCUMENTS, st.data())
def test_size_delta_is_exact(document, data):
    """``apply`` reports exactly ``document_size(new) - document_size(old)``."""
    for _step in range(data.draw(st.integers(1, 6))):
        update = data.draw(steps(document))
        kind, result = outcome(lambda: OperatorUpdate(update).apply(document))
        if kind == "ok":
            assert document_size(document) + result[1] == document_size(result[0]), update
            document = result[0]


def cached_sizes_are_exact(collection):
    stored = collection._documents
    assert set(collection._sizes) <= set(stored)
    for doc_id, size in collection._sizes.items():
        assert size == document_size(stored[doc_id])
    assert collection.stats().as_dict()["size"] == sum(document_size(d) for d in stored.values())


#: Steps of the collection property: an operator update of one or of every
#: document, a replacement, a delete.
ACTIONS = st.one_of(
    st.tuples(st.just("update_one"), st.integers(0, 2), steps()),
    st.tuples(st.just("update_many"), st.none(), steps()),
    st.tuples(st.just("replace_one"), st.integers(0, 2), DOCUMENTS),
    st.tuples(st.just("delete_one"), st.integers(0, 2), st.none()),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(DOCUMENTS, min_size=3, max_size=3), st.lists(ACTIONS, min_size=1, max_size=8))
def test_cached_size_follows_the_stored_document(documents, actions):
    collection = Collection(None, "sizes")
    collection.create_index("a", unique=True)  # so that an update can fail half-way
    reference = []
    for key, document in enumerate(documents):
        document = {**document, "_id": key, "a": key}
        collection.insert_one(document)
        reference.append(document)
    for name, key, argument in actions:
        query = {} if key is None else {"_id": key}
        try:
            if name == "delete_one":
                collection.delete_one(query)
            else:
                getattr(collection, name)(query, argument)
        except (DocumentStoreError, TypeError, ValueError):
            pass  # a failed step must leave the cache as exact as a successful one
        cached_sizes_are_exact(collection)
    assert reference == [{**d, "_id": k, "a": k} for k, d in enumerate(documents)]
    collection.drop()
    assert not collection._sizes and collection.data_size() == 0
