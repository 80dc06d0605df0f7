"""Copy-on-write updates against the deep-copy reference, under random input.

Random nested documents and random operator sequences (``$set`` and
``$inc``, dotted paths through lists, paths into values an earlier step
embedded) must give, step by step:

(i)   the document the reference (``reference_update.apply_operators``) gives,
      or the same kind of error;
(ii)  no change to any document that went in: the input and every earlier
      version still encode to the bytes they encoded to when they were made —
      versions share subtrees, so a write into a shared one would show here;
(iii) a cached size equal to ``document_size`` of what is stored, also after
      an update that failed, a ``replace_one``, a ``delete_one`` and ``drop``;
(iv)  a size ``execute_find`` reports, under any kind of projection, equal to
      the reference ``document_size`` of the result it reports it for.

A last property draws hostile updates — field names ``insert_one`` refuses,
arguments of the wrong kind — and checks that an update either is refused
with a ``DocumentStoreError`` or stores only what ``validate_document`` takes.
"""

from __future__ import annotations

import reference_copy
import reference_update
from hypothesis import example, given, settings, strategies as st

from repro.documentstore import Collection, DocumentStoreError
from repro.documentstore.bson import document_size, encode_document, validate_document
from repro.documentstore.findspec import FindSpec
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

    A random path rarely exists, so half of the paths are drawn from the
    document's own.
    """
    known = sorted(path for path, _value in existing_paths(document or {}))
    paths = st.one_of(st.sampled_from(known), PATHS) if known else PATHS

    def step(operator, arguments):
        return st.builds(lambda path, argument: {operator: {path: argument}}, paths, arguments)

    return st.one_of(
        step("$set", VALUES),
        step("$inc", NUMBERS),
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


@settings(max_examples=150, deadline=None)
@given(DOCUMENTS, st.data())
def test_copy_on_write_equals_the_deep_copy_reference(document, data):
    versions = [(document, encode_document(document))]
    for _step in range(data.draw(st.integers(1, 6))):
        current = versions[-1][0]
        update = data.draw(steps(current))
        expected = outcome(reference_update.apply_operators, current, update)
        actual = outcome(apply_operators, current, update)
        assert actual == expected, update
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


#: Fields with non-ASCII names beside the ``a``/``b``/``c`` of ``DOCUMENTS``.
WIDE_KEYS = st.dictionaries(st.sampled_from(["é", "日本"]), VALUES, max_size=2)
#: What the shard-side find is asked for: every kind of projection it sizes.
FOUND_WITH = [
    None,
    {"_id": 0},  # the normalized queries' exclusion
    {"b": 0, "é": 0},  # a top-level exclusion
    {"a": 0, "日本": 0, "_id": 0},
    {"a": 1, "日本": 1},  # an inclusion
    {"b": 1, "_id": 0},
    {"b.a": 1},  # dotted paths
    {"c.b": 0, "é": 0},
]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(DOCUMENTS, WIDE_KEYS), min_size=3, max_size=3),
    st.lists(
        st.one_of(ACTIONS, st.tuples(st.just("upsert"), st.integers(2, 4), steps())),
        min_size=1,
        max_size=8,
    ),
)
def test_a_reported_size_equals_the_reference(documents, actions):
    """``execute_find`` reports each result's ``document_size``, whatever was stored."""
    collection = Collection(None, "reported")
    for key, (document, wide) in enumerate(documents):
        collection.insert_one({**document, **wide, "_id": key})
    for name, key, argument in actions:
        query = {} if key is None else {"_id": key}
        try:
            if name == "delete_one":
                collection.delete_one(query)
            elif name == "upsert":
                collection.update_one(query, argument, upsert=True)
            else:
                getattr(collection, name)(query, argument)
        except (DocumentStoreError, TypeError, ValueError):
            pass
        for projection in FOUND_WITH:
            for sort in (None, [("a", -1)]):
                results, sizes = collection.execute_find(
                    FindSpec(projection=projection, sort=sort)
                )
                assert len(results) == len(collection)
                assert sizes == list(map(reference_copy.document_size, results)), projection


#: Paths with a step ``insert_one`` refuses as a field name, that no array
#: takes, or that is not a string at all — mixed with ordinary ones.
HOSTILE_PATHS = st.one_of(
    PATHS,
    st.sampled_from(["", ".", "a.", ".a", "a..b", "$x", "a.$x", "a.$", "a.-1", "a.x.0", "é.0"]),
    st.sampled_from([1, None, 2.5, b"a"]),
)
HOSTILE_ARGUMENTS = st.one_of(
    VALUES,
    st.sampled_from(["x", True, None, {"$x": 1}, {"a.b": 1}, {1: "x"}, {"": 1}, [{"$y": 2}]]),
    st.builds(set),
)
HOSTILE_UPDATES = st.dictionaries(
    st.sampled_from(sorted(reference_update._UPDATE_OPERATORS)),
    st.dictionaries(HOSTILE_PATHS, HOSTILE_ARGUMENTS, min_size=1, max_size=2),
    min_size=1,
    max_size=2,
)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS, HOSTILE_UPDATES)
@example({"a": 1}, {"$set": {"a..b": 1}})  # was stored as {"a": {"": {"b": 1}}}
@example({"a": 1}, {"$inc": {"a": "x"}})  # leaked TypeError
@example({"a": []}, {"$set": {"a.-1": 1}})  # leaked IndexError
def test_an_update_is_refused_or_stores_a_valid_document(document, update):
    """Refused at construction, or by the one document it is applied to, or valid."""
    try:
        operation = OperatorUpdate(update)
    except DocumentStoreError:
        return
    try:
        updated, _delta = operation.apply(document)
    except DocumentStoreError:
        return  # e.g. $inc of a string, or a step into an array that is not an index
    validate_document(updated)
