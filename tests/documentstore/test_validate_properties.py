"""Value validation against the reference validator, under random input.

``bson.validate_value`` tests exact ``dict``/``list``/scalar types before the
``collections.abc`` checks and skips scalar members without a call.  For
random nested values — ``$``-prefixed, dotted and non-``str`` keys,
``set``/``Decimal``/``object()`` and subclasses of scalar types, nested in
lists, tuples, ``dict``s, ``OrderedDict``s and ``MappingProxyType``s — it and
``validate_document`` must accept exactly what ``reference_validate`` accepts
and refuse the rest with the same error class and message.
"""

from __future__ import annotations

import datetime
import decimal
import enum
from collections import OrderedDict
from types import MappingProxyType

import reference_validate
from hypothesis import example, given, settings, strategies as st

from repro.documentstore import ObjectId
from repro.documentstore.bson import validate_document, validate_value


class Flag(enum.IntEnum):
    ON = 1


class Text(str):
    pass


KEYS = st.one_of(
    st.sampled_from(["a", "b", "", "é¥", "$x", "$", "a.b", ".", "x$", Text("t")]),
    st.sampled_from([0, 2, None, b"k", 1.5, (1, 2)]),  # not strings
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.binary(max_size=3),
    st.just(ObjectId("0123456789abcdef01234567")),
    st.dates(),
    st.datetimes(),
    st.sampled_from([Flag.ON, Text("s")]),  # subclasses of scalar types
    st.builds(set),
    st.builds(frozenset),
    st.builds(decimal.Decimal, st.sampled_from(["1.5", "NaN"])),
    st.builds(object),
    st.builds(range, st.integers(0, 2)),  # a sequence that is not a list or tuple
)


def _containers(children):
    documents = st.dictionaries(KEYS, children, max_size=3)
    return st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        documents,
        documents.map(OrderedDict),
        documents.map(MappingProxyType),
    )


VALUES = st.recursive(LEAVES, _containers, max_leaves=10)


def outcome(check, value):
    """``None`` when *check* accepts *value*, else the class and message it raised."""
    try:
        check(value)
    except Exception as error:  # the class and the message are what is compared
        return type(error), str(error)
    return None


@settings(max_examples=500, deadline=None)
@given(VALUES)
@example({"$x": 1})
@example({"a": {"b.c": 1}})
@example({"a": [1, {0: 1}]})
@example([{"a": set()}])
@example(({"a": (1, decimal.Decimal("1.5"))},))
@example(MappingProxyType({"a": [object()]}))
@example(OrderedDict([("a", (1, {"$b": 2}))]))
@example({"when": datetime.datetime(2015, 11, 9), "flag": Flag.ON, "s": Text("x")})
def test_validation_accepts_and_refuses_what_the_reference_does(value):
    assert outcome(validate_value, value) == outcome(reference_validate.validate_value, value)
    assert outcome(validate_document, value) == outcome(
        reference_validate.validate_document, value
    )
