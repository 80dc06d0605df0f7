"""One call signature per operation, whichever surface it is called on.

``Collection``, ``RoutedCollection`` and ``RemoteCollection`` promise "the
same surface": a call that works on one must not raise ``TypeError`` on
another.  For every public method present on at least two of them the
parameter names, kinds and defaults must be identical.  What only one surface
offers, and the few parameters that are deliberately surface-specific, are
listed here with their reason — the list is the reference, so growing it is a
reviewed decision.
"""

from __future__ import annotations

import inspect

import pytest

from repro.documentstore import Collection
from repro.server import RemoteCollection
from repro.sharding import RoutedCollection

SURFACES = (Collection, RoutedCollection, RemoteCollection)

#: Methods one surface alone offers.
SINGLE_SURFACE = {
    # Stand-alone storage-engine surface: local index builds, local statistics
    # and the shard-side entry points the router calls.
    "Collection": {
        "replace_one", "bulk_load", "rebuild_indexes", "stats", "index_information",
        "data_size", "index_size", "all_documents", "raw_documents", "execute_find",
        "execute_pipeline",
    },
    "RoutedCollection": set(),
    "RemoteCollection": set(),
}

#: Parameters one surface adds to a shared method.
SURFACE_ONLY_PARAMETERS = {
    # A deferred build is a property of the local index structure.
    ("Collection", "create_index"): {"defer"},
    # Only a socket has a response batch size to choose (None = server default,
    # as in ``find``); in-process surfaces return the list they built.
    ("RemoteCollection", "aggregate"): {"batch_size"},
}


def public_methods(surface: type) -> dict[str, inspect.Signature]:
    return {
        name: inspect.signature(member)
        for name, member in inspect.getmembers(surface, inspect.isfunction)
        if not name.startswith("_")
    }


def shape(surface: type, name: str, signature: inspect.Signature) -> list[tuple]:
    """(name, kind, default) per parameter, annotations and allowed extras aside."""
    extras = SURFACE_ONLY_PARAMETERS.get((surface.__name__, name), set())
    return [
        (parameter.name, parameter.kind, parameter.default)
        for parameter in signature.parameters.values()
        if parameter.name not in extras
    ]


METHODS = {surface: public_methods(surface) for surface in SURFACES}
SHARED = sorted(
    name
    for name in set().union(*METHODS.values())
    if sum(name in methods for methods in METHODS.values()) >= 2
)


@pytest.mark.parametrize("name", SHARED)
def test_shared_method_has_one_signature(name):
    shapes = {
        surface.__name__: shape(surface, name, METHODS[surface][name])
        for surface in SURFACES
        if name in METHODS[surface]
    }
    reference = next(iter(shapes.values()))
    assert all(found == reference for found in shapes.values()), shapes


def test_every_shared_operation_is_on_all_three_surfaces():
    missing = {
        name: [surface.__name__ for surface in SURFACES if name not in METHODS[surface]]
        for name in SHARED
    }
    assert {name: where for name, where in missing.items() if where} == {}


@pytest.mark.parametrize("surface", SURFACES, ids=lambda surface: surface.__name__)
def test_single_surface_methods_are_the_listed_ones(surface):
    alone = {name for name in METHODS[surface] if name not in SHARED}
    assert alone == SINGLE_SURFACE[surface.__name__]


def test_the_allow_lists_name_real_things():
    for (surface_name, method), extras in SURFACE_ONLY_PARAMETERS.items():
        surface = next(s for s in SURFACES if s.__name__ == surface_name)
        assert extras <= set(METHODS[surface][method].parameters), (surface_name, method)


def test_the_front_half_is_stated_once():
    """``find``/``find_one``/``explain``/``full_name`` come from the shared base."""
    for name in ("find", "find_one", "explain", "full_name"):
        owners = {id(inspect.getattr_static(surface, name)) for surface in SURFACES}
        assert len(owners) == 1, name
