"""The obviously-correct reference for operator updates (ROADMAP: "a reference
comes with every behaviour change").

This is the deep-copy ``apply_operators`` the store ran before updates became
copy-on-write, narrowed to the two operators the store keeps (``$set`` and
``$inc``) and otherwise unchanged but for one wrapper: copy the whole
document, then mutate the copy in place, one operator and path at a time; a
path step the document cannot take (the ``IndexError``/``TypeError``/
``ValueError`` of the walk) is an ``InvalidUpdateError``, as in the store.
``test_update_properties.py``
checks the store's copy-on-write :class:`~repro.documentstore.update.OperatorUpdate`
against it under random documents and operator sequences.
"""

from __future__ import annotations

from collections.abc import Mapping, MutableMapping
from typing import Any

from repro.documentstore.bson import deep_copy_document
from repro.documentstore.errors import InvalidUpdateError

_UPDATE_OPERATORS = {"$set", "$inc"}


def _split_path(path: str) -> list[str]:
    return path.split(".")


def _ensure_parent(document: MutableMapping[str, Any], path: str) -> tuple[Any, str]:
    """Walk to the parent container of *path*, creating documents as needed."""
    parts = _split_path(path)
    node: Any = document
    for part in parts[:-1]:
        if isinstance(node, list):
            index = int(part)
            while len(node) <= index:
                node.append({})
            node = node[index]
        else:
            if part not in node or not isinstance(node[part], (dict, list)):
                node[part] = {}
            node = node[part]
    return node, parts[-1]


def _get_leaf(document: Mapping[str, Any], path: str) -> tuple[Any, str, bool]:
    parts = _split_path(path)
    node: Any = document
    for part in parts[:-1]:
        if isinstance(node, list):
            index = int(part)
            if index >= len(node):
                return None, parts[-1], False
            node = node[index]
        elif isinstance(node, Mapping) and part in node:
            node = node[part]
        else:
            return None, parts[-1], False
    leaf = parts[-1]
    if isinstance(node, list):
        index = int(leaf)
        return node, leaf, index < len(node)
    if isinstance(node, Mapping):
        return node, leaf, leaf in node
    return None, leaf, False


def _set_value(document: MutableMapping[str, Any], path: str, value: Any) -> None:
    parent, leaf = _ensure_parent(document, path)
    if isinstance(parent, list):
        index = int(leaf)
        while len(parent) <= index:
            parent.append(None)
        parent[index] = value
    else:
        parent[leaf] = value


def _current_value(document: Mapping[str, Any], path: str, default: Any = None) -> Any:
    parent, leaf, present = _get_leaf(document, path)
    if not present:
        return default
    if isinstance(parent, list):
        return parent[int(leaf)]
    return parent[leaf]


def apply_operators(document: Mapping[str, Any], update: Mapping[str, Any]) -> dict[str, Any]:
    """Return a new document with the operator document *update* applied."""
    updated = deep_copy_document(dict(document))
    for operator, changes in update.items():
        if operator not in _UPDATE_OPERATORS:
            raise InvalidUpdateError(f"unknown update operator {operator!r}")
        if not isinstance(changes, Mapping):
            raise InvalidUpdateError(f"{operator} expects a document of field updates")
        for path, argument in changes.items():
            try:
                _apply_single(updated, operator, path, argument)
            except (IndexError, TypeError, ValueError) as error:  # a step it cannot take
                raise InvalidUpdateError(f"cannot apply the update: {error}") from None
    return updated


def _apply_single(document: MutableMapping[str, Any], operator: str, path: str, argument: Any) -> None:
    if operator == "$set":
        _set_value(document, path, deep_copy_document(argument))
    else:
        current = _current_value(document, path, 0)
        if current is None:
            current = 0
        if not isinstance(current, (int, float)) or isinstance(current, bool):
            raise InvalidUpdateError(f"$inc target {path!r} is not numeric")
        _set_value(document, path, current + argument)
