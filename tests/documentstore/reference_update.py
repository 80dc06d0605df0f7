"""The obviously-correct reference for operator updates (ROADMAP: "a reference
comes with every behaviour change").

This is the deep-copy ``apply_operators`` the store ran before updates became
copy-on-write, moved here unchanged: copy the whole document, then mutate the
copy in place, one operator and path at a time.  ``test_update_properties.py``
checks the store's copy-on-write :class:`~repro.documentstore.update.OperatorUpdate`
against it under random documents and operator sequences.
"""

from __future__ import annotations

from collections.abc import Mapping, MutableMapping
from typing import Any

from repro.documentstore.bson import deep_copy_document
from repro.documentstore.errors import InvalidUpdateError
from repro.documentstore.matching import compare_values, compile_matcher, values_equal

_UPDATE_OPERATORS = {
    "$set",
    "$unset",
    "$inc",
    "$mul",
    "$rename",
    "$min",
    "$max",
    "$push",
    "$addToSet",
    "$pull",
    "$pop",
    "$setOnInsert",
    "$currentDate",
}


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


def _unset_value(document: MutableMapping[str, Any], path: str) -> None:
    parent, leaf, present = _get_leaf(document, path)
    if not present:
        return
    if isinstance(parent, list):
        parent[int(leaf)] = None
    else:
        del parent[leaf]


def _current_value(document: Mapping[str, Any], path: str, default: Any = None) -> Any:
    parent, leaf, present = _get_leaf(document, path)
    if not present:
        return default
    if isinstance(parent, list):
        return parent[int(leaf)]
    return parent[leaf]


def apply_operators(
    document: Mapping[str, Any],
    update: Mapping[str, Any],
    *,
    on_insert: bool = False,
) -> dict[str, Any]:
    """Return a new document with the operator document *update* applied."""
    updated = deep_copy_document(dict(document))
    for operator, changes in update.items():
        if operator not in _UPDATE_OPERATORS:
            raise InvalidUpdateError(f"unknown update operator {operator!r}")
        if operator == "$setOnInsert" and not on_insert:
            continue
        if not isinstance(changes, Mapping):
            raise InvalidUpdateError(f"{operator} expects a document of field updates")
        for path, argument in changes.items():
            _apply_single(updated, operator, path, argument)
    return updated


def _apply_single(document: MutableMapping[str, Any], operator: str, path: str, argument: Any) -> None:
    if operator in ("$set", "$setOnInsert"):
        _set_value(document, path, deep_copy_document(argument))
    elif operator == "$unset":
        _unset_value(document, path)
    elif operator == "$inc":
        current = _current_value(document, path, 0)
        if current is None:
            current = 0
        if not isinstance(current, (int, float)) or isinstance(current, bool):
            raise InvalidUpdateError(f"$inc target {path!r} is not numeric")
        _set_value(document, path, current + argument)
    elif operator == "$mul":
        current = _current_value(document, path, 0)
        if current is None:
            current = 0
        if not isinstance(current, (int, float)) or isinstance(current, bool):
            raise InvalidUpdateError(f"$mul target {path!r} is not numeric")
        _set_value(document, path, current * argument)
    elif operator == "$rename":
        current = _current_value(document, path, None)
        parent, leaf, present = _get_leaf(document, path)
        if present and not isinstance(parent, list):
            del parent[leaf]
            _set_value(document, str(argument), current)
    elif operator == "$min":
        current = _current_value(document, path, None)
        if current is None or compare_values(argument, current) < 0:
            _set_value(document, path, argument)
    elif operator == "$max":
        current = _current_value(document, path, None)
        if current is None or compare_values(argument, current) > 0:
            _set_value(document, path, argument)
    elif operator == "$push":
        current = _current_value(document, path, None)
        if current is None:
            current = []
        if not isinstance(current, list):
            raise InvalidUpdateError(f"$push target {path!r} is not an array")
        if isinstance(argument, Mapping) and "$each" in argument:
            current = current + [deep_copy_document(item) for item in argument["$each"]]
        else:
            current = current + [deep_copy_document(argument)]
        _set_value(document, path, current)
    elif operator == "$addToSet":
        current = _current_value(document, path, None)
        if current is None:
            current = []
        if not isinstance(current, list):
            raise InvalidUpdateError(f"$addToSet target {path!r} is not an array")
        additions = (
            argument["$each"] if isinstance(argument, Mapping) and "$each" in argument else [argument]
        )
        new_values = list(current)
        for item in additions:
            if not any(values_equal(item, existing) for existing in new_values):
                new_values.append(deep_copy_document(item))
        _set_value(document, path, new_values)
    elif operator == "$pull":
        current = _current_value(document, path, None)
        if current is None:
            return
        if not isinstance(current, list):
            raise InvalidUpdateError(f"$pull target {path!r} is not an array")
        if isinstance(argument, Mapping) and any(k.startswith("$") for k in argument):
            predicate = compile_matcher({"v": argument})
            remaining = [item for item in current if not predicate({"v": item})]
        elif isinstance(argument, Mapping):
            predicate = compile_matcher(argument)
            remaining = [
                item
                for item in current
                if not (isinstance(item, Mapping) and predicate(item))
            ]
        else:
            remaining = [item for item in current if not values_equal(item, argument)]
        _set_value(document, path, remaining)
    elif operator == "$pop":
        current = _current_value(document, path, None)
        if not isinstance(current, list) or not current:
            return
        if argument == -1:
            _set_value(document, path, current[1:])
        else:
            _set_value(document, path, current[:-1])
    elif operator == "$currentDate":
        import datetime

        _set_value(document, path, datetime.datetime.now())
