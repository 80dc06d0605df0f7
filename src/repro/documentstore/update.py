"""Update-operator application.

The migration and embedding algorithms of the thesis (Figures 4.3 and 4.7)
use ``update`` with ``$set`` plus the ``multi`` and ``upsert`` options; the
full operator set implemented here also covers ``$unset``, ``$inc``, ``$mul``,
``$rename``, ``$min``/``$max``, ``$push``, ``$addToSet``, ``$pull``, and
``$pop`` so the store is usable beyond the thesis workloads.
"""

from __future__ import annotations

import datetime
from collections.abc import Mapping
from typing import Any

from .bson import deep_copy_document, validate_value, value_size
from .errors import InvalidUpdateError
from .matching import compare_values, compile_matcher, values_equal

__all__ = [
    "is_update_document",
    "apply_update",
    "apply_operators",
    "OperatorUpdate",
    "update_shape",
    "replace_document",
    "build_upsert_document",
]

#: Operators whose argument (each item, for the array ones) can end up in a
#: stored document: validated by the constructor, detached by the first apply.
_STORING = frozenset({"$set", "$setOnInsert", "$min", "$max", "$push", "$addToSet"})
#: The storing operators whose argument is a list of items to add to an array.
_GROWING = ("$push", "$addToSet")
_NUMERIC = ("$inc", "$mul")
#: Operators that do nothing when their path is missing, so never create it.
_READ_ONLY_WALK = frozenset({"$unset", "$rename", "$pull", "$pop"})
_UPDATE_OPERATORS = _STORING | _READ_ONLY_WALK | {*_NUMERIC, "$currentDate"}
#: Operators whose only check of an argument is ``validate_value``.
_VALUE_CHECKED = _STORING.difference(_GROWING)
_MISSING = object()


def is_update_document(update: Mapping[str, Any]) -> bool:
    """Return True if *update* uses operators (vs. a full replacement doc)."""
    kinds = {key[:1] == "$" if isinstance(key, str) else None for key in update or ()}
    if None in kinds:
        raise InvalidUpdateError("update document keys must be strings")
    if len(kinds) > 1:
        raise InvalidUpdateError("update documents may not mix update operators and plain fields")
    return True in kinds


def apply_update(
    document: Mapping[str, Any],
    update: Mapping[str, Any],
    *,
    on_insert: bool = False,
) -> dict[str, Any]:
    """Return a new document with *update* applied to *document*.

    The input document is never mutated; collections replace the stored
    version atomically, which is what makes single-document writes atomic
    (Table 2.2 of the paper).  Callers applying one update to many documents
    classify it once with :func:`is_update_document` and call
    :func:`apply_operators` or :func:`replace_document` directly.
    """
    if is_update_document(update):
        return apply_operators(document, update, on_insert=on_insert)
    return replace_document(document, update)


def update_shape(update: Any) -> tuple[Any, ...] | None:
    """*update*'s operators and paths if its only check of an argument is ``validate_value``."""
    if type(update) is not dict:
        return None
    shape = []
    for operator, changes in update.items():
        if operator not in _VALUE_CHECKED or type(changes) is not dict:
            return None
        shape.append((operator, *changes))
    return tuple(shape)


def replace_document(document: Mapping[str, Any], replacement: Mapping[str, Any]) -> dict[str, Any]:
    """Return a copy of *replacement* that keeps *document*'s ``_id``."""
    replaced = deep_copy_document(dict(replacement))
    if "_id" in document:
        replaced.setdefault("_id", document["_id"])
    return replaced


def apply_operators(
    document: Mapping[str, Any],
    update: Mapping[str, Any],
    *,
    on_insert: bool = False,
) -> dict[str, Any]:
    """Return a new document with the operator document *update* applied."""
    return OperatorUpdate(update, on_insert=on_insert).apply(document)[0]


class OperatorUpdate:
    """One operator update: checked once, applied to every document it matches.

    Construction checks the operators, the paths and the arguments, so a bad
    update fails whether or not it matches anything.  The first :meth:`apply`
    detaches (copies) the stored arguments from the caller; every later one
    shares them.  ``paths`` are the field paths it can modify.
    """

    def __init__(self, update: Mapping[str, Any], *, on_insert: bool = False) -> None:
        self.paths: set[str] = set()
        self._steps: list[tuple[str, list[str], Any]] = []
        self._detached = False
        self._sizes: dict[int, int] = {}  # id(detached argument) -> its encoded size
        self._delta = 0
        for operator, changes in update.items():
            if operator not in _UPDATE_OPERATORS:
                raise InvalidUpdateError(f"unknown update operator {operator!r}")
            if type(changes) is not dict and not isinstance(changes, Mapping):
                raise InvalidUpdateError(f"{operator} expects a document of field updates")
            for path, argument in changes.items():
                _check_path(operator, path)
                if operator in _GROWING:
                    each = isinstance(argument, Mapping) and "$each" in argument
                    if each and not isinstance(argument["$each"], (list, tuple)):
                        raise InvalidUpdateError(f"{operator}'s $each expects an array")
                    argument = list(argument["$each"]) if each else [argument]
                elif operator in _NUMERIC and (
                    isinstance(argument, bool) or not isinstance(argument, (int, float))
                ):
                    raise InvalidUpdateError(f"{operator} expects a number for {path!r}")
                elif operator == "$rename":
                    _check_path(operator, argument)
                    self.paths.add(argument)
                elif operator == "$pull":
                    argument = _pull_predicate(argument)
                if operator in _STORING:
                    validate_value(argument)
                self.paths.add(path)
                if operator != "$setOnInsert" or on_insert:
                    self._steps.append((operator, path.split("."), argument))

    def apply(self, document: Mapping[str, Any]) -> tuple[dict[str, Any], int]:
        """Return ``(new document, change of its encoded size)``.

        Copy-on-write: the new document is a copy of the top-level dict and
        of each container on the way to a touched path; every other subtree,
        and every stored argument, is shared — with *document* and with every
        other document this update is applied to.
        """
        if not self._detached:
            self._detached = True
            for position, (operator, parts, argument) in enumerate(self._steps):
                if operator in _STORING:
                    argument = deep_copy_document(argument)
                    for value in argument if operator in _GROWING else (argument,):
                        self._sizes[id(value)] = value_size(value)
                self._steps[position] = (operator, parts, argument)
        root = dict(document)
        self._delta = 0
        try:
            for operator, parts, argument in self._steps:
                self._apply(root, operator, parts, argument)
        except (IndexError, TypeError, ValueError) as error:  # a step this document cannot take
            raise InvalidUpdateError(f"cannot apply the update: {error}") from None
        return root, self._delta

    def _put(self, container: Any, key: Any, value: Any) -> None:
        """Store *value* under *key* of the fresh *container*, counting the bytes."""
        size = self._sizes.get(id(value))
        self._delta += value_size(value) if size is None else size
        if isinstance(container, list):
            key = int(key)
            self._pad(container, key, None)
            self._delta -= value_size(container[key])
        elif key in container:
            self._delta -= value_size(container[key])
        else:
            self._delta += 2 + len(key.encode("utf-8"))
        container[key] = value

    def _pad(self, array: list[Any], index: int, filler: Any) -> None:
        """Grow *array* until it has a position *index*."""
        for position in range(len(array), index + 1):
            array.append(filler)
            self._delta += 2 + len(str(position)) + value_size(filler)

    def _parent(self, node: Any, parts: list[str], create: bool) -> Any:
        """Copy-on-write walk from the fresh *node* to the container of the leaf.

        Each container on the way is replaced, in its fresh parent, by a
        shallow copy — the only containers an update may write to.  With
        *create*, missing (or scalar) steps become documents; without it the
        answer for a path that is not there is ``None``.
        """
        for part in parts[:-1]:
            if isinstance(node, list):
                part = int(part)
                if part >= len(node):
                    if not create:
                        return None
                    self._pad(node, part, {})
                child = node[part]
            elif isinstance(node, dict):
                child = node.get(part, _MISSING)
                if create and not isinstance(child, (dict, list)):
                    child = {}
                    self._put(node, part, child)
                elif child is _MISSING:
                    return None
            else:
                break
            if isinstance(child, (dict, list)):
                node[part] = child = child.copy()
            node = child
        if isinstance(node, (dict, list)):
            return node
        if create:
            raise TypeError(f"cannot create field {parts[-1]!r} in {node!r}")
        return None

    def _apply(self, root: dict[str, Any], operator: str, parts: list[str], argument: Any) -> None:
        leaf = parts[-1]
        parent = self._parent(root, parts, operator not in _READ_ONLY_WALK)
        if isinstance(parent, list):
            current = parent[int(leaf)] if int(leaf) < len(parent) else _MISSING
        else:
            current = _MISSING if parent is None else parent.get(leaf, _MISSING)
        absent = current is _MISSING or current is None
        if operator in ("$set", "$setOnInsert"):
            self._put(parent, leaf, argument)
        elif operator == "$currentDate":
            self._put(parent, leaf, datetime.datetime.now())
        elif operator == "$unset":
            if isinstance(parent, list) and current is not _MISSING:
                self._put(parent, leaf, None)
            elif current is not _MISSING:
                self._drop(parent, leaf)
        elif operator == "$rename":
            if isinstance(parent, dict) and current is not _MISSING:
                self._drop(parent, leaf)
                target = argument.split(".")
                self._put(self._parent(root, target, True), target[-1], current)
        elif operator in _NUMERIC:
            current = 0 if absent else current
            if not isinstance(current, (int, float)) or isinstance(current, bool):
                raise InvalidUpdateError(f"{operator} target {'.'.join(parts)!r} is not numeric")
            value = current + argument if operator == "$inc" else current * argument
            self._put(parent, leaf, value)
        elif operator in ("$min", "$max"):
            if absent or compare_values(argument, current) * (1 if operator == "$max" else -1) > 0:
                self._put(parent, leaf, argument)
        elif operator == "$pop":
            if isinstance(current, list) and current:
                self._put(parent, leaf, current[1:] if argument == -1 else current[:-1])
        elif absent and operator == "$pull":
            return
        elif not (absent or isinstance(current, list)):
            raise InvalidUpdateError(f"{operator} target {'.'.join(parts)!r} is not an array")
        elif operator == "$pull":
            self._put(parent, leaf, [item for item in current if not argument(item)])
        else:
            values = [] if absent else list(current)
            for item in argument:
                if operator == "$push" or not any(values_equal(item, value) for value in values):
                    values.append(item)
            self._put(parent, leaf, values)

    def _drop(self, container: dict[str, Any], key: str) -> None:
        self._delta -= 2 + len(key.encode("utf-8")) + value_size(container.pop(key))


def _check_path(operator: str, path: Any) -> None:
    """Refuse a path with a step ``insert_one`` would refuse as a field name, or an empty one."""
    if not isinstance(path, str):
        raise InvalidUpdateError(f"{operator} paths must be strings, got {type(path).__name__}")
    dotted = f".{path}."
    if ".." in dotted or ".$" in dotted:
        raise InvalidUpdateError(f"{operator} may not write the field path {path!r}")


def _pull_predicate(argument: Any) -> Any:
    """What ``$pull`` removes: a condition, a sub-document filter or a value."""
    if isinstance(argument, Mapping) and any(str(k).startswith("$") for k in argument):
        condition = compile_matcher({"v": argument})
        return lambda item: condition({"v": item})
    if isinstance(argument, Mapping):
        predicate = compile_matcher(argument)
        return lambda item: isinstance(item, Mapping) and predicate(item)
    return lambda item: values_equal(item, argument)


def build_upsert_document(
    query: Mapping[str, Any],
    update: Mapping[str, Any],
) -> dict[str, Any]:
    """Build the document inserted by an upsert that matched nothing.

    Equality conditions from the query seed the new document, then the update
    is applied (including ``$setOnInsert``).
    """
    equalities: dict[str, Any] = {}
    for key, condition in (query or {}).items():
        if key.startswith("$"):
            continue
        if isinstance(condition, Mapping) and any(k.startswith("$") for k in condition):
            if "$eq" in condition:
                equalities[key] = condition["$eq"]
            continue
        equalities[key] = condition
    return apply_update(apply_operators({}, {"$set": equalities}), update, on_insert=True)
