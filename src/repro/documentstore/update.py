"""Update-operator application.

The migration and embedding algorithms of the thesis (Figures 4.3 and 4.7)
use ``update`` with ``$set`` plus the ``multi`` and ``upsert`` options; the
served workload adds ``$inc``.  Those two are the operators implemented
here: any other is refused with :class:`InvalidUpdateError`.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any

from .bson import deep_copy_document, validate_value, value_size
from .errors import InvalidUpdateError

__all__ = [
    "is_update_document",
    "apply_update",
    "apply_operators",
    "OperatorUpdate",
    "update_shape",
    "replace_document",
    "build_upsert_document",
]

_UPDATE_OPERATORS = frozenset({"$set", "$inc"})
_MISSING = object()


def is_update_document(update: Mapping[str, Any]) -> bool:
    """Return True if *update* uses operators (vs. a full replacement doc)."""
    kinds = {key[:1] == "$" if isinstance(key, str) else None for key in update or ()}
    if None in kinds:
        raise InvalidUpdateError("update document keys must be strings")
    if len(kinds) > 1:
        raise InvalidUpdateError("update documents may not mix update operators and plain fields")
    return True in kinds


def apply_update(document: Mapping[str, Any], update: Mapping[str, Any]) -> dict[str, Any]:
    """Return a new document with *update* applied to *document*.

    The input document is never mutated; collections replace the stored
    version atomically, which is what makes single-document writes atomic
    (Table 2.2 of the paper).  Callers applying one update to many documents
    classify it once with :func:`is_update_document` and call
    :func:`apply_operators` or :func:`replace_document` directly.
    """
    if is_update_document(update):
        return apply_operators(document, update)
    return replace_document(document, update)


def update_shape(update: Any) -> tuple[Any, ...] | None:
    """*update*'s paths if it is a ``$set`` alone: its only check of an argument is ``validate_value``."""
    if type(update) is not dict or len(update) != 1 or type(update.get("$set")) is not dict:
        return None
    return tuple(update["$set"])


def replace_document(document: Mapping[str, Any], replacement: Mapping[str, Any]) -> dict[str, Any]:
    """Return a copy of *replacement* that keeps *document*'s ``_id``."""
    replaced = deep_copy_document(dict(replacement))
    if "_id" in document:
        replaced.setdefault("_id", document["_id"])
    return replaced


def apply_operators(document: Mapping[str, Any], update: Mapping[str, Any]) -> dict[str, Any]:
    """Return a new document with the operator document *update* applied."""
    return OperatorUpdate(update).apply(document)[0]


class OperatorUpdate:
    """One operator update: checked once, applied to every document it matches.

    Construction checks the operators, the paths and the arguments, so a bad
    update fails whether or not it matches anything.  The first :meth:`apply`
    detaches (copies) the ``$set`` arguments from the caller; every later one
    shares them.  ``paths`` are the field paths it can modify.
    """

    def __init__(self, update: Mapping[str, Any]) -> None:
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
                if operator == "$set":
                    validate_value(argument)
                elif isinstance(argument, bool) or not isinstance(argument, (int, float)):
                    raise InvalidUpdateError(f"{operator} expects a number for {path!r}")
                self.paths.add(path)
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
                if operator == "$set":
                    argument = deep_copy_document(argument)
                    self._sizes[id(argument)] = value_size(argument)
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

    def _parent(self, node: Any, parts: list[str]) -> Any:
        """Copy-on-write walk from the fresh *node* to the container of the leaf.

        Each container on the way is replaced, in its fresh parent, by a
        shallow copy — the only containers an update may write to.  Missing
        (or scalar) steps of a document become documents.
        """
        for part in parts[:-1]:
            if isinstance(node, list):
                part = int(part)
                if part >= len(node):
                    self._pad(node, part, {})
                child = node[part]
            elif isinstance(node, dict):
                child = node.get(part, _MISSING)
                if not isinstance(child, (dict, list)):
                    child = {}
                    self._put(node, part, child)
            else:
                break
            if isinstance(child, (dict, list)):
                node[part] = child = child.copy()
            node = child
        if isinstance(node, (dict, list)):
            return node
        raise TypeError(f"cannot create field {parts[-1]!r} in {node!r}")

    def _apply(self, root: dict[str, Any], operator: str, parts: list[str], argument: Any) -> None:
        leaf = parts[-1]
        parent = self._parent(root, parts)
        if isinstance(parent, list):
            current = parent[int(leaf)] if int(leaf) < len(parent) else None
        else:
            current = parent.get(leaf)
        if operator == "$inc":
            current = 0 if current is None else current
            if not isinstance(current, (int, float)) or isinstance(current, bool):
                raise InvalidUpdateError(f"{operator} target {'.'.join(parts)!r} is not numeric")
            argument = current + argument
        self._put(parent, leaf, argument)


def _check_path(operator: str, path: Any) -> None:
    """Refuse a path with a step ``insert_one`` would refuse as a field name, or an empty one."""
    if not isinstance(path, str):
        raise InvalidUpdateError(f"{operator} paths must be strings, got {type(path).__name__}")
    dotted = f".{path}."
    if ".." in dotted or ".$" in dotted:
        raise InvalidUpdateError(f"{operator} may not write the field path {path!r}")


def build_upsert_document(
    query: Mapping[str, Any],
    update: Mapping[str, Any],
) -> dict[str, Any]:
    """Build the document inserted by an upsert that matched nothing.

    Equality conditions from the query seed the new document, then the update
    is applied.
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
    return apply_update(apply_operators({}, {"$set": equalities}), update)
