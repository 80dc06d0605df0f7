"""Every public function, class, method and option in ``src/`` has a caller outside ``tests/``.

One ``ast`` pass over ``src/``, ``benchmarks/`` and ``examples/`` counts the
names read there (``Name``, ``Attribute`` and identifier strings, which cover
``getattr``/``methodcaller`` dispatch; ``__all__`` and a definition's own body
do not count).  The check is by name only: a dead method whose name another
class shares still passes, as ``Database.command`` did beside
``RemoteDatabase.command``.  Keeping test-only code is a choice made here.

The same files, less the ``test_*.py`` files of ``benchmarks/``, must pass
every keyword-only parameter with a default (an *option*) of a public
callable by keyword somewhere.  A function handing its own parameter on
(``x=x``) does not count, so a chain of forwards needs an outermost caller.
That check is by name too: an option passes when any call passes a keyword
of its name, which is how ``ExperimentHarness(seed=)`` went unnoticed while
another function, ``TPCDSGenerator``, took ``seed=``.  Fields of config
dataclasses (``NetworkModel``, ``ScatterPolicy``) are not checked.

Every ``"$name"`` string under ``src/repro/documentstore/`` — the query,
update, stage, accumulator and expression operators its dispatches accept —
must be written as a key by a caller: a dict key (or a subscript assigned to)
in ``src/`` outside ``documentstore/``, in ``benchmarks/`` (less its
``test_*.py`` files) or in ``examples/``.  A membership test such as
``"$out" in stage`` is not a use.  That check is by name too: ``$sum`` passes
as an expression because callers write it as an accumulator.
"""

from __future__ import annotations

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Public names only tests reach, each kept as an instrument or an oracle.
ALLOWED = {
    "Cursor.alive": "whether a cursor is exhausted, for the cursor tests",
    "Balancer.needs_balancing": "the imbalance check of the balancer tests",
    "TableSchema.column_names": "column order, for the schema and generator tests",
    "paper_row_counts": "the Table 3.6 fidelity oracle",
    "date_sk_for": "the generator's date-key oracle",
    "matches": "the fresh-compile reference for compile_matcher",
}

#: Options no caller outside tests passes, each kept for a reason: a
#: deployment setting, a test fake, clock or reference, a parameter of the
#: paper's algorithms, or a value the caller passes as ``**bounds``.
ALLOWED_OPTIONS = {
    "DocumentStoreClient(auto_checkpoint_bytes=)": "deployment setting: WAL bytes per checkpoint",
    "StorageEngine(auto_checkpoint_bytes=)": "deployment setting: WAL bytes per checkpoint",
    "DocumentStoreClient(storage_engine=)": "test fake: an engine over a faulty file system",
    "ObjectId(timestamp=)": "clock: an id for a given creation time",
    "RemoteClient(connect_timeout_seconds=)": "deployment setting",
    "RemoteClient(socket_timeout_seconds=)": "deployment setting",
    "DocumentStoreServer(host=)": "deployment setting",
    "DocumentStoreServer(max_connections=)": "deployment setting",
    "DocumentStoreServer(read_timeout_seconds=)": "deployment setting",
    "DocumentStoreServer(write_timeout_seconds=)": "deployment setting",
    "DocumentStoreServer.shutdown(drain_timeout_seconds=)": "deployment setting",
    "ShardedCluster(network_model=)": "for ROADMAP item 2's realtime rung; only tests set it",
    "ShardedCluster(scatter_policy=)": "the scatter deadline contract; only tests set it",
    "render_bar_chart(unit=)": "the paper suite's Figure 4.11 test passes unit='x'",
    "embed_documents(dimension_filter=)": "paper algorithm: the filter of Figure 4.7, step 1",
    "run_normalized_query(write_output=)": "paper algorithm: the thesis' queries end in $out",
    "run_denormalized_query(write_output=)": "paper algorithm: the thesis' queries end in $out",
    "Index.range_lookup(include_lower=)": "passed as **bounds by the planner",
    "Index.range_lookup(include_upper=)": "passed as **bounds by the planner",
    "Index.count_range(include_lower=)": "passed as **bounds by the planner",
    "Index.count_range(include_upper=)": "passed as **bounds by the planner",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _reads(node: ast.AST):
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            if child.value.isidentifier():
                yield child.value


def test_every_public_name_in_src_is_reached_outside_tests():
    reads: collections.Counter = collections.Counter()
    definitions = []  # (name, qualified name, reads of the name inside its own body)
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
            reads.update(_reads(tree))
            for node in tree.body:
                if isinstance(node, ast.Assign) and "__all__" in _reads(node.targets[0]):
                    reads.subtract(_reads(node))
                if top != "src" or not isinstance(node, DEFINITIONS):
                    continue
                members = [(node.name, node)] + [
                    (f"{node.name}.{member.name}", member)
                    for member in getattr(node, "body", ())
                    if isinstance(node, ast.ClassDef) and isinstance(member, DEFINITIONS[:2])
                ]
                for qualified, member in members:
                    own = sum(name == member.name for name in _reads(member))
                    definitions.append((member.name, qualified, own))
    unreached = {
        qualified
        for name, qualified, own in definitions
        if not name.startswith("_") and reads[name] == own
    }
    assert unreached <= set(ALLOWED), sorted(unreached - set(ALLOWED))
    assert set(ALLOWED) <= unreached, sorted(set(ALLOWED) - unreached)  # a stale entry


def _public_callables(tree: ast.Module):
    """``(qualified name, function)`` of each public function, method and constructor."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS[:2]) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if not isinstance(member, DEFINITIONS[:2]):
                    continue
                if member.name == "__init__":
                    yield node.name, member
                elif not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def _keywords_passed(node: ast.AST, forwarded: frozenset = frozenset()):
    """Names of the keywords the calls under *node* pass, less pure forwards.

    A keyword whose value is the enclosing function's parameter of the same
    name (``x=x``) only hands the option on, so a chain of forwards counts
    as passed only where its outermost caller passes it.
    """
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        arguments = node.args
        parameters = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
        forwarded = forwarded | {argument.arg for argument in parameters}
    elif isinstance(node, ast.Call):
        for keyword in node.keywords:
            value = keyword.value
            if keyword.arg is None:
                continue
            if keyword.arg in forwarded and isinstance(value, ast.Name) and value.id == keyword.arg:
                continue
            yield keyword.arg
    for child in ast.iter_child_nodes(node):
        yield from _keywords_passed(child, forwarded)


def test_every_option_in_src_is_passed_outside_tests():
    passed = set()
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if top == "benchmarks" and path.name.startswith("test_"):
                continue
            passed.update(_keywords_passed(ast.parse(path.read_text(encoding="utf-8"))))
    unpassed = set()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for qualified, function in _public_callables(tree):
            arguments = function.args
            for argument, default in zip(arguments.kwonlyargs, arguments.kw_defaults):
                if default is not None and argument.arg not in passed:
                    unpassed.add(f"{qualified}({argument.arg}=)")
    assert unpassed <= set(ALLOWED_OPTIONS), sorted(unpassed - set(ALLOWED_OPTIONS))
    stale = set(ALLOWED_OPTIONS) - unpassed
    assert not stale, sorted(stale)  # a stale entry


#: ``"$name"`` strings the engine uses that no caller writes, each emitted by
#: the engine itself.
ALLOWED_OPERATORS = {
    "$eq": "emitted: a plain ``{path: value}`` compiles as ``$eq``, and an upsert seeds from it",
    "$phase": "emitted: the router's two halves of a split ``$group``",
}

OPERATOR = re.compile(r"\$[A-Za-z]+")


def _written_keys(tree: ast.Module):
    """The ``"$name"`` keys *tree* writes: dict keys and subscripts assigned to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            keys = [node.slice]
        else:
            continue
        for key in keys:
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                if OPERATOR.fullmatch(key.value):
                    yield key.value


def test_every_operator_the_engine_accepts_is_written_by_a_caller():
    accepted = set()
    for path in sorted((ROOT / "src" / "repro" / "documentstore").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if OPERATOR.fullmatch(node.value):
                    accepted.add(node.value)
    written = set()
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if "documentstore" in path.parts:
                continue
            if top == "benchmarks" and path.name.startswith("test_"):
                continue
            written.update(_written_keys(ast.parse(path.read_text(encoding="utf-8"))))
    unwritten = accepted - written
    assert unwritten <= set(ALLOWED_OPERATORS), sorted(unwritten - set(ALLOWED_OPERATORS))
    assert set(ALLOWED_OPERATORS) <= unwritten, sorted(set(ALLOWED_OPERATORS) - unwritten)  # stale
