"""Every public function, class and method in ``src/`` has a caller outside ``tests/``.

One ``ast`` pass over ``src/``, ``benchmarks/`` and ``examples/`` counts the
names read there (``Name``, ``Attribute`` and identifier strings, which cover
``getattr``/``methodcaller`` dispatch; ``__all__`` and a definition's own body
do not count).  The check is by name only: a dead method whose name another
class shares still passes, as ``Database.command`` did beside
``RemoteDatabase.command``.  Keeping test-only code is a choice made here.
"""

from __future__ import annotations

import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Public names only tests reach, each kept as an instrument or an oracle.
ALLOWED = {
    "Cursor.alive": "whether a cursor is exhausted, for the cursor tests",
    "Balancer.needs_balancing": "the imbalance check of the balancer tests",
    "CompiledPipeline.stage_labels": "the compiled stages, for the streaming-aggregation tests",
    "TableSchema.column_names": "column order, for the schema and generator tests",
    "paper_row_counts": "the Table 3.6 fidelity oracle",
    "date_sk_for": "the generator's date-key oracle",
    "matches": "the fresh-compile reference for compile_matcher",
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
