"""One fork protocol: ``os.fork`` is called only in ``core._forking``, and
``_forking`` only by ``core._map_forked`` and ``cli._write_dataset``."""

import ast
import functools
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sedfuse"


@functools.cache
def _definitions() -> list[tuple[str, list[ast.AST]]]:
    """``module.name`` and the nodes of each top-level definition of sedfuse
    (``module.<module>`` for other top-level code)."""
    definitions = []
    for path in sorted(SRC.glob("*.py")):
        for statement in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            name = getattr(statement, "name", "<module>")
            definitions.append((f"{path.stem}.{name}", list(ast.walk(statement))))
    return definitions


def _owners(matches) -> set[str]:
    """The definitions that hold a node for which ``matches`` is true."""
    return {owner for owner, nodes in _definitions() if any(map(matches, nodes))}


def test_only_forking_forks():
    assert _owners(lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "fork"
        or isinstance(node, ast.alias) and node.name == "fork"
    )) == {"core._forking"}


def test_forking_has_two_callers():
    assert _owners(lambda node: (
        isinstance(node, ast.Name) and node.id == "_forking"
        or isinstance(node, ast.Attribute) and node.attr == "_forking"
    )) == {"core._map_forked", "cli._write_dataset"}
