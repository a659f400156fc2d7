"""One fork protocol: ``os.fork`` is called only in ``core._forking``,
``_forking`` only by ``core._dealt`` and ``cli._write_dataset``, and only
``_dealt`` raises or catches ``_NoChild``. One owner per format: JSON is
encoded only by ``core._json_lines`` (JSONL records), ``core.write_json``
(documents) and the summary ``cli.cmd_spl`` prints, and decoded only by
``core._records`` (a JSONL line's fields beside decoded posteriors),
``core._json_object`` (JSONL records and documents) and the grid decoder's
cell fallback ``core._number``; only ``core._located``
raises a caught ``ValidationError`` again. The grid writer hands its arrays
to ``_json_line``, never a ``tolist()``."""

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
    )) == {"core._dealt", "cli._write_dataset"}


def test_only_the_dealer_names_no_child():
    assert _owners(lambda node: (
        isinstance(node, ast.Name) and node.id == "_NoChild"
        or isinstance(node, ast.Attribute) and node.attr == "_NoChild"
        or isinstance(node, ast.alias) and node.name == "_NoChild"
        or isinstance(node, ast.ClassDef) and node.name == "_NoChild"
    )) == {"core._dealt", "core._NoChild"}


def test_json_is_encoded_by_its_owners():
    assert _owners(lambda node: (
        isinstance(node, ast.Attribute) and node.attr == "dumps"
        or isinstance(node, ast.alias) and node.name == "dumps"
    )) == {"core._json_lines", "core.write_json", "cli.cmd_spl"}


def test_json_is_decoded_by_its_owners():
    # So every error of a JSON input has one owner: a grid line the decoder
    # does not take is read whole by ``_records``.
    assert _owners(lambda node: (
        isinstance(node, ast.Attribute) and node.attr in ("loads", "load")
        and isinstance(node.value, ast.Name) and node.value.id == "json"
        or isinstance(node, ast.ImportFrom) and node.module == "json"
    )) == {"core._records", "core._json_object", "core._number"}


def test_grid_writer_never_lists_its_floats():
    # The array encoder makes the same bytes as json.dumps of a tolist(), at a
    # fraction of the cost; a tolist() here would fall back to the slow path.
    assert "core.write_framegrids" not in _owners(
        lambda node: isinstance(node, ast.Attribute) and node.attr == "tolist"
    )


def _raises_caught_validation_error_again(node) -> bool:
    """An ``except`` clause for ``ValidationError`` that raises a new exception,
    other than a ``ParseError`` of the line at fault."""
    if not isinstance(node, ast.ExceptHandler) or node.type is None:
        return False
    caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
    if not any(isinstance(name, ast.Name) and name.id == "ValidationError" for name in caught):
        return False
    return any(
        isinstance(raised, ast.Raise) and isinstance(raised.exc, ast.Call)
        and not (isinstance(raised.exc.func, ast.Name) and raised.exc.func.id == "ParseError")
        for raised in ast.walk(node)
    )


def test_only_located_names_the_place_of_a_validation_error():
    assert _owners(_raises_caught_validation_error_again) == {"core._located"}
