"""The runtime is stdlib-only: every import in the package's modules is
relative or names a standard-library module.  The test environment has
pytest and hypothesis installed, so importing the package would not catch
a stray dependency; reading the sources does."""

import ast
import pathlib
import sys

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "mkpsim"


def imported_modules(path: pathlib.Path):
    """The absolute module names ``path`` imports, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_every_import_is_relative_or_stdlib():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources, f"no modules under {PACKAGE}"
    outside = [
        (path.name, name)
        for path in sources
        for name in imported_modules(path)
        if name.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
