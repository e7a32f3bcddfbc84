"""The library imports only the standard library, numpy and itself.

numpy is its one declared dependency (pyproject.toml); scipy may be
installed alongside but is not declared, so an import of it, or of any
other third-party package, fails here.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "matweight"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "matweight"}


def _imports(path):
    """(line, top-level module) of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_declared(path):
    bad = [f"{path.name}:{line} imports {name}" for line, name in _imports(path) if name not in ALLOWED]
    assert not bad, bad


def test_an_undeclared_import_is_caught(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import numpy as np\nfrom . import fields\n\ndef f():\n    from scipy.sparse import linalg\n")
    assert [name for _, name in _imports(probe) if name not in ALLOWED] == ["scipy"]
