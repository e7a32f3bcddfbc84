"""The reference implementations do not import the shifted-grid code they check.

An oracle that reads the library's own cube family moves with it: a fault
in the family then passes the comparison.  Every ``tests/*_reference.py``
is walked with ``ast``, as ``test_dependencies.py`` walks the library, and
an import of a denied name from ``matweight``, or an attribute of that
name on anything, fails.  A name the file defines itself is its own code
(``grid_reference`` defines its own ``cube_pieces`` and
``enumerate_grid_cubes``), so it does not count.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent

# denied name -> why an oracle must not read it
DENIED = {
    "cube_pieces": "the shifted grids' leaf pieces and volumes",
    "enumerate_grid_cubes": "the shifted grids' cubes per level",
    "grid_children_index": "the shifted grids' former children gather",
    "_cube_means": "the shifted grids' former piece means",
    "_ShiftedGrid": "the shifted-grid family itself",
    "_family": "the choice of family per grid",
}


def _violations(path):
    """(line, name) of every denied name a source file imports from
    ``matweight`` or reads as an attribute, names it defines left out."""
    tree = ast.parse(path.read_text(), filename=str(path))
    own = {
        node.name for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "matweight":
            yield from ((node.lineno, a.name) for a in node.names if a.name in DENIED)
        elif isinstance(node, ast.Attribute) and node.attr in DENIED and node.attr not in own:
            yield node.lineno, node.attr


@pytest.mark.parametrize("path", sorted(TESTS.glob("*_reference.py")), ids=lambda p: p.name)
def test_reference_reads_no_shifted_grid_code(path):
    bad = [f"{path.name}:{line} reads {name} ({DENIED[name]})" for line, name in _violations(path)]
    assert not bad, bad


def test_a_denied_name_is_caught(tmp_path):
    probe = tmp_path / "probe_reference.py"
    probe.write_text(
        "from matweight.dyadic import Window, cube_pieces\n"
        "from matweight import fields\n"
        "def enumerate_grid_cubes(window, shift):\n"
        "    return fields._ShiftedGrid(window, shift).levels\n"
        "def pieces(window, cube):\n"
        "    return enumerate_grid_cubes(window, 1)\n"
    )
    assert sorted(name for _, name in _violations(probe)) == ["_ShiftedGrid", "cube_pieces"]
