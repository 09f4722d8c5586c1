"""Import hygiene: no module under src/ or tests/ imports a name it never
uses, unless the import carries # noqa: F401 (a name kept importable for
other modules). No linter ships with the project, so the stdlib ast reads
each module: a name counts as used wherever the module reads it, in any
scope, annotations included."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")])


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every name source imports and never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        imported += [(node.lineno, alias.asname or alias.name.partition(".")[0])
                     for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = "import os\nimport re  # noqa: F401\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == [(1, "os"), (3, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []
