"""Import hygiene: no module under src/ or tests/ imports a name it never
uses, unless the import carries # noqa: F401 (a name kept importable for
other modules), and the package's modules import one another without a
cycle. No linter ships with the project, so the stdlib ast reads each
module: a name counts as used wherever the module reads it, in any scope,
annotations included, and an import counts wherever it stands, under
TYPE_CHECKING included."""

import ast
import graphlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")])
PACKAGE = "secureftl"


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


def package_imports(sources: dict[str, str]) -> dict[str, set[str]]:
    """Each module of the flat package PACKAGE, given as {name: source}, to
    the set of its other modules it imports, relatively or absolutely."""
    graph = {}
    for name, source in sources.items():
        graph[name] = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                dotted = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = f"{PACKAGE}.{node.module or ''}" if node.level else node.module or ""
                # from <package> import <module> names the module as an alias.
                dotted = [base] + [f"{base.rstrip('.')}.{alias.name}" for alias in node.names]
            else:
                continue
            graph[name] |= {parts[1] for parts in (d.split(".") for d in dotted)
                            if len(parts) > 1 and parts[0] == PACKAGE
                            and parts[1] in sources and parts[1] != name}
    return graph


def test_the_check_finds_an_import_cycle():
    sources = {"a": "from .b import x\n",
               "b": "from typing import TYPE_CHECKING\nif TYPE_CHECKING:\n    from .a import y\n",
               "c": f"import {PACKAGE}.a\nfrom {PACKAGE} import b\n"}
    assert package_imports(sources) == {"a": {"b"}, "b": {"a"}, "c": {"a", "b"}}
    with pytest.raises(graphlib.CycleError):
        graphlib.TopologicalSorter(package_imports(sources)).prepare()


def test_package_imports_form_no_cycle():
    sources = {path.stem: path.read_text() for path in ROOT.glob(f"src/{PACKAGE}/*.py")}
    try:
        graphlib.TopologicalSorter(package_imports(sources)).prepare()
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {' -> '.join(exc.args[1])}")
