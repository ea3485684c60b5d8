"""The package's import layering and import hygiene, read from the source.

Parsing and data modules sit below the evaluation and analysis modules:
a trace or a corpus can be loaded without importing the model.  And a
module imports only what it uses, apart from names bound on purpose for
the benchmark's tracer, whose import lines say ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dlcost"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))

#: Modules that load and check inputs, and the modules they must not import.
LOWER = ("ingest", "corpus", "units", "core")
UPPER = {"aggregate", "engine", "projection", "sweep", "cli"}


def tree_of(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def imported_modules(tree):
    """The ``dlcost`` modules that ``tree`` imports, anywhere in its body."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            paths = [f"dlcost.{node.module or alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(path.split(".")[1] for path in paths if path.startswith("dlcost."))
    return found


@pytest.mark.parametrize("module", LOWER)
def test_input_modules_import_no_analysis_module(module):
    assert module in MODULES
    assert not imported_modules(tree_of(module)) & UPPER


def unused_imports(module):
    """Names that ``module`` imports but never reads, skipping import lines
    marked ``# noqa: F401``."""
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_every_import_is_used(module):
    assert unused_imports(module) == []
