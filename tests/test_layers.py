"""The package's import layering and import hygiene, read from the source.

Parsing and data modules sit below the evaluation and analysis modules:
a trace or a corpus can be loaded without importing the model.  A module
imports only what it uses, apart from names bound on purpose for the
benchmark's tracer: their import lines say ``# noqa: F401``, and each
such name is a patch point of that module in ``perfbench/spans.py``.  And
the package needs nothing beyond the standard library.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dlcost"
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


def patch_points():
    """The (module, name) pairs that the benchmark's tracer patches, read
    from the literal ``PATCH_POINTS`` in ``perfbench/spans.py``."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    [points] = [node.value for node in tree.body
                if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "PATCH_POINTS"]
    return {(module, name) for module, name, *_ in ast.literal_eval(points)}


def unused_imports(module):
    """Names that ``module`` imports but never reads, skipping those on
    import lines marked ``# noqa: F401`` that the tracer patches in it."""
    source = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    patched = {name for owner, name in patch_points() if owner == module}
    imported = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if not (noqa and name in patched):
                imported.add(name)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_every_import_is_used(module):
    assert unused_imports(module) == []


def top_level_imports(tree):
    """The first component of every absolute module name that ``tree`` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("module", MODULES)
def test_imports_only_the_standard_library(module):
    # pyproject.toml declares no dependencies; an installed third-party
    # package (numpy, say) would otherwise import without complaint.
    foreign = [name for name in top_level_imports(tree_of(module))
               if name != "dlcost" and name not in sys.stdlib_module_names]
    assert foreign == []
