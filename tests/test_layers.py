"""The package's import layering and import hygiene, read from the source.

Parsing and data modules sit below the evaluation and analysis modules:
a trace or a corpus can be loaded without importing the model.  A module
imports only what it uses, apart from names bound on purpose for the
benchmark's tracer: their import lines say ``# noqa: F401``, and each
such name is a patch point of that module in ``perfbench/spans.py``.  And
the package needs nothing beyond the standard library.  Every Python
file of the project keeps to the grammar and the standard library of its
oldest supported Python.
The CLI's report handlers check no flag: flags are checked before any
input is read.
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


def project_sources():
    """Every Python file of the project."""
    sources = sorted(path for top in ("src", "tests", "scripts", "perfbench")
                     for path in (ROOT / top).rglob("*.py"))
    assert sources
    return sources


def test_every_python_file_parses_under_the_oldest_supported_grammar():
    # pyproject.toml declares requires-python >=3.10, so 3.11 syntax such
    # as ``except*`` must fail here even on a newer interpreter.
    rejected = []
    for path in project_sources():
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            rejected.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert rejected == []


#: Standard-library modules and names that Python 3.11 added: a whole
#: module (``None``), or names of a module, the built-ins under "builtins".
NEW_IN_3_11 = {
    "tomllib": None,
    "hashlib": {"file_digest"},
    "enum": {"StrEnum"},
    "typing": {"Self"},
    "asyncio": {"TaskGroup"},
    "builtins": {"ExceptionGroup", "BaseExceptionGroup"},
}


def newer_apis(tree):
    """The 3.11-only standard-library APIs that ``tree`` imports or reads, as
    ``line: module.name``: an import of one, ``module.name``, or a built-in."""
    def new(module, name=None):
        return module in NEW_IN_3_11 and (NEW_IN_3_11[module] is None
                                          or name in NEW_IN_3_11[module])

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node, alias.name) for alias in node.names
                      if new(*alias.name.split(".", 1))]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found += [(node, f"{node.module}.{alias.name}") for alias in node.names
                      if new(node.module, alias.name)]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and new(node.value.id, node.attr)):
            found.append((node, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.Name) and new("builtins", node.id):
            found.append((node, node.id))
    return sorted(f"{node.lineno}: {name}" for node, name in found)


def test_no_python_file_uses_a_standard_library_api_newer_than_the_oldest_supported():
    # The grammar check above passes a 3.11-only module or function, which
    # fails only when it runs on 3.10.
    used = {str(path.relative_to(ROOT)): newer_apis(ast.parse(path.read_text(encoding="utf-8")))
            for path in project_sources()}
    assert {path: names for path, names in used.items() if names} == {}


@pytest.mark.parametrize("plant, name", [
    ("import tomllib", "tomllib"),
    ("from tomllib import loads", "tomllib.loads"),
    ("digest = hashlib.file_digest(f, 'sha256')", "hashlib.file_digest"),
    ("from hashlib import file_digest", "hashlib.file_digest"),
    ("class Kind(enum.StrEnum): pass", "enum.StrEnum"),
    ("from typing import Self", "typing.Self"),
    ("raise ExceptionGroup('two', [exc])", "ExceptionGroup"),
    ("try:\n    pass\nexcept BaseExceptionGroup: pass", "BaseExceptionGroup"),
    ("group = asyncio.TaskGroup()", "asyncio.TaskGroup"),
])
def test_a_newer_standard_library_api_planted_in_a_source_is_found(plant, name):
    source = (PACKAGE / "report.py").read_text(encoding="utf-8")
    assert newer_apis(ast.parse(source)) == []
    [found] = newer_apis(ast.parse(f"{source}\n{plant}\n"))
    assert found.endswith(f": {name}")


def flag_checks(tree):
    """The ``cmd_*`` functions of ``tree`` that raise ``_UsageError`` or
    catch ``ValueError`` (a bare ``except`` or ``Exception`` included)."""
    def names(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")
            and any(isinstance(n, ast.Raise) and n.exc and "_UsageError" in names(n.exc)
                    or isinstance(n, ast.ExceptHandler) and (
                        n.type is None or names(n.type) & {"ValueError", "Exception"})
                    for n in ast.walk(node))]


def test_report_handlers_check_no_flags():
    # A handler runs after the whole input was read; a bad flag found there
    # would cost that read, and a malformed input would hide it.
    assert flag_checks(tree_of("cli")) == []


@pytest.mark.parametrize("plant", [
    "raise _UsageError('bad flag')",
    "try:\n        pass\n    except ValueError as exc:\n        raise _UsageError(str(exc))",
    "try:\n        pass\n    except Exception:\n        pass",
], ids=["raise", "catch", "catch-all"])
def test_a_flag_check_planted_in_a_handler_is_found(plant):
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    head = "def cmd_breakdown(args, pop, hw, eff, overlap):\n"
    assert source.count(head) == 1
    planted = source.replace(head, f"{head}    {plant}\n")
    assert flag_checks(ast.parse(planted)) == ["cmd_breakdown"]
