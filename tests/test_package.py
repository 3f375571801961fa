"""Package-wide source checks."""

import ast
import sys
from pathlib import Path

import actseg

PACKAGE = Path(actseg.__file__).resolve().parent


def _defined_private_names(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _referenced_names(tree: ast.Module) -> set[str]:
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
    return refs


def test_private_names_are_referenced():
    # A helper whose last caller was deleted must go with it.
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    referenced = set().union(*map(_referenced_names, trees.values()))
    orphans = [f"{module}:{name}" for module, tree in trees.items()
               for name in _defined_private_names(tree) if name not in referenced]
    assert orphans == []


def test_imports_are_stdlib_numpy_or_the_package():
    # NumPy is the only runtime dependency.
    allowed = sys.stdlib_module_names | {"numpy", PACKAGE.name}
    imported = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                imported += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((path.name, node.module))
    assert len(imported) > 10
    assert [(m, name) for m, name in imported if name.split(".")[0] not in allowed] == []


def _run_length_scans(tree: ast.Module) -> list[str]:
    """Calls of flatnonzero on a `!=` comparison: the idiom that finds where runs change."""
    return [ast.unparse(node) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "flatnonzero" and node.args
            and isinstance(node.args[0], ast.Compare)
            and any(isinstance(op, ast.NotEq) for op in node.args[0].ops)]


def test_only_core_run_length_encodes():
    # core.runs is the one run-length encoder; a second copy would carry its
    # own edge cases (the empty array, the last run's end).
    scans = {path.name: _run_length_scans(ast.parse(path.read_text(), str(path)))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert scans.pop("core.py")  # the scan sees core's own encoder
    assert {name: found for name, found in scans.items() if found} == {}


def _file_writes(tree: ast.Module) -> list[str]:
    """Imports of tempfile or shutil, and calls that open, write or rename files."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name.split(".")[0] in ("tempfile", "shutil")]
        elif isinstance(node, ast.ImportFrom) and node.module in ("tempfile", "shutil"):
            found.append(node.module)
        elif isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Name) and func.id == "open"
                    or isinstance(func, ast.Attribute)
                    and (func.attr in ("write_text", "write_bytes")
                         or func.attr in ("replace", "rename", "open")
                         and isinstance(func.value, ast.Name) and func.value.id == "os")):
                found.append(ast.unparse(func))
    return found


def test_only_dataio_opens_or_renames_files():
    # dataio._write_all stages every output and removes it on failure; a
    # second writer would need a second cleanup.
    writers = {path.name: _file_writes(ast.parse(path.read_text(), str(path)))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert writers.pop("dataio.py")  # the scan sees dataio's own writes
    assert {name: found for name, found in writers.items() if found} == {}


def _process_machinery(tree: ast.Module) -> set[str]:
    """Imports of multiprocessing, concurrent or threading, and uses of os.fork or os._exit."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
        elif (isinstance(node, ast.Attribute) and node.attr in ("fork", "_exit")
              and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.add(ast.unparse(node))
    return {name for name in found if name in ("os.fork", "os._exit")
            or name.split(".")[0] in ("multiprocessing", "concurrent", "threading")}


def test_only_cli_forks_and_no_module_imports_a_pool_or_threads():
    # cli's fork pool is safe because the package starts no thread, and
    # os._exit skips the cleanup a library caller's interpreter relies on.
    found = {path.name: _process_machinery(ast.parse(path.read_text(), str(path)))
             for path in sorted(PACKAGE.glob("*.py"))}
    assert found.pop("cli.py") == {"os.fork", "os._exit"}  # the scan sees cli's own
    assert {name: names for name, names in found.items() if names} == {}
