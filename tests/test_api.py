"""The package's public surface: every exported name must resolve, and so
must every lookup name the benchmark's tracer binds; and no module keeps an
import it never uses."""

import ast
import pathlib

import cloudrca
from perfbench.tracer import Tracer


def test_every_exported_name_resolves():
    missing = [name for name in cloudrca.__all__ if not hasattr(cloudrca, name)]
    assert missing == []


def test_every_benchmark_binding_resolves():
    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.missing == []


def _unused_imports(path):
    """(line, name) of each name a module imports and never reads; an
    import statement marked ``# noqa: F401`` is exempt."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    package = pathlib.Path(cloudrca.__file__).parent
    unused = {
        path.name: _unused_imports(path)
        for path in sorted(package.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert {name: found for name, found in unused.items() if found} == {}
