"""The benchmark under ``perfbench/`` calls the library by name. Each name it
imports from ``matorth``, and each attribute it reads off an imported
``matorth`` module, must still resolve, so that removing a public name
fails here before it breaks a benchmark run. The benchmark's files are only
parsed, never imported."""
import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _is_library(module: str | None) -> bool:
    return module is not None and (module == "matorth" or module.startswith("matorth."))


def _references(tree: ast.Module):
    """(module, name) for every ``from matorth... import name`` and every
    ``alias.name`` where ``import matorth... as alias`` bound the alias;
    (module, "") for the module of a plain import."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and _is_library(node.module):
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_library(alias.name):
                    yield alias.name, ""
                    if alias.asname or "." not in alias.name:
                        bound[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            yield bound[node.value.id], node.attr


def _resolves(module: str, name: str) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if not name or hasattr(mod, name):
        return True
    try:  # ``from matorth import cli`` names a submodule
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_every_library_name_the_benchmark_uses_resolves():
    refs = {(path.name, module, name)
            for path in sorted(PERFBENCH.glob("*.py"))
            for module, name in _references(ast.parse(path.read_text(), str(path)))}
    assert {("workloads.py", "matorth.weights", "build_structure"),
            ("worker.py", "matorth", "WeightParams")} <= refs
    assert sorted(ref for ref in refs if not _resolves(*ref[1:])) == []


def test_a_removed_name_is_caught():
    tree = ast.parse("import matorth\nimport matorth.missing\n"
                     "from matorth.weights import gone, WeightParams\nmatorth.also_gone\n")
    assert sorted(ref for ref in _references(tree) if not _resolves(*ref)) == [
        ("matorth", "also_gone"), ("matorth.missing", ""), ("matorth.weights", "gone")]
