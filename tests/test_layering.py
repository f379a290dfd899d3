"""The package's modules form one import order: each module imports only
modules before it, imports inside functions included, so no two modules
import each other. The package's __init__ and __main__ sit above them all."""

import ast
import pathlib

import pagecusum

LAYERS = ("model", "rng", "datagen", "detectors", "asymptotics", "wiener",
          "experiments", "cli")
PACKAGE = pathlib.Path(pagecusum.__file__).parent


def package_imports(tree: ast.AST) -> set[str]:
    """Names of the package's modules that a module's code imports."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            dotted = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 1:  # relative: from . import x, from .x import y
                base = "pagecusum." + base if base else "pagecusum"
            dotted = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] == "pagecusum" and parts[1:2] and parts[1] in LAYERS:
                found.add(parts[1])
    return found


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    assert modules - {"__init__", "__main__"} == set(LAYERS)


def test_modules_import_only_earlier_layers():
    for rank, name in enumerate(LAYERS):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        later = package_imports(tree) - set(LAYERS[:rank])
        assert not later, f"{name} imports {sorted(later)}"
