"""The package's modules form one import order: each module imports only
modules before it, imports inside functions included, so no two modules
import each other. The package's __init__ and __main__ sit above them all.
No module imports a name that it never uses, and none imports numpy when
it is itself imported: each binds it through model._numpy."""

import ast
import pathlib

import pagecusum

LAYERS = ("model", "rng", "datagen", "detectors", "asymptotics", "wiener",
          "experiments", "cli")
PACKAGE = pathlib.Path(pagecusum.__file__).parent
TRACING = PACKAGE.parent.parent / "perfbench" / "tracing.py"


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


def traced_names() -> set[tuple[str, str]]:
    """The (module, name) pairs of perfbench/tracing.py's TARGETS, which the
    benchmark's tracer looks up on each module with getattr."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    (value,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["TARGETS"]]
    return set(ast.literal_eval(value))


def unused_imports(tree: ast.AST) -> set[str]:
    """Names that a module's imports bind and its code never loads."""
    bound, loaded = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            bound |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
    return bound - loaded


def test_modules_use_every_name_they_import():
    # a name kept only for the benchmark's tracer is the one exception
    traced = traced_names()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unused = {name for name in unused_imports(tree)
                  if (path.stem, name) not in traced}
        assert not unused, f"{path.stem} never uses {sorted(unused)}"


def import_time_nodes(node: ast.AST):
    """The nodes of a module that run when it is imported: all but those
    inside its functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
            yield child
            yield from import_time_nodes(child)


def names_numpy(node: ast.AST) -> bool:
    """Whether node is an import statement of numpy or a numpy submodule."""
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = [node.module]
    else:
        return False
    return any(name == "numpy" or name.startswith("numpy.")
               for name in names)


def test_numpy_is_bound_only_through_the_helper():
    # np = model._numpy() loads numpy at the first array, so a command that
    # makes none loads none; imports inside functions load at the call
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [n.lineno for n in import_time_nodes(tree) if names_numpy(n)]
        assert not lines, f"{path.stem} imports numpy at line {lines}"
