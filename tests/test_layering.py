"""The package is layered: each module imports only modules below it, and
only at module level, so no import cycle is resolved at call time."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "char2forms"

# bottom first; `__init__` re-exports every layer and sits above them all
LAYERS = ["errors", "fields", "linalg", "forms", "exterior", "kalgebra", "_smallfield",
          "groups", "oracle", "cli"]


def _package_imports(tree) -> list[str]:
    """The sibling modules imported anywhere in the tree, relatively or as
    `char2forms.<name>`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module.startswith("char2forms."):
                    found.append(module.split(".")[1])
            elif module:
                found.append(module.split(".")[0])
            else:  # from . import a, b
                found += [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [alias.name.split(".")[1] for alias in node.names
                      if alias.name.startswith("char2forms.")]
    return found


def _functions_with_imports(tree) -> list[str]:
    """The names of the functions that hold an import statement."""
    names = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, (ast.Import, ast.ImportFrom)) and function is not None:
            names.append(function)
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return names


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == set(LAYERS) | {"__init__"}


def test_modules_import_only_lower_layers_at_module_level():
    problems = []
    for name in LAYERS:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        problems += [f"{name} imports {imported}" for imported in _package_imports(tree)
                     if imported not in LAYERS[:LAYERS.index(name)]]
        problems += [f"{name}.{function} imports inside a function"
                     for function in _functions_with_imports(tree)]
    assert problems == []
