"""No src/nwavelab module imports a name at module level that it never uses.

A name a module re-exports through __all__ counts as used.  Read with ast
alone, so the check imports nothing and takes a few milliseconds.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "nwavelab")


def _unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename)
            unused += [f"{filename}:{line}: {name}" for line, name in _unused_imports(tree)]
    assert unused == []


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from dataclasses import dataclass, field\n"
                     "import os.path\n"
                     "import numpy as np\n"
                     "__all__ = ['field']\n"
                     "x = np.zeros(1)\n")
    assert _unused_imports(tree) == [(1, "dataclass"), (2, "os")]
