"""No module of the package imports a name it never uses: an import that
outlives the code that read it misleads a reader about where a routine
lives and what a module depends on."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hankelpath"

# bench/run.py wraps these two as attributes of hankelpath.path, so path.py
# imports them without calling them
BENCH_WRAPPED = {("path", "duality_gap"), ("path", "hankel_singular_values")}


def unused_imports(source: str) -> set[str]:
    """Names a module's source imports and never reads; a name listed in
    __all__ counts as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return imported - used


def test_the_check_sees_an_unused_import():
    source = "import math\nfrom os import path, sep\nfrom x import (a as b)\nprint(sep, b)\n"
    assert unused_imports(source) == {"math", "path"}
    assert unused_imports("from m import f\n__all__ = ['f']\n") == set()


def test_no_module_imports_a_name_it_never_uses():
    unused = {
        (module.stem, name)
        for module in sorted(SRC.glob("*.py"))
        for name in unused_imports(module.read_text(encoding="utf-8"))
    }
    assert not unused - BENCH_WRAPPED, sorted(unused - BENCH_WRAPPED)
