"""No private helper outlives its last reader: every module-level name of the
package that starts with one underscore (a function, a class or a constant)
is read somewhere in the package's own source.  Tests do not count as
readers: a helper only tests call is code the package no longer needs."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hankelpath"


def private_definitions(tree: ast.Module) -> set[str]:
    """The _x names a module defines at its top level; dunder names such as
    __all__ are not private helpers."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names |= {t.id for t in node.targets if isinstance(t, ast.Name)}
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def reads(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names and attributes.  An import is no
    read; test_imports.py sees an import that nothing reads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load))
        or isinstance(node, ast.Attribute)
    }


def unread_private_names(sources: dict[str, str]) -> set[tuple[str, str]]:
    """(module, name) of each private module-level name that no source reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(reads, trees.values()))
    return {
        (module, name)
        for module, tree in trees.items()
        for name in private_definitions(tree) - read
    }


def test_the_check_sees_an_unread_helper():
    sources = {
        "a": "_K = 2\n_LEFT = 1\ndef _used(x):\n    return x * _K\n"
             "def _left(c):\n    return c\nclass _Gone:\n    pass\n__all__ = []\n",
        "b": "from .a import _used, _left\nprint(_used(3))\n",
        "c": "import a\nprint(a._LEFT)\n",
    }
    # _left is imported but never read, _Gone read nowhere
    assert unread_private_names(sources) == {("a", "_left"), ("a", "_Gone")}


def test_every_private_name_is_read_in_the_package():
    sources = {m.stem: m.read_text(encoding="utf-8") for m in sorted(SRC.glob("*.py"))}
    unread = unread_private_names(sources)
    assert not unread, sorted(unread)
