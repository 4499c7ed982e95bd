"""Source hygiene of src/qcsched, read with the standard library's ast: no
module imports a name it never uses, and no private module-level name
(one leading underscore) goes unreferenced in the module that defines it;
and every name README.md cites in backticks still exists. All three are
what a deletion leaves behind when it misses its last use."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import qcsched
from qcsched import cli

MODULES = sorted(Path(qcsched.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _reads(tree: ast.Module) -> set:
    """Every name the module reads; in a package's __init__, also the
    names its ``__all__`` re-exports."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                               ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def _imported(tree: ast.Module) -> list:
    """(line, bound name) of every import, at any depth."""
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(node.lineno, (a.asname or a.name).split(".")[0])
                      for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(node.lineno, a.asname or a.name) for a in node.names]
    return bound


def _private_definitions(tree: ast.Module) -> list:
    """(line, name) of each module-level def, class or assignment whose
    name has one leading underscore."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defined.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            defined += [(node.lineno, t.id) for target in targets
                        for t in ast.walk(target) if isinstance(t, ast.Name)]
    return [(line, name) for line, name in defined
            if name.startswith("_") and not name.startswith("__")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = _parse(path)
    reads = _reads(tree)
    unused = [f"{path.name}:{line} {name}"
              for line, name in _imported(tree) if name not in reads]
    assert not unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unreferenced_private_name(path):
    tree = _parse(path)
    reads = _reads(tree)
    unreferenced = [f"{path.name}:{line} {name}"
                    for line, name in _private_definitions(tree)
                    if name not in reads]
    assert not unreferenced


def _cited_names(text: str) -> set:
    """The dotted names (a.b, a.b.c, ...) inside README's inline code spans,
    outside its fenced blocks."""
    text = re.sub(r"^```.*?^```", "", text, flags=re.M | re.S)
    dotted = r"(?<![\w.])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+"
    return {name for span in re.findall(r"`([^`]+)`", text)
            for name in re.findall(dotted, span)}


def test_readme_cites_only_names_that_exist():
    # a name counts when its first part is a qcsched module or a public
    # qcsched name; config keys (cli.SCHEMA) and file names are not names
    modules = {path.stem for path in MODULES} - {"__init__"}
    public = set(qcsched.__all__)
    stale = []
    for name in sorted(_cited_names(README.read_text(encoding="utf-8"))):
        head, *rest = name.removeprefix("qcsched.").split(".")
        if (name in cli.SCHEMA or rest[-1:] in (["py"], ["json"], ["csv"])
                or head not in modules | public):
            continue
        obj = (importlib.import_module(f"qcsched.{head}") if head in modules
               else getattr(qcsched, head))
        for attr in rest:
            if not hasattr(obj, attr):
                stale.append(name)
                break
            obj = getattr(obj, attr)
    assert not stale
