"""Layout guards on src/plinth: every function, class and method defined
there is referenced somewhere in the source, the tests, the benchmark or
the README, outside its own definition; and no assert statement appears."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "plinth").glob("*.py"))
SEARCHED = ("src", "tests", "perfbench")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree):
    """(name, is_method, node) for module-level functions and classes and
    for the methods of module-level classes, dunder methods left out."""
    for node in tree.body:
        if isinstance(node, DEFS):
            yield node.name, False, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, DEFS) and not re.fullmatch(r"__\w+__", item.name):
                    yield item.name, True, item


def _references(tree):
    """(name, lineno, as_attribute) for every identifier a module uses:
    plain names, imported names, attribute names and string constants that
    are identifiers (as in getattr and monkeypatch.setattr)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno, True


def find_unreferenced():
    refs = []  # (path, name, lineno, as_attribute)
    for top in SEARCHED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            refs.extend((path, *ref) for ref in _references(tree))
    readme = (ROOT / "README.md").read_text()
    unreferenced = []
    for path in SOURCES:
        for name, is_method, node in _definitions(ast.parse(path.read_text())):
            own = range(node.lineno, node.end_lineno + 1)
            used = any(
                ref_name == name and (as_attribute or not is_method)
                and not (ref_path == path and line in own)
                for ref_path, ref_name, line, as_attribute in refs
            )
            if not used and not re.search(r"\b%s\b" % re.escape(name), readme):
                unreferenced.append("%s:%d %s" % (path.name, node.lineno, name))
    return unreferenced


def test_every_definition_is_referenced():
    assert find_unreferenced() == []


def test_no_assert_statement_in_the_source():
    # python -O strips assert statements, and every certificate re-check
    # must still run under it; a re-check raises CertificateError instead
    found = ["%s:%d" % (path.name, node.lineno) for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []
