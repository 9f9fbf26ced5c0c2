"""Every function in `src` is reached from `src`: a top-level function or a
class method that only tests call is API that no command or `selftest`
uses. The scan reads code references (`ast.Name` and `ast.Attribute`),
not text, since docstrings mention names too. It matches names, not
objects, so one reference reaches every method of that name."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "skeinlab"

# (module, qualified name): why it stays although nothing in src names it
ALLOWED = {
    ("intlinalg", "reduce_mod_rows"): "a perfbench/tracer.py target (intlinalg.reduce_calls)",
    ("intlinalg", "solve_integer"): "a perfbench/tracer.py target (intlinalg.solve_integer)",
    ("cli", "_Parser.error"): "argparse calls it on every bad command line",
}


def _definitions(tree):
    """(qualified name, node) of each top-level function and class method,
    dunders excepted."""
    for node in tree.body:
        members = [node]
        if isinstance(node, ast.ClassDef):
            members = node.body
        for member in members:
            if isinstance(member, ast.FunctionDef):
                name = member.name
                if not (name.startswith("__") and name.endswith("__")):
                    prefix = f"{node.name}." if member is not node else ""
                    yield prefix + name, member


def _references(tree):
    """(name, line) of every Name and Attribute in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreached():
    """"module.qualified_name" of each definition that no reference in src
    names outside the definition's own lines."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = {}
    for module, tree in trees.items():
        for name, line in _references(tree):
            refs.setdefault(name, []).append((module, line))
    out = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            reached = any(
                m != module or not node.lineno <= line <= node.end_lineno
                for m, line in refs.get(node.name, [])
            )
            if not reached and (module, qualname) not in ALLOWED:
                out.append(f"{module}.{qualname}")
    return out


def test_every_src_function_is_reached_from_src():
    found = unreached()
    assert not found, f"named nowhere else in src: {', '.join(found)}"

