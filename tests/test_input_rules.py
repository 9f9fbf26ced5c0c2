"""Each input rule is written once. An `ast` scan of `src` fails on a JSON
parse outside `cli._parse_json` (the one place that refuses repeated
keys), on `isinstance(..., int)`, which takes true for 1, on an exact
type test `type(...) is ...` outside `surface.check_int`, since a test
against a type held in a variable may be a second integer rule, and on a
comparison with `MAX_ORDER` outside `repvar.field_order`, the one place
that decides the field of an input."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "skeinlab"

# the one site of each rule
HOMES = {
    "json parse": ("cli", "_parse_json"),
    "type is": ("surface", "check_int"),
    "order bound": ("repvar", "field_order"),
}

# (module, enclosing function, rule): why the site stays
ALLOWED = {
    ("curves", "NormalCurve.__init__", "type is"):
        "an edge label is an int or its decimal text, so that no two labels name one edge",
    ("cli", "_config_default", "type is"):
        "a --config value has its flag's type (int, str or bool) exactly, as argparse would give",
    ("cyclotomic", "cyclotomic_polynomial", "order bound"):
        "it bounds the order of one number, not the field of an input",
    ("cyclotomic", "Cyclotomic._coerce", "isinstance int"):
        "arithmetic with a Python number, where True is the number 1 by Python's rule",
    ("cyclotomic", "Cyclotomic.__eq__", "isinstance int"):
        "comparison with a Python number, where True is the number 1 by Python's rule",
    ("poisson", "Poly.__eq__", "isinstance int"):
        "comparison with a Python number, where True is the number 1 by Python's rule",
    ("qtorus", "TorusElement.__mul__", "isinstance int"):
        "scaling by a Python number, where True is the number 1 by Python's rule",
}


def _scoped_nodes(node, scope=()):
    """(enclosing class and function names, node) of every node below node."""
    for child in ast.iter_child_nodes(node):
        inner = scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = scope + (child.name,)
        yield ".".join(inner), child
        yield from _scoped_nodes(child, inner)


def _is_name(node, name):
    return isinstance(node, ast.Name) and node.id == name


def _rule(node):
    """The rule that node writes out, or None."""
    if isinstance(node, ast.ImportFrom) and node.module == "json":
        if {alias.name for alias in node.names} & {"load", "loads"}:
            return "json parse"
    if isinstance(node, ast.Call):
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in ("load", "loads")
            and _is_name(func.value, "json")
        ):
            return "json parse"
        if _is_name(func, "isinstance") and len(node.args) == 2:
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(_is_name(kind, "int") for kind in kinds):
                return "isinstance int"
    if isinstance(node, ast.Compare) and any(
        _is_name(x, "MAX_ORDER") for x in [node.left, *node.comparators]
    ):
        return "order bound"
    if (
        isinstance(node, ast.Compare)
        and isinstance(node.left, ast.Call)
        and _is_name(node.left.func, "type")
        and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
    ):
        return "type is"
    return None


def rule_sites():
    """(module, enclosing function, rule) of every site that writes out a
    rule, each as often as it occurs."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text())):
            rule = _rule(node)
            if rule:
                sites.append((path.stem, scope, rule))
    return sites


def test_each_input_rule_is_written_once():
    sites = rule_sites()
    stray = [
        f"{module}.{scope}: {rule}"
        for module, scope, rule in sites
        if HOMES.get(rule) != (module, scope) and (module, scope, rule) not in ALLOWED
    ]
    assert not stray, f"write these through the shared rule: {', '.join(stray)}"
    for rule, home in HOMES.items():
        assert sites.count((*home, rule)) == 1, f"{rule} must be written once in {home}"
    assert set(ALLOWED) <= set(sites), "an allowed site is gone: drop it from ALLOWED"
