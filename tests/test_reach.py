"""Every function in `src` runs when the commands run: a function or method
that no command reaches is API that only tests use.

A fresh interpreter, whose caches no other test has filled, runs the user
corpus through `cli.main` under `sys.setprofile`: every README CLI example
with its files, the golden `detect --batch`, `selftest`, and every
MALFORMED row of test_cli.py, as argv and, where it has one, as a batch
slot. The test then names each function, method or lambda defined in `src`
(nested ones too) whose code never ran. Objects are matched, not names, so one
reached method of a name reaches no other method of that name."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

from test_cli import MALFORMED, File
from test_perfbench_targets import _load_tracer
from test_readme import EXAMPLES, FILES

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "skeinlab"

# Python calls these itself (repr in an error message, dict and set keys),
# so a run that never needs one says nothing of whether it is used.
EXEMPT = ("__repr__", "__eq__", "__hash__")

# "module.qualified name": why it stays although no command runs it
ALLOWED = {
    "intlinalg.smith_normal_form": "a perfbench/tracer.py target (intlinalg.snf)",
    "intlinalg.solve_integer": "a perfbench/tracer.py target (intlinalg.solve_integer)",
    "intlinalg.reduce_mod_rows": "a perfbench/tracer.py target (intlinalg.reduce_calls)",
    "intlinalg.sublattice_index": "a perfbench/tracer.py target (intlinalg.sublattice_index)",
    "surface.RefinedLattice.pi_degree": "a perfbench/tracer.py target (surface.refined.pi_degree)",
    "surface.BalancedLattice.coordinates": "a perfbench/tracer.py target "
    "(surface.balanced.coordinates)",
    "qtorus.QuantumTorus.zero": "keeps TorusElement free of zero terms: the product of a "
    "monomial with a zero coefficient or by the scalar 0",
}

# runs each argv of the corpus read from stdin and prints (file, qualified
# name) of every function that ran
CHILD = r"""
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

corpus = json.load(sys.stdin)
ran = set()


def profile(frame, event, arg):
    if event == "call":
        ran.add(frame.f_code)


sys.setprofile(profile)
from skeinlab import cli

for argv in corpus:
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.main(argv)
    except SystemExit:
        pass
sys.setprofile(None)
json.dump(sorted({(code.co_filename, code.co_qualname) for code in ran}), sys.stdout)
"""


def _corpus(tmp_path):
    """The argv of each corpus run, with the files they name written to
    tmp_path, the directory that they run in."""
    for name, obj in FILES.items():
        (tmp_path / name).write_text(json.dumps(obj))
    golden = json.loads((ROOT / "tests" / "fixtures" / "detect_golden.json").read_text())
    corpus = [list(example.values[0]) for example in EXAMPLES]
    corpus += [["detect", "--batch", json.dumps(golden["requests"])], ["selftest"]]
    for i, row in enumerate(MALFORMED):
        argv, _, batch = row.values
        argv = list(argv)
        for j, arg in enumerate(argv):
            if isinstance(arg, File):
                path = tmp_path / f"arg{i}"
                path.mkdir() if arg.text is None else path.write_text(arg.text)
                argv[j] = str(path)
        corpus.append(argv)
        if batch is not None:
            corpus.append(["detect", "--batch", json.dumps([batch])])
    return corpus


def _definitions(node, prefix=""):
    """(qualified name, as in co_qualname) of each function, method and
    lambda under node, at any depth."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.Lambda)):
            name = getattr(child, "name", "<lambda>")
            yield prefix + name
            yield from _definitions(child, f"{prefix}{name}.<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from _definitions(child, f"{prefix}{child.name}.")
        else:
            yield from _definitions(child, prefix)


def never_ran(tmp_path):
    """"module.qualified name" of each definition in src that the corpus
    never ran, and every definition's."""
    result = subprocess.run(
        [sys.executable, "-c", CHILD],
        input=json.dumps(_corpus(tmp_path)),
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=True,
    )
    ran = {tuple(entry) for entry in json.loads(result.stdout)}
    defined, missed = [], []
    for path in sorted(SRC.glob("*.py")):
        for qualname in _definitions(ast.parse(path.read_text())):
            name = f"{path.stem}.{qualname}"
            defined.append(name)
            if (str(path), qualname) not in ran and qualname.rsplit(".", 1)[-1] not in EXEMPT:
                missed.append(name)
    return missed, defined


def test_every_src_function_is_reached_from_src(tmp_path):
    missed, defined = never_ran(tmp_path)
    assert set(ALLOWED) <= set(defined), "an allowed name defines nothing"
    found = [name for name in missed if name not in ALLOWED]
    assert not found, f"no command runs: {', '.join(found)}"


def test_every_tracer_exemption_names_a_tracer_target():
    # an exemption for a tracer target lapses with the target
    targets = {f"{module[len('skeinlab.'):]}.{path}" for module, path, *_ in _load_tracer().TARGETS}
    pinned = [name for name, why in ALLOWED.items() if "perfbench/tracer.py target" in why]
    assert pinned
    assert [name for name in pinned if name not in targets] == []
