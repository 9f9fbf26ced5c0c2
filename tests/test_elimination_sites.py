"""The gcd elimination step is taken in few places. An `ast` scan of
`intlinalg` fails on a use of `_eliminator` outside `_clear_column` (the
one row loop, which `hnf_mod` and `diagonalize` share over Z and mod m),
`diagonalize`'s one column step and the sites in `ALLOWED`, so that no
second diagonalization or row loop comes back unseen."""

import ast
from pathlib import Path

INTLINALG = Path(__file__).resolve().parents[1] / "src" / "skeinlab" / "intlinalg.py"

# enclosing function: why it takes the step itself
ALLOWED = {
    "_clear_column": "the one row loop, over Z or mod m, of `hnf_mod` and `diagonalize`",
    "diagonalize": "its column step, which clears the pivot row by column steps",
    "hnf": "the HNF over Z, the reference that `hnf_mod` is tested against",
    "smith_normal_form": "the Smith form over Z, the reference of `solve_integer` and the kernel oracle",
    "skew_normal_form": "a congruence, whose every step acts on rows and columns at once",
}

# sites that take the step exactly once
ONCE = ("_clear_column", "diagonalize")


def eliminator_uses():
    """The enclosing top-level name of each use of `_eliminator`, as often
    as it occurs."""
    uses = []
    for top in ast.parse(INTLINALG.read_text()).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id == "_eliminator":
                uses.append(getattr(top, "name", "<module>"))
    return uses


def test_the_elimination_step_is_taken_in_the_one_row_loop_and_the_references():
    uses = eliminator_uses()
    stray = sorted(set(uses) - set(ALLOWED))
    assert not stray, f"clear rows through `_clear_column`: {', '.join(stray)}"
    for name in ONCE:
        assert uses.count(name) == 1, f"{name} must take the step once"
    assert set(ALLOWED) <= set(uses), "an allowed site is gone: drop it from ALLOWED"
