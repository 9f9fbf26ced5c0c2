"""Free Z-modules with a skew-symmetric integer pairing."""

from __future__ import annotations

from . import intlinalg


class SkewLattice:
    """A free Z-module with a skew-symmetric form matrix, which is all that
    equality compares: the name is a label."""

    def __init__(self, form, name=""):
        intlinalg.check_skew(form)
        self.rank = len(form)
        self.form = [list(row) for row in form]
        self.name = name

    def pairing(self, a, b) -> int:
        return intlinalg.bilinear(a, self.form, b)

    def kernel_mod(self, N):
        """HNF basis of {a : (a, b) == 0 mod N for all b}. Contains N*Z^rank."""
        return intlinalg.kernel_mod(self.form, N)

    def __eq__(self, other):
        return isinstance(other, SkewLattice) and other.form == self.form

    def __hash__(self):
        return hash(tuple(map(tuple, self.form)))

    def __repr__(self):
        return f"SkewLattice(rank={self.rank}, name={self.name!r})"
