"""Mapping classes acting on curves and on representations.

Free-group words use one letter per generator with case for inverses:
"a1 b1 A1" or the compact "abA" (index defaults to 1). A mapping class is
either an SL(2, Z) matrix (genus one, acting on primitive homology pairs)
or a validated free-group automorphism datum for the surface group
generators; every automorphism must fix the boundary word
[a1, b1] ... [ag, bg] on the nose.
"""

from __future__ import annotations

import re

from . import intlinalg
from .curves import NormalCurve, torus_table
from .surface import check_fields, check_genus, check_int

_TOKEN = re.compile(r"([a-zA-Z])([0-9]*)")
_WORD = re.compile(r"(?:[a-zA-Z][0-9]*)*")


def parse_word(text, genus):
    """Word as a tuple of signed generator ids: +i for a_i, -i for inverse;
    alphas occupy ids 1..g, betas g+1..2g. The text is tokens, a letter
    and an optional ASCII decimal index, and spaces; anything else is
    refused, not skipped."""
    tokens = text.replace(" ", "")
    if not _WORD.fullmatch(tokens):
        raise ValueError(f'word {text!r} is not generator tokens such as "a1 B2" or "abA"')
    out = []
    for m in _TOKEN.finditer(tokens):
        letter, idx = m.group(1), int(m.group(2) or 1)
        kind = letter.lower()
        if kind not in ("a", "b") or not (1 <= idx <= genus):
            raise ValueError(f"bad generator token {m.group(0)!r} for genus {genus}")
        gid = idx if kind == "a" else genus + idx
        out.append(-gid if letter.isupper() else gid)
    return tuple(out)


def reduce_word(word):
    out = []
    for t in word:
        if out and out[-1] == -t:
            out.pop()
        else:
            out.append(t)
    return tuple(out)


def invert_word(word):
    return tuple(-t for t in reversed(word))


def boundary_word(genus):
    """[a1, b1] [a2, b2] ... [ag, bg] as a reduced word."""
    out = []
    for i in range(1, genus + 1):
        a, b = i, genus + i
        out.extend([a, b, -a, -b])
    return tuple(out)


class FreeGroupEndo:
    """Endomorphism of the free group on a1..ag, b1..bg."""

    def __init__(self, genus, images):
        """images: {"a1": word, "b1": word, ...} (str or token tuple), "a" and "b" at genus 1."""
        if not isinstance(images, dict):
            raise ValueError(
                f'words must map generators to words, e.g. {{"a1": "ab"}}, not {images!r}'
            )
        self.genus = genus
        self.images = {}
        for i in range(1, genus + 1):
            for key, gid in ((f"a{i}", i), (f"b{i}", genus + i)):
                short = key[0] if genus == 1 else None
                if key in images and short in images:
                    raise ValueError(f'"words" gives both {key!r} and {short!r}: give one')
                w = images.get(key, images.get(short, key))
                gen_id = f"a generator id in the image of {key}"
                if isinstance(w, str):
                    w = parse_word(w, genus)
                elif not (
                    isinstance(w, (list, tuple))
                    and all(1 <= abs(check_int(t, gen_id)) <= 2 * genus for t in w)
                ):
                    raise ValueError(
                        f"the image of {key} must be a word such as \"ab\" or a "
                        f"list of generator ids in ±1..±{2 * genus}, not {w!r}"
                    )
                self.images[gid] = reduce_word(w)
        # after the images, so that a bad image (null included) names its generator
        names = [f"{x}{i}" for i in range(1, genus + 1) for x in "ab"]
        check_fields(images, '"words"', names + ["a", "b"] if genus == 1 else names)

    def apply(self, word):
        out = []
        for t in word:
            img = self.images[abs(t)]
            out.extend(img if t > 0 else invert_word(img))
        return reduce_word(out)

    def abelianization(self):
        n = 2 * self.genus
        M = [[0] * n for _ in range(n)]
        for gid in range(1, n + 1):
            for t in self.images[gid]:
                M[abs(t) - 1][gid - 1] += 1 if t > 0 else -1
        return M

    def fixes_boundary(self) -> bool:
        bw = boundary_word(self.genus)
        return self.apply(bw) == bw

    def is_valid_automorphism(self) -> bool:
        """Boundary word fixed exactly, and abelianization in GL(2g, Z)."""
        return self.fixes_boundary() and intlinalg.is_unimodular(self.abelianization())

# built-in genus-one twist generators; both fix [a, b] exactly
TWIST_ALPHA = {"a1": "a", "b1": "ba"}
TWIST_BETA = {"a1": "aB", "b1": "b"}


class MappingClass:
    """Either an SL(2,Z) matrix (genus 1) or a free-group automorphism."""

    def __init__(self, genus, matrix=None, words=None):
        if (matrix is None) == (words is None):
            raise ValueError("give exactly one of matrix or words")
        check_genus(genus)
        self.genus = genus
        self.matrix = None
        self.endo = None
        if matrix is not None:
            if genus != 1:
                raise ValueError("matrix mapping classes are genus-1 only")
            try:
                (a, b), (c, d) = matrix
                a, b, c, d = (check_int(x, "a matrix entry") for x in (a, b, c, d))
            except (TypeError, ValueError):
                raise ValueError(
                    f"matrix must be a 2x2 integer matrix [[a, b], [c, d]], not {matrix!r}"
                ) from None
            if a * d - b * c != 1:
                raise ValueError("matrix must lie in SL(2, Z)")
            self.matrix = ((a, b), (c, d))
        else:
            endo = FreeGroupEndo(genus, words)
            if not endo.is_valid_automorphism():
                raise ValueError(
                    "words do not define an automorphism fixing the boundary word"
                )
            self.endo = endo

    @staticmethod
    def from_json(obj, genus=1):
        """A JSON mapping class; its "genus", if given, replaces genus."""
        check_fields(obj, "mapping class", ("genus", "matrix", "words"))
        return MappingClass(obj.get("genus", genus), obj.get("matrix"), obj.get("words"))

    def act_on_class(self, p, q):
        """The matrix action on a homology class (matrix form only)."""
        (a, b), (c, d) = self.matrix
        return (a * p + b * q, c * p + d * q)


def act_on_curve(phi: MappingClass, curve: NormalCurve) -> NormalCurve:
    """Genus-one matrix action: map the homology class, re-trace. A word
    mapping class has no curve action here, at any genus."""
    if phi.matrix is None:
        raise ValueError(
            "a word mapping class has no curve action: supply the image curve as beta"
        )
    table = torus_table()
    if curve.tri != table.tri:
        raise ValueError("matrix action is defined on the built-in Delta_1")
    p, q = table.class_of(curve)
    # (p, q) and (-p, -q) are one unoriented curve with the same coordinates
    return table.curve(*phi.act_on_class(p, q))
