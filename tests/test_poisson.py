import pytest

from skeinlab.poisson import (
    D_TABLE,
    GENERATORS,
    STS_TABLE,
    DualNumber,
    PoissonAlgebra,
    a,
    b,
    c,
    d,
    bracket_tables_from_r_matrix,
    verify_r_matrix_expansion,
)


def test_drinfeld_table():
    P = PoissonAlgebra("D")
    assert P.bracket(a, b) == -a * b
    assert P.bracket(a, c) == -a * c
    assert P.bracket(b, c) == 0
    assert P.bracket(d, b) == d * b
    assert P.bracket(d, c) == d * c
    assert P.bracket(a, d) == -2 * b * c


def test_sts_table():
    P = PoissonAlgebra("STS")
    assert P.bracket(d, a) == 0
    assert P.bracket(c, d) == 2 * a * c
    assert P.bracket(d, b) == 2 * a * b
    assert P.bracket(b, a) == 2 * a * b
    assert P.bracket(a, c) == 2 * a * c
    assert P.bracket(c, b) == 2 * a * (a - d)


def test_antisymmetry_and_leibniz():
    for variant in ("D", "STS"):
        P = PoissonAlgebra(variant)
        f = a * d - b * c
        assert P.bracket(f, f) == 0
        assert P.bracket(a, b) == -P.bracket(b, a)
        # Leibniz: {a, b*c} = {a,b} c + b {a,c}
        assert P.bracket(a, b * c) == P.bracket(a, b) * c + b * P.bracket(a, c)


def test_jacobi_identity():
    for variant in ("D", "STS"):
        report = PoissonAlgebra(variant).jacobi_report()
        assert report["allZero"], report


def test_determinant_is_poisson_central():
    for variant in ("D", "STS"):
        assert PoissonAlgebra(variant).preserves_determinant()


def test_bracket_tables_derive_from_r_matrix():
    report = bracket_tables_from_r_matrix()
    # the Drinfeld matrix equation reproduces its table exactly
    assert report["D"]["matchesDisplayedTable"]
    # the STS matrix equation evaluates to minus the displayed table (the
    # Alekseev-Malkin sign); the harness records the flip rather than
    # repairing either side
    assert not report["STS"]["matchesDisplayedTable"]
    assert report["STS"]["matchesUpToGlobalSign"]


def test_r_matrix_expansion():
    checks = verify_r_matrix_expansion()
    assert checks["eq31_first"]
    assert checks["eq31_second"]
    assert checks["eq32_first"]
    assert checks["eq32_second"]
    assert checks["tau_squared_identity"]
    assert checks["r_plus_tau_conjugate"]
    assert checks["all"]


def test_dual_numbers():
    one = DualNumber(1)
    h = DualNumber(0, 1)
    assert (one + h) * (one + -1 * h) == one
    assert h * h == DualNumber(0)
    assert 2 * DualNumber(2, 3) + 1 == DualNumber(5, 6)


def test_brackets_agree_with_sympy():
    """Independent oracle: brackets of all monomials of degree <= 2,
    recomputed in sympy."""
    sympy = pytest.importorskip("sympy")
    syms = sympy.symbols("a b c d")

    def to_sympy(p):
        if isinstance(p, int):
            return sympy.Integer(p)
        return sum(
            (sympy.Rational(k.numerator, k.denominator)
             * sympy.prod([s**n for s, n in zip(syms, e)])
             for e, k in p.terms.items()),
            sympy.Integer(0),
        )

    quadratics = [x * y for i, x in enumerate(GENERATORS) for y in GENERATORS[i:]]
    monomials = [a * 0 + 1, *GENERATORS, *quadratics]
    for variant, table in (("D", D_TABLE), ("STS", STS_TABLE)):
        P = PoissonAlgebra(variant)
        pi = [[sympy.Integer(0)] * 4 for _ in range(4)]
        for (x, y), val in table.items():
            i, j = GENERATORS.index(x), GENERATORS.index(y)
            pi[i][j], pi[j][i] = to_sympy(val), -to_sympy(val)
        for f in monomials:
            for h in monomials:
                sf, sh = to_sympy(f), to_sympy(h)
                expected = sympy.expand(sum(
                    sympy.diff(sf, x) * sympy.diff(sh, y) * pi[i][j]
                    for i, x in enumerate(syms) for j, y in enumerate(syms)
                ))
                got = P.bracket(f, h)
                assert sympy.expand(to_sympy(got) - expected) == 0, (variant, f, h)
