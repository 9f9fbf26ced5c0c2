import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from skeinlab.cyclotomic import Cyclotomic
from skeinlab.mcg import MappingClass, TWIST_ALPHA, TWIST_BETA
from skeinlab.repvar import (
    SL2Mat,
    SL2Rep,
    act_on_rep,
    classify_double_leaf,
    classify_sts_leaf,
    field_order,
    moment_cell,
    moment_map,
    orbit_closure,
    rep_dimension,
    w_dimension,
)
from skeinlab.surface import build_sigma_g_star

from oracles import (
    enumerate_hom_to_finite,
    group_closure,
    quaternion_generators,
    validate_automorphism,
)

FIXTURES = json.loads((Path(__file__).parent / "fixtures" / "derived.json").read_text())


def test_sl2_determinant_enforced():
    with pytest.raises(ValueError):
        SL2Mat(1, 0, 0, 2)
    m = SL2Mat(2, 0, 0, Fraction(1, 2))
    assert m.inverse() * m == SL2Mat.identity()


def test_moment_map_fixture():
    A = SL2Mat(0, 1, -1, 0)
    B = SL2Mat(1, 1, 0, 1)
    mu = moment_map(SL2Rep(1, (A, B)))
    [[a, b], [c, d]] = FIXTURES["classical"]["momentFixture"]
    assert mu == SL2Mat(a, b, c, d)


def test_images_are_stored_by_generator_id():
    # given interleaved (A1, B1, A2, B2); [A1, B1] = [[3, -1], [1, 0]] and
    # [A2, B2] = [[-3, 14], [-2, 9]], multiplied out by hand
    A1, B1 = SL2Mat(1, 1, 0, 1), SL2Mat(1, 0, 1, 1)
    A2, B2 = SL2Mat(2, 1, 1, 1), SL2Mat(1, 2, 0, 1)
    rep = SL2Rep(2, (A1, B1, A2, B2))
    assert rep.images == (A1, A2, B1, B2)
    assert moment_map(rep) == SL2Mat(-7, 33, -3, 14)


def test_the_field_of_an_input_is_decided_once():
    z8 = Cyclotomic.zeta(8)
    assert field_order(4, [z8, Cyclotomic.rational(4, 1)]) == 8
    assert field_order(8, [Cyclotomic.zeta(4), z8]) == 8
    with pytest.raises(ValueError, match=r"entry orders \[7\] have lcm 5040"):
        field_order(720, [Cyclotomic.rational(7, 1)])
    # a matrix keeps its order: an entry it does not hold is refused
    m = SL2Mat(z8, 0, 0, Cyclotomic.zeta(8, 7), order=8)
    assert m.order == 8 and (m * m.inverse()).order == 8
    with pytest.raises(ValueError, match="target order must be a multiple"):
        SL2Mat(z8, 0, 0, Cyclotomic.zeta(8, 7), order=4)


def test_moment_map_trivial_and_abelian():
    triv = SL2Rep(1, (SL2Mat.identity(), SL2Mat.identity()))
    assert moment_map(triv) == SL2Mat.identity()
    i4 = Cyclotomic.zeta(4)
    D = SL2Mat(i4, 0, 0, Cyclotomic.zeta(4, 3))
    assert moment_map(SL2Rep(1, (D, D))) == SL2Mat.identity(order=4)


def test_classify_cell():
    triv = SL2Rep(1, (SL2Mat.identity(), SL2Mat.identity()))
    assert moment_cell(moment_map(triv)) == "big"
    i4 = Cyclotomic.zeta(4)
    A = SL2Mat(i4, 0, 0, Cyclotomic.zeta(4, 3))
    B = SL2Mat(1, Fraction(1, 2), -1, Fraction(1, 2))
    rep = SL2Rep(1, (A, B))
    assert moment_map(rep) == SL2Mat(0, -1, 1, 0)
    assert moment_cell(moment_map(rep)) == "reduced"


def test_sts_leaves():
    desc = classify_sts_leaf(SL2Mat(2, 0, 0, Fraction(1, 2)))
    assert desc["cell"] == 0 and not desc["central"] and not desc["parabolic"]
    desc = classify_sts_leaf(SL2Mat(0, 1, -1, 0))
    assert desc["cell"] == 1
    assert desc["dressingOrbit"]["b"] == Cyclotomic.rational(4, 1).to_json()
    desc = classify_sts_leaf(SL2Mat.identity())
    assert desc["cell"] == 0 and desc["central"]
    desc = classify_sts_leaf(SL2Mat(1, 1, 0, 1))
    assert desc["parabolic"] and not desc["central"]


def test_double_leaves():
    I = SL2Mat.identity()
    assert classify_double_leaf(I, I) == (0, 0)
    g1 = SL2Mat(0, 1, -1, 0)
    assert classify_double_leaf(g1, I) == (1, 1)
    assert classify_double_leaf(SL2Mat(1, 1, 0, 1), I) == (0, 0)


def test_finite_subgroups():
    gens = quaternion_generators()
    assert len(group_closure(gens)) == 8
    assert len(enumerate_hom_to_finite(gens, 1)) == 64
    assert len(enumerate_hom_to_finite([SL2Mat(-1, 0, 0, -1)], 1)) == 4
    assert len(enumerate_hom_to_finite([SL2Mat.identity()], 1)) == 1


def test_group_closure_cap():
    with pytest.raises(ValueError):
        group_closure([SL2Mat(1, 1, 0, 1)], cap=16)  # infinite order


def test_quaternion_reps_all_big():
    # commutators in the quaternion group are central, so every moment
    # value has nonzero upper-left entry
    for rep in enumerate_hom_to_finite(quaternion_generators(), 1):
        assert moment_cell(moment_map(rep)) == "big"


def test_orbit_closure_fixture():
    A = SL2Mat(0, 1, -1, 0)
    orbit = orbit_closure(
        [SL2Rep(1, (A, A))],
        [MappingClass(1, words=TWIST_ALPHA), MappingClass(1, words=TWIST_BETA)],
    )
    assert orbit.size == FIXTURES["classical"]["q8OrbitSize"]
    assert orbit.cell == "big"
    assert orbit.moment == SL2Mat.identity()


def test_orbit_closure_rejects_matrix_generators():
    A = SL2Mat(0, 1, -1, 0)
    with pytest.raises(ValueError, match="words"):
        orbit_closure([SL2Rep(1, (A, A))], [MappingClass(1, matrix=[[1, 1], [0, 1]])])


def test_orbit_trivial_fixed_point():
    triv = SL2Rep(1, (SL2Mat.identity(), SL2Mat.identity()))
    orbit = orbit_closure([triv], [MappingClass(1, words=TWIST_ALPHA)])
    assert orbit.size == 1
    assert rep_dimension(orbit, 3) == 27


def test_orbit_cap():
    # a diagonal seed with non-central infinite-order entries grows until
    # the cap: the twists keep appending fresh diagonal products
    seed = SL2Rep(
        1,
        (
            SL2Mat(2, 0, 0, Fraction(1, 2)),
            SL2Mat(3, 0, 0, Fraction(1, 3)),
        ),
    )
    with pytest.raises(ValueError):
        orbit_closure([seed], [MappingClass(1, words=TWIST_ALPHA)], cap=8)


def test_moment_constant_along_random_orbit_walk():
    rng = random.Random(42)
    endos = [
        MappingClass(1, words=TWIST_ALPHA).endo,
        MappingClass(1, words=TWIST_BETA).endo,
    ]
    A = SL2Mat(0, 1, -1, 0)
    cur = SL2Rep(1, (A, A))
    mu0 = moment_map(cur)
    for _ in range(50):
        cur = act_on_rep(rng.choice(endos), cur)
        assert moment_map(cur) == mu0


def test_rep_dimension_formula():
    A = SL2Mat(0, 1, -1, 0)
    orbit = orbit_closure(
        [SL2Rep(1, (A, A))],
        [MappingClass(1, words=TWIST_ALPHA), MappingClass(1, words=TWIST_BETA)],
    )
    assert rep_dimension(orbit, 3) == 27 * orbit.size


def test_genus_two_orbit_with_word_generators():
    words = {"a1": "a1", "b1": "b1a1", "a2": "a2", "b2": "b2"}
    assert validate_automorphism(2, words)
    mc = MappingClass(2, words=words)
    J, K = quaternion_generators()
    orbit = orbit_closure([SL2Rep(2, (J, J, K, K))], [mc], cap=256)
    assert orbit.size == 4
    assert orbit.cell == "big"
    assert rep_dimension(orbit, 3) == 3**6 * 4


def test_torelli_boundary_twist_fixes_diagonal_reps():
    # conjugation by the boundary word: a Torelli element (identity on
    # homology) fixing every abelian representation
    # w x w^-1 for the boundary word w = abAB
    conj = {"a1": "abAB" + "a" + "baBA", "b1": "abAB" + "b" + "baBA"}
    mc = MappingClass(1, words=conj)
    assert mc.endo.abelianization() == [[1, 0], [0, 1]]
    diag = SL2Rep(
        1, (SL2Mat(2, 0, 0, Fraction(1, 2)), SL2Mat(3, 0, 0, Fraction(1, 3)))
    )
    orbit = orbit_closure([diag], [mc], cap=64)
    assert orbit.size == 1
    assert rep_dimension(orbit, 3) == 27
    # but it moves a nonabelian representation
    nonab = SL2Rep(1, (SL2Mat(0, 1, -1, 0), SL2Mat(1, 1, 0, 1)))
    assert act_on_rep(mc.endo, nonab) != nonab


def test_w_dimension_rejects_an_unknown_cell():
    # one cell rule (check_cell) for the library and the CLI alike
    assert w_dimension(1, "big", 3, 1) == 27
    assert w_dimension(1, "reduced", 3, 1) == 9
    with pytest.raises(ValueError, match="cell must be 'reduced' or 'big'"):
        w_dimension(1, "middle", 3, 1)


def test_one_genus_rule():
    # one genus rule (surface.check_genus) for triangulations,
    # representations and W dimensions
    for genus, message in (
        (0, "genus must be >= 1"),
        (True, "genus must be an integer"),
        (36, "genus must be <= 35"),
    ):
        with pytest.raises(ValueError, match=message):
            SL2Rep(genus, [])
        with pytest.raises(ValueError, match=message):
            w_dimension(genus, "big", 3, 1)
        with pytest.raises(ValueError, match=message):
            build_sigma_g_star(genus)
    # the bound itself is a genus
    assert w_dimension(35, "big", 3, 1) == 3**105


def test_orbit_generators_act_in_the_representations_genus():
    A = SL2Mat(0, 1, -1, 0)
    genus_1 = MappingClass(1, words={"a1": "a1", "b1": "b1a1"})
    genus_2 = MappingClass(2, words={"a1": "a1", "b1": "b1a1"})
    assert orbit_closure([SL2Rep(1, (A, A))], [genus_1]).size == 4
    assert orbit_closure([SL2Rep(2, (A, A, A, A))], [genus_2]).size == 4
    with pytest.raises(ValueError, match="generator of genus 2 cannot act on .* genus 1"):
        orbit_closure([SL2Rep(1, (A, A))], [genus_2])
    with pytest.raises(ValueError, match="generator of genus 1 cannot act on .* genus 2"):
        orbit_closure([SL2Rep(2, (A, A, A, A))], [genus_1])


def test_closure_cap_edges():
    # the cap counts every point, seeds included, and a negative cap is
    # refused by the point cap's rule
    A = SL2Mat(0, 1, -1, 0)
    seed = SL2Rep(1, (A, A))
    twist = [MappingClass(1, words={"a1": "a1", "b1": "b1a1"})]
    assert orbit_closure([seed], twist, cap=4).size == 4
    with pytest.raises(ValueError, match="orbit closure exceeded cap"):
        orbit_closure([seed], twist, cap=3)
    assert orbit_closure([seed], [], cap=1).size == 1
    with pytest.raises(ValueError, match="orbit closure exceeded cap"):
        orbit_closure([seed], [], cap=0)
    with pytest.raises(ValueError, match="cap must be >= 0, not -1"):
        orbit_closure([seed], [], cap=-1)
    gens = quaternion_generators()
    assert len(group_closure(gens, cap=8)) == 8
    with pytest.raises(ValueError, match="group closure exceeded cap"):
        group_closure(gens, cap=7)
    with pytest.raises(ValueError, match="cap must be >= 0, not -1"):
        group_closure(gens, cap=-1)
