import random

import pytest

from skeinlab.curves import torus_table
from skeinlab.mcg import (
    FreeGroupEndo,
    MappingClass,
    TWIST_ALPHA,
    TWIST_BETA,
    act_on_curve,
    boundary_word,
    parse_word,
    reduce_word,
)

from oracles import validate_automorphism


def test_word_parsing():
    assert parse_word("abA", 1) == (1, 2, -1)
    assert parse_word("a1 B2", 2) == (1, -4)
    assert reduce_word(parse_word("aAbB", 1)) == ()
    with pytest.raises(ValueError):
        parse_word("c", 1)
    with pytest.raises(ValueError):
        parse_word("a2", 1)
    # anything but tokens and spaces is refused, not skipped: a stray
    # character, an operator, a tab before an index, non-ASCII digits
    for text, genus in (("a#", 1), ("b?a", 1), ("a1 * b1", 1), ("b\t2", 2), ("a\u0663", 3)):
        with pytest.raises(ValueError, match="is not generator tokens"):
            parse_word(text, genus)
    assert parse_word(" a3 b1 ", 3) == (3, 4)


def test_boundary_word():
    assert boundary_word(1) == (1, 2, -1, -2)
    assert boundary_word(2) == (1, 3, -1, -3, 2, 4, -2, -4)


def test_builtin_twists_fix_boundary():
    for words in (TWIST_ALPHA, TWIST_BETA):
        endo = FreeGroupEndo(1, words)
        assert endo.fixes_boundary()
        assert endo.is_valid_automorphism()


def test_automorphism_examples():
    assert validate_automorphism(1, {"a1": "a", "b1": "ba"})
    assert validate_automorphism(1, {"a1": "aB", "b1": "b"})
    assert not validate_automorphism(1, {"a1": "a", "b1": "a"})
    # conjugation-like endo moving the boundary word is rejected
    assert not validate_automorphism(1, {"a1": "b", "b1": "a"})


def test_twist_abelianizations():
    assert FreeGroupEndo(1, TWIST_ALPHA).abelianization() == [[1, 1], [0, 1]]
    assert FreeGroupEndo(1, TWIST_BETA).abelianization() == [[1, 0], [-1, 1]]


def test_genus_two_identity_automorphism():
    words = {"a1": "a1", "b1": "b1", "a2": "a2", "b2": "b2"}
    assert validate_automorphism(2, words)


def test_mapping_class_constructors():
    mc = MappingClass(1, matrix=[[1, 1], [0, 1]])
    assert mc.act_on_class(0, 1) == (1, 1)
    with pytest.raises(ValueError):
        MappingClass(1, matrix=[[2, 0], [0, 1]])
    for bad in ([1, 2], [[1, 1], [0]], [[1, "1"], [0, 1]], [[1, 1], [0, 1], [0, 0]], "I"):
        with pytest.raises(ValueError, match="2x2 integer matrix"):
            MappingClass(1, matrix=bad)
    with pytest.raises(ValueError):
        MappingClass(1, matrix=[[1, 0], [0, 1]], words=TWIST_ALPHA)
    with pytest.raises(ValueError):
        MappingClass(1, words={"a1": "a", "b1": "a"})
    # a word image is a word string or a sequence of generator ids
    for bad in (5, None, [0], [3], [True], ["a"], {"a": 1}):
        with pytest.raises(ValueError, match="image of a1"):
            FreeGroupEndo(1, {"a1": bad})
    assert FreeGroupEndo(1, {"a1": [1, 2], "b1": (2,)}).images == {1: (1, 2), 2: (2,)}
    mc2 = MappingClass.from_json({"matrix": [[0, -1], [1, 0]]})
    assert mc2.matrix == ((0, -1), (1, 0))
    mc3 = MappingClass.from_json({"genus": 1, "words": TWIST_ALPHA})
    assert mc3.endo is not None


def test_act_on_curve_examples():
    table = torus_table()
    T_a = MappingClass(1, matrix=[[1, 1], [0, 1]])
    S = MappingClass(1, matrix=[[0, -1], [1, 0]])
    curve = act_on_curve(T_a, table.curve(0, 1))
    assert table.class_of(curve) == (1, 1)
    assert act_on_curve(MappingClass(1, matrix=[[1, 0], [0, 1]]), table.curve(0, 1)) == table.curve(0, 1)
    assert table.class_of(act_on_curve(S, table.curve(1, 0))) == (0, 1)
    # image classes with a negative sign name the same unoriented curve
    assert act_on_curve(S, table.curve(0, 1)) == table.curve(1, 0)
    minus_one = MappingClass(1, matrix=[[-1, 0], [0, -1]])
    for pq in [(1, 0), (0, 1), (2, -1), (3, 5)]:
        assert act_on_curve(minus_one, table.curve(*pq)) == table.curve(*pq)


def test_act_respects_composition():
    rng = random.Random(5)
    table = torus_table()
    gens = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, -1), (1, 0))]

    def matmul(m1, m2):
        return tuple(
            tuple(sum(m1[i][k] * m2[k][j] for k in range(2)) for j in range(2))
            for i in range(2)
        )

    for _ in range(20):
        word = [rng.choice(gens) for _ in range(rng.randint(1, 5))]
        M = ((1, 0), (0, 1))
        for m in word:
            M = matmul(M, m)
        curve = table.curve(*rng.choice([(1, 0), (0, 1), (1, 1), (1, -1)]))
        via_product = act_on_curve(MappingClass(1, matrix=M), curve)
        via_steps = curve
        for m in reversed(word):
            via_steps = act_on_curve(MappingClass(1, matrix=m), via_steps)
        assert via_product == via_steps


def test_word_mapping_class_has_no_curve_action():
    table = torus_table()
    mc = MappingClass(1, words=TWIST_ALPHA)
    with pytest.raises(ValueError):
        act_on_curve(mc, table.curve(0, 1))


def test_compose_endos():
    # the composite of two automorphisms, its images given as id tuples,
    # is again one, and applies as the two in turn
    ta = FreeGroupEndo(1, TWIST_ALPHA)
    tb = FreeGroupEndo(1, TWIST_BETA)
    c = FreeGroupEndo(1, {"a1": ta.apply(tb.images[1]), "b1": ta.apply(tb.images[2])})
    assert c.is_valid_automorphism()
    w = parse_word("ab", 1)
    assert c.apply(w) == ta.apply(tb.apply(w))
