import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfraj.errors import PreconditionViolated
from cfraj.numeric import LogFloat, ln_fraction
from cfraj.words import (
    CylinderInterval,
    Word,
    continuant,
    continuant_identity_check,
    continuant_pair,
    cylinder_interval,
    evaluate,
    joining_defect,
)


def cf_value_oracle(digits):
    """Independent evaluator: fold [a0; a1, ..., an] with Fractions."""
    acc = Fraction(digits[-1])
    for a in reversed(digits[:-1]):
        acc = a + 1 / acc
    return acc


def matrix_pair_oracle(tail):
    """Top row of the product of [[a,1],[1,0]] over the tail."""
    m = ((1, 0), (0, 1))
    for a in tail:
        m = (
            (a * m[0][0] + m[0][1], m[0][0]),
            (a * m[1][0] + m[1][1], m[1][0]),
        )
    return m[0][0], m[0][1]


def test_continuant_pair_trivial_cases():
    assert continuant_pair(Word(5)).q == 1
    assert continuant_pair(Word(5)).q_prev == 0
    pair = continuant_pair(Word(0, (1, 1)))
    assert (pair.q, pair.q_prev) == (2, 1)


def test_continuant_pair_pi_convergent():
    pair = continuant_pair(Word(3, (7, 15, 1)))
    assert (pair.q, pair.q_prev) == (113, 106)


def test_evaluate_known_values():
    assert evaluate(Word(0, (2,))) == Fraction(1, 2)
    assert evaluate(Word(1, (1, 1, 1, 1))) == Fraction(8, 5)
    assert evaluate(Word(3, (7, 15, 1))) == Fraction(355, 113)


@given(
    st.integers(min_value=0, max_value=9),
    st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=12),
)
def test_evaluate_matches_fraction_fold(head, tail):
    w = Word(head, tuple(tail))
    assert evaluate(w) == cf_value_oracle(w.digits())
    assert evaluate(w).denominator == continuant_pair(w).q


@given(st.lists(st.integers(min_value=1, max_value=50), max_size=10))
def test_matrix_agreement(tail):
    pair = continuant_pair(Word(0, tuple(tail)))
    assert (pair.q, pair.q_prev) == matrix_pair_oracle(tail)


def test_cylinder_examples():
    c = cylinder_interval(Word(0, (1,)))
    assert (c.lo, c.hi) == (Fraction(1, 2), Fraction(1, 1))
    c = cylinder_interval(Word(0, (2,)))
    assert (c.lo, c.hi) == (Fraction(1, 3), Fraction(1, 2))
    assert c.width == Fraction(1, 6)
    c = cylinder_interval(Word(0, (2, 3)))
    assert (c.lo, c.hi) == (Fraction(3, 7), Fraction(4, 9))
    assert c.width == Fraction(1, 63)


def test_cylinder_rejects_bare_head():
    with pytest.raises(PreconditionViolated):
        cylinder_interval(Word(7))


@given(
    st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6)
)
def test_cylinder_width_law(tail):
    w = Word(0, tuple(tail))
    c = cylinder_interval(w)
    pair = continuant_pair(w)
    assert c.width == Fraction(1, pair.q * (pair.q + pair.q_prev))


@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=6),
)
def test_cylinder_nesting_and_disjointness(tail, j_max):
    w = Word(0, tuple(tail))
    parent = cylinder_interval(w)
    children = [cylinder_interval(w.extend((j,))) for j in range(1, j_max + 1)]
    for c in children:
        assert parent.lo <= c.lo and c.hi <= parent.hi
    ordered = sorted(children, key=lambda c: c.lo)
    for a, b in zip(ordered, ordered[1:]):
        assert a.hi <= b.lo


def test_identity_tiny_cases():
    assert continuant_identity_check((1,), (1,))
    assert continuant((2, 2, 2)) == 12
    assert continuant_identity_check((2, 2), (2,))


def test_identity_exhaustive_small():
    for lu in range(1, 4):
        for lv in range(1, 4):
            for u in product(range(1, 6), repeat=lu):
                for v in product(range(1, 6), repeat=lv):
                    assert continuant_identity_check(u, v)


def test_joining_defect_examples():
    d = joining_defect(Word(0, (1,)), Word(1, (1,)), 2)
    assert math.isclose(float(d), math.log(3), rel_tol=1e-12)
    assert float(d) <= math.log(6) + 1e-12

    d = joining_defect(Word(0, (2,)), Word(2, (2,)), 2)
    assert math.isclose(float(d), math.log(3), rel_tol=1e-12)


def test_joining_defect_precondition():
    with pytest.raises(PreconditionViolated):
        joining_defect(Word(0, (1,)), Word(4, (1,)), 3)


def test_joining_defect_sweep_bounds():
    n_bound = 5
    upper = math.log(2 * (n_bound + 1))
    words = [Word(0, t) for k in (1, 2) for t in product(range(1, 6), repeat=k)]
    heads = [Word(h, t) for h in range(1, 6) for t in ((), (1,), (3, 2))]
    for a in words:
        for b in heads:
            d = float(joining_defect(a, b, n_bound))
            assert -1e-12 <= d <= upper + 1e-12


def test_word_serialization_roundtrip():
    w = Word(0, (2, 3))
    assert w.serialize() == "0,2,3"
    assert Word.parse("0,2,3") == w
    assert Word.parse(w.serialize()) == w


def test_word_rejects_bad_entries():
    with pytest.raises(PreconditionViolated):
        Word(-1, (1,))
    with pytest.raises(PreconditionViolated):
        Word(0, (0,))


@settings(max_examples=30)
@given(
    st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=5),
    st.lists(st.integers(min_value=1, max_value=5), max_size=3),
)
def test_joining_defect_nonnegative(a_tail, b_head, b_tail):
    d = joining_defect(Word(0, tuple(a_tail)), Word(b_head, tuple(b_tail)), 5)
    assert float(d) >= -1e-12


def reference_defect(a, b):
    """joining_defect through a Fraction ratio and ln_fraction."""
    k_join = continuant(a.tail + (b.head,) + b.tail)
    ratio = Fraction(k_join, continuant(a.tail) * continuant(b.tail))
    if ratio == 1:
        return LogFloat(0, float("-inf"))
    defect = ln_fraction(ratio)
    if defect <= 0.0:
        defect = math.log1p(max(float(ratio - 1), 5e-324))
    return LogFloat.from_float(defect)


@st.composite
def word_pairs(draw):
    n_bound = draw(st.integers(1, 1000))
    digit = st.integers(1, n_bound)
    a = Word(draw(st.integers(0, n_bound)),
             tuple(draw(st.lists(digit, max_size=39))))
    b = Word(draw(digit), tuple(draw(st.lists(digit, max_size=39))))
    return a, b, n_bound


# K(M, 1, M) / M^2 = 1 + 2/M: both logs round to the same float, so the
# log1p fallback decides the defect
@example((Word(0, (10**17,)), Word(1, (10**17,)), 10**17))
@example((Word(0, ()), Word(1, ()), 1))
@settings(max_examples=300)
@given(word_pairs())
def test_joining_defect_equals_fraction_reference(pair):
    a, b, n_bound = pair
    got, want = joining_defect(a, b, n_bound), reference_defect(a, b)
    assert got.sign == want.sign and got.log.hex() == want.log.hex()


def test_parity_alternates():
    w = Word(0, (2,))
    c1 = cylinder_interval(w)
    c2 = cylinder_interval(w.extend((3,)))
    assert isinstance(c1, CylinderInterval)
    assert c1.parity == -c2.parity
