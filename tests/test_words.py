import dataclasses
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfraj.errors import PreconditionViolated
from cfraj.numeric import ln_fraction
from cfraj.words import (
    CylinderInterval,
    Word,
    continuant,
    continuant_identity_check,
    continuant_pair,
    continuant_pair_of,
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


def identity_reference(u, v):
    """The splitting identity from continuants of the joined tuple and of
    separately sliced pieces."""
    u, v = tuple(u), tuple(v)
    return continuant(u + v) == (continuant(u) * continuant(v)
                                 + continuant(u[:-1]) * continuant(v[1:]))


@example([10**6], [1])
@example([1], [1, 10**6, 1])
@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1,
                max_size=20),
       st.lists(st.integers(min_value=1, max_value=10**6), min_size=1,
                max_size=20))
def test_identity_check_on_lists_tuples_and_ranges(u, v):
    want = identity_reference(u, v)
    assert continuant_identity_check(u, v) == want
    assert continuant_identity_check(tuple(u), tuple(v)) == want
    assert continuant_identity_check(u, tuple(v)) == want


@example([1], 1)
@example([10**6, 1, 10**6], 10**6)
@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1,
                max_size=20),
       st.integers(min_value=1, max_value=10**6))
def test_identity_check_with_one_entry_v(u, x):
    # K(v) = x and K(v minus first) = K() = 1 come out of the one pass
    # over v, whatever sequence type carries u and v
    for uu in (u, tuple(u), range(u[0], u[0] + len(u))):
        want = identity_reference(uu, [x])
        assert want
        for v in ([x], (x,), range(x, x + 1)):
            assert continuant_identity_check(uu, v) == want


@pytest.mark.parametrize("u, v", [
    (range(1, 2), range(1, 2)),
    (range(1, 7), range(3, 40, 5)),
    (range(9, 0, -1), range(10**6, 10**6 - 30, -1)),
    (range(2, 3), [5, 1, 5]),
])
def test_identity_check_on_ranges(u, v):
    assert continuant_identity_check(u, v) == identity_reference(u, v)
    assert continuant_identity_check(v, u) == identity_reference(v, u)


@pytest.mark.parametrize("u, v", [
    ((), (1,)), ((1,), ()), ([], [2]), ([2], []), (range(0), range(1, 3)),
    (range(1, 3), range(5, 5)),
])
def test_identity_check_rejects_empty(u, v):
    with pytest.raises(PreconditionViolated):
        continuant_identity_check(u, v)


@example(())
@example((1,))
@example((10**6,))
@example((10**6, 1, 10**6))
@given(st.lists(st.integers(min_value=1, max_value=10**6), max_size=25)
       .map(tuple))
def test_cached_continuants_match_slices(tail):
    k, k_last, k_first = Word(3, tail)._continuants
    assert k == continuant(tail)
    assert (k, k_last) == continuant_pair_of(tail)
    if tail:
        assert k_last == continuant(tail[:-1])
        assert k_first == continuant(tail[1:])
    else:
        # no shortened word exists; the recurrence's K_{-1} = 0 stands in,
        # which is what the joining formula needs
        assert (k_last, k_first) == (0, 0)


def test_cached_continuants_leave_the_value_alone():
    cached, fresh = Word(2, (3, 1, 4)), Word(2, (3, 1, 4))
    # K(3, 1, 4), K(3, 1), K(1, 4)
    assert cached._continuants == (19, 4, 5)
    assert cached == fresh and hash(cached) == hash(fresh)
    assert repr(cached) == repr(fresh)
    assert cached.serialize() == fresh.serialize() == "2,3,1,4"
    assert dataclasses.asdict(cached) == {"head": 2, "tail": (3, 1, 4)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        cached.tail = ()


def test_joining_defect_examples():
    d = joining_defect(Word(0, (1,)), Word(1, (1,)), 2)
    assert math.isclose(float(d), math.log(3), rel_tol=1e-12)
    assert float(d) <= math.log(6) + 1e-12

    d = joining_defect(Word(0, (2,)), Word(2, (2,)), 2)
    assert math.isclose(float(d), math.log(3), rel_tol=1e-12)
    # K(1) = K() K(): the joined continuant equals the product exactly
    assert joining_defect(Word(0, ()), Word(1, ()), 1) == 0.0


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


@pytest.mark.parametrize("head,tail", [
    (0, (1.5, 2.9)), (0, (2.0,)), (0.0, (2,)), (1.5, ()), (0, (Fraction(3),)),
    (0, ("3",)),
])
def test_word_rejects_non_integral_entries(head, tail):
    with pytest.raises(PreconditionViolated):
        Word(head, tail)


@pytest.mark.parametrize("head,tail", [
    (True, (True,)), (0, (True,)), (False, (2,)), (0, (np.True_,)),
])
def test_word_rejects_bool_entries(head, tail):
    with pytest.raises(PreconditionViolated):
        Word(head, tail)


def test_word_accepts_numpy_integers_as_ints():
    w = Word(np.int64(2), (np.uint8(3), np.int32(4)))
    assert w == Word(2, (3, 4))
    assert type(w.head) is int
    assert all(type(a) is int for a in w.tail)
    assert w.serialize() == "2,3,4"
    with pytest.raises(PreconditionViolated):
        Word(np.int64(0), (np.int64(0),))


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
        return 0.0
    defect = ln_fraction(ratio)
    if defect <= 0.0:
        defect = math.log1p(max(float(ratio - 1), 5e-324))
    return defect


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
    assert type(got) is float and got.hex() == want.hex()


@example((Word(0, ()), Word(1, ()), 1))
@example((Word(0, ()), Word(7, (10**3,)), 10**3))
@example((Word(5, (2,)), Word(1, ()), 9))
@settings(max_examples=200)
@given(word_pairs())
def test_joined_continuant_equals_continuant_of_joined_tail(pair):
    a, b, n_bound = pair
    guarded = []

    def record(n, context="value"):
        guarded.append((context, n))
        return n

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("cfraj.words.guard_int", record)
        joining_defect(a, b, n_bound)
    assert guarded == [("joined continuant",
                        continuant(a.tail + (b.head,) + b.tail))]


def test_parity_alternates():
    w = Word(0, (2,))
    c1 = cylinder_interval(w)
    c2 = cylinder_interval(w.extend((3,)))
    assert isinstance(c1, CylinderInterval)
    assert c1.parity == -c2.parity
