"""Block-measure construction, splitting, and ball-mass scans."""

import hashlib
import json
import math
from fractions import Fraction
from itertools import islice, product as iter_product
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from cfraj import blocks, fourier
from cfraj.blocks import (
    NuMeasure,
    _GEOMETRY_CHUNK,
    _WINDOW_STRIDE,
    _block_matrices,
    blocks_to_word,
    build_nu,
    cylinder_geometry,
    frostman_ceiling,
    frostman_scan,
    median_log_continuant,
    product_convergent_matrices,
    product_mass,
    qnu_exponent_check,
    sliding_max_mass,
    top_half_split,
    verify_window,
)
from cfraj.errors import (
    AtomTooHeavy,
    BudgetExceeded,
    EmptyWindow,
    NotInSupport,
    Overflow,
    PreconditionViolated,
)
from cfraj.words import Word, _convergents, continuant, cylinder_interval

from test_fourier import nu_two_digit, reference_nu


def small_nu():
    # N=3, p=2, sigma = log 5, window factor 1 +/- 3/10
    return build_nu(3, 2, None, Fraction(3, 10), sigma_anchor=(5, 1))


def small_p3_nu():
    # N=4, p=3: 19 atoms, block maps decreasing
    _, anchor = median_log_continuant(4, 3)
    return build_nu(4, 3, None, Fraction(1, 4), sigma_anchor=anchor)


# ---------------------------------------------------------------- build


def test_build_small_window_support():
    nu = small_nu()
    assert nu.support == ((1, 3), (2, 2), (2, 3), (3, 1), (3, 2))
    assert nu.atom == Fraction(1, 5)
    assert nu.beta_achieved == pytest.approx(1.0)
    assert (2, 3) in nu and [2, 3] in nu
    assert (1, 1) not in nu and (3, 3) not in nu


def test_build_matches_float_log_oracle():
    # every 2-tuple over {1,2,3}, window checked in plain floating point;
    # margins here are > 0.02 nats so the float oracle is decisive
    nu = small_nu()
    sigma = math.log(5)
    expected = set()
    for tup in iter_product((1, 2, 3), repeat=2):
        margin = abs(math.log(continuant(tup)) - sigma) - 0.3 * sigma
        assert abs(margin) > 1e-6
        if margin < 0:
            expected.add(tup)
    assert set(nu.support) == expected


def test_build_rejects_bad_arguments():
    with pytest.raises(PreconditionViolated):
        build_nu(1, 2, 1.0, Fraction(1, 4))
    with pytest.raises(PreconditionViolated):
        build_nu(3, 2, 1.0, Fraction(3, 2))
    with pytest.raises(PreconditionViolated):
        build_nu(3, 2, None, Fraction(1, 4))
    with pytest.raises(PreconditionViolated):
        build_nu(3, 2, -2.0, Fraction(1, 4))
    # the anchor is checked before log(m) / k is formed
    for anchor in ((6, 0), (0, 1)):
        with pytest.raises(PreconditionViolated):
            build_nu(3, 1, None, Fraction(1, 4), sigma_anchor=anchor)


def test_build_empty_window():
    # K over {1..3}^2 tops out at 10, far below the requested band
    with pytest.raises(EmptyWindow):
        build_nu(3, 2, None, Fraction(1, 10), sigma_anchor=(100, 1))


def per_candidate_support(n_bound, p, sigma, eps, anchor):
    """The window's tuples, each distinct continuant certified on its own."""
    if anchor is not None:
        sigma = math.log(anchor[0]) / anchor[1]
    k_grid = blocks._continuant_grids(n_bound, p)[0]
    inside = {k for k in np.unique(k_grid).tolist()
              if blocks._certify_in_window(k, sigma, eps, anchor)}
    return tuple(t for t in iter_product(range(1, n_bound + 1), repeat=p)
                 if continuant(t) in inside)


@pytest.mark.parametrize("n_bound,p,sigma,eps,anchor", [
    (8, 1, None, Fraction(1, 2), (16, 2)),
    (3, 2, None, Fraction(3, 10), (5, 1)),
    (12, 3, None, Fraction(1, 3), (30, 1)),
    (3, 2, 2.0, Fraction(3, 10), None),
    (7, 1, 2.0, Fraction(1, 4), None),
    (7, 4, 4.0, Fraction(1, 2), None),
    (9, 3, math.log(40), Fraction(1, 5), None),
])
def test_build_support_equals_per_candidate_certification(
        monkeypatch, n_bound, p, sigma, eps, anchor):
    want = per_candidate_support(n_bound, p, sigma, eps, anchor)
    # the build finds the window's ends once and certifies no tuple
    monkeypatch.setattr(blocks, "_certify_in_window", no_certify)
    nu = build_nu(n_bound, p, sigma, eps, sigma_anchor=anchor)
    monkeypatch.undo()
    assert nu.support == want
    assert verify_window(nu)


def no_certify(*args):
    raise AssertionError("a tuple certified one at a time")


def test_reference_support_equals_per_candidate_certification(monkeypatch):
    _, anchor = median_log_continuant(100, 3, weighting="lebesgue")
    want = per_candidate_support(100, 3, None, Fraction(1, 4), anchor)
    monkeypatch.setattr(blocks, "_certify_in_window", no_certify)
    nu = build_nu(100, 3, None, Fraction(1, 4), sigma_anchor=anchor)
    assert len(nu.support) == 190 and nu.support == want


def test_window_ends_are_exact_integer_bounds(monkeypatch):
    # anchored at ln(16)/2 with eps 1/2: K^4 >= 16 and K^4 <= 16^3, both
    # met with equality, at K = 2 and K = 8
    assert blocks._window_ends(None, Fraction(1, 2), (16, 2)) == (2, 8)
    assert build_nu(8, 1, None, Fraction(1, 2),
                    sigma_anchor=(16, 2)).support == tuple(
                        (k,) for k in range(2, 9))
    # a float sigma takes a few certified comparisons near exp(bound),
    # not one per candidate tuple
    calls = []

    def counted(cert):
        def call(n, bound):
            calls.append(n)
            return cert(n, bound)
        return call

    monkeypatch.setattr(blocks, "cert_ln_ge", counted(blocks.cert_ln_ge))
    monkeypatch.setattr(blocks, "cert_ln_le", counted(blocks.cert_ln_le))
    nu = build_nu(7, 4, 4.0, Fraction(1, 2))
    assert len(nu.support) == 1809 and len(calls) <= 8
    lo, hi = blocks._window_ends(4.0, Fraction(1, 2), None)
    assert (lo, hi) == (8, 403)  # e^2 = 7.39, e^6 = 403.4
    # a window wholly above the int64 range is empty; one above it on
    # the right only is cut at 2^63 - 1
    assert blocks._window_ends(100.0, Fraction(1, 2), None) == (1, 0)
    assert blocks._window_ends(40.0, Fraction(1, 2), None) == (
        math.ceil(math.exp(20)), 2**63 - 1)
    with pytest.raises(EmptyWindow):
        build_nu(3, 2, 100.0, Fraction(1, 2))


class SmallPowers(int):
    """An int whose powers fail unless the exponent is small."""

    def __pow__(self, exp, mod=None):
        assert exp < 10**6, f"formed {int(self)} ** {exp}"
        return pow(int(self), exp, mod)


def test_anchored_float_eps_raises_before_forming_a_large_power():
    # float 0.3 is a Fraction over 2^54, so the anchored window's powers
    # have exponents near 2^54: the digit guard refuses them unformed
    eps = Fraction(0.3)
    assert eps.denominator == 2**54
    with pytest.raises(Overflow, match="window end"):
        build_nu(3, 2, None, 0.3, sigma_anchor=(SmallPowers(5), 1))
    with pytest.raises(Overflow, match="window test"):
        blocks._certify_in_window(SmallPowers(3), None, eps,
                                  (SmallPowers(5), 1))
    with pytest.raises(Overflow):
        build_nu(3, 2, None, 0.3, sigma_anchor=(5, 1))
    # the same window with eps = 3/10 exactly is small_nu's
    assert build_nu(3, 2, None, Fraction("0.3"),
                    sigma_anchor=(SmallPowers(5), 1)).support \
        == small_nu().support


def test_build_budget_guard():
    with pytest.raises(BudgetExceeded):
        build_nu(100, 4, 5.0, Fraction(1, 4), budget=10**6)


def test_verify_window_detects_tampering():
    nu = small_nu()
    assert verify_window(nu)
    bad = NuMeasure(
        n_bound=nu.n_bound,
        p=nu.p,
        sigma=nu.sigma,
        eps_window=nu.eps_window,
        support=nu.support + ((1, 1),),
        beta_achieved=nu.beta_achieved,
        sigma_anchor=nu.sigma_anchor,
    )
    assert not verify_window(bad)


def test_measure_needs_a_support_and_forms_its_atom_once():
    nu = small_nu()
    assert nu.atom is nu.atom == Fraction(1, len(nu.support))
    doc = json.loads(nu.serialize())
    doc["support"] = []
    with pytest.raises(PreconditionViolated,
                       match="support must not be empty"):
        NuMeasure.from_json_doc(doc)


def test_serialization_round_trip():
    nu = small_nu()
    doc = json.loads(nu.serialize())
    assert set(doc) == {"N", "p", "sigma", "eps_window", "support",
                        "beta_achieved", "sigma_anchor"}
    assert doc["eps_window"] == "3/10"
    back = NuMeasure.from_json_doc(doc)
    assert back == nu
    assert back.sigma_anchor == (5, 1)
    # a document without an anchor reads as unanchored; the float path
    # must still certify
    del doc["sigma_anchor"]
    back = NuMeasure.from_json_doc(doc)
    assert back.sigma_anchor is None
    assert verify_window(back)


@pytest.mark.parametrize("n_bound,anchor", [(4, (9, 1)), (11, (100, 1))])
def test_anchored_round_trip_keeps_window(n_bound, anchor):
    # the atoms 3 and 10 sit exactly on the lower window edge; only the
    # anchored integer test certifies them, the float sigma does not
    nu = build_nu(n_bound, 1, None, Fraction(1, 2), sigma_anchor=anchor)
    back = NuMeasure.from_json_doc(json.loads(nu.serialize()))
    assert back == nu
    assert verify_window(back)


# ---------------------------------------------------------------- medians


def test_median_log_continuant_lebesgue():
    # widths 1/(K(K+K')) over {1..3}^2; cumulative crosses half at K=3
    sigma, anchor = median_log_continuant(3, 2, weighting="lebesgue")
    assert anchor == (3, 1)
    assert sigma == pytest.approx(math.log(3))


def test_median_log_continuant_uniform():
    # 9 tuples, K sorted = 2,3,3,4,4,5,7,7,10; the 5th is 4
    sigma, anchor = median_log_continuant(3, 2, weighting="uniform")
    assert anchor == (4, 1)
    assert sigma == pytest.approx(math.log(4))


def test_median_rejects_unknown_weighting():
    with pytest.raises(PreconditionViolated):
        median_log_continuant(3, 2, weighting="harmonic")


def stable_argsort_median(n_bound, p, weighting):
    """The median by a stable argsort of the float continuants."""
    k_grid, kp_grid = blocks._continuant_grids(n_bound, p)
    k = k_grid.reshape(-1).astype(np.float64)
    if weighting == "lebesgue":
        kp = kp_grid.reshape(-1).astype(np.float64)
        w = 1.0 / (k * (k + kp))
    else:
        w = np.ones_like(k)
    order = np.argsort(k, kind="stable")
    cum = np.cumsum(w[order])
    pos = int(np.searchsorted(cum, cum[-1] / 2.0))
    k_med = int(k[order[min(pos, len(k) - 1)]])
    return math.log(k_med), (k_med, 1)


@pytest.mark.parametrize("weighting", ["lebesgue", "uniform"])
@pytest.mark.parametrize("n_bound, p", [
    (2, 1), (3, 1), (5, 2), (30, 2), (10, 3), (7, 4), (50, 3), (100, 3)])
def test_median_equals_the_stable_argsort_median(n_bound, p, weighting):
    assert (median_log_continuant(n_bound, p, weighting)
            == stable_argsort_median(n_bound, p, weighting))


@pytest.mark.parametrize("n_bound,p", [(5, 1), (4, 2), (6, 3), (3, 5)])
def test_continuant_grids_hold_no_k_prime_copy(n_bound, p):
    k_grid, kp_grid = blocks._continuant_grids(n_bound, p)
    tuples = list(iter_product(range(1, n_bound + 1), repeat=p))
    assert k_grid.reshape(-1).tolist() == [continuant(t) for t in tuples]
    assert kp_grid.reshape(-1).tolist() == [
        continuant(t[:-1]) if p > 1 else 1 for t in tuples]
    if p > 1:
        # a view of the grid before, broadcast along the last entry
        assert kp_grid.strides[-1] == 0 and not kp_grid.flags.owndata


def test_median_sort_keys_wider_than_int64_raise_before_enumerating(
        monkeypatch):
    def no_grids(*args):
        raise AssertionError("grids built")

    monkeypatch.setattr(blocks, "_continuant_grids", no_grids)
    # 27 index bits + 43 bits of 3^27 > 63
    with pytest.raises(BudgetExceeded, match="63 bits"):
        median_log_continuant(2, 27, budget=2**27)


# ---------------------------------------------------------------- halves


def greedy_half(masses):
    """Accumulate in the given order until mass >= 1/2 - max_atom/2: the
    literal scan that top_half_split's closed form replaces.

    The stopping rule guarantees |mass - 1/2| <= max_atom / 2.
    """
    masses = [Fraction(m) for m in masses]
    if not masses:
        raise PreconditionViolated("no atoms")
    max_atom = max(masses)
    if max_atom > Fraction(1, 2):
        raise AtomTooHeavy(f"atom {max_atom} exceeds 1/2")
    threshold = Fraction(1, 2) - max_atom / 2
    acc = Fraction(0)
    for i, m in enumerate(masses):
        acc += m
        if acc >= threshold:
            return i + 1, acc
    return len(masses), acc


def test_greedy_half_toy():
    count, mass = greedy_half(
        [Fraction(2, 5), Fraction(3, 10), Fraction(1, 5), Fraction(1, 10)]
    )
    assert (count, mass) == (1, Fraction(2, 5))
    assert abs(mass - Fraction(1, 2)) <= Fraction(2, 5) / 2


def test_greedy_half_rejects_heavy_atom():
    with pytest.raises(AtomTooHeavy):
        greedy_half([Fraction(3, 5), Fraction(2, 5)])
    with pytest.raises(PreconditionViolated):
        greedy_half([])


@given(st.lists(st.integers(min_value=1, max_value=50), min_size=2, max_size=12))
def test_greedy_half_balance_property(xs):
    total = sum(xs)
    masses = [Fraction(x, total) for x in xs]
    if max(masses) > Fraction(1, 2):
        return
    _, mass = greedy_half(masses)
    assert abs(mass - Fraction(1, 2)) <= max(masses) / 2


def top_half_members(nu, split):
    """The first split.count block tuples of the product support, in
    lexicographic order of their support indices."""
    return set(islice(iter_product(nu.support, repeat=split.level),
                      split.count))


def test_top_half_level_one():
    nu = small_nu()
    split = top_half_split(nu, 1)
    assert split.count == 2
    assert split.mass == Fraction(2, 5)
    assert top_half_members(nu, split) == {((1, 3),), ((2, 2),)}


def test_top_half_level_four_matches_greedy():
    nu = small_nu()
    split = top_half_split(nu, 4)
    assert split.count == 312
    assert split.mass == Fraction(312, 625)
    # closed form must agree with the literal greedy scan over 5^4 atoms
    count, mass = greedy_half([Fraction(1, 625)] * 625)
    assert (count, mass) == (split.count, split.mass)
    assert len(top_half_members(nu, split)) == 312


def test_top_half_huge_level_closed_form():
    nu = small_nu()
    split = top_half_split(nu, 60)
    total = 5**60
    # odd total: smallest c with c/total >= 1/2 - 1/(2 total) is (total-1)/2
    assert split.count == (total - 1) // 2
    assert split.mass == Fraction(split.count, total)
    assert abs(split.mass - Fraction(1, 2)) == Fraction(1, 2 * total)


def test_top_half_single_atom_raises():
    lone = build_nu(2, 1, None, Fraction(1, 10), sigma_anchor=(2, 1))
    assert lone.support == ((2,),)
    with pytest.raises(AtomTooHeavy):
        top_half_split(lone, 3)


def test_top_half_rejects_bad_level():
    with pytest.raises(PreconditionViolated):
        top_half_split(small_nu(), 0)


# ---------------------------------------------------------------- products


def test_product_mass():
    nu = small_nu()
    assert product_mass(nu, []) == 1
    assert product_mass(nu, [(1, 3), (2, 2)]) == Fraction(1, 25)
    with pytest.raises(NotInSupport) as err:
        product_mass(nu, [(1, 3), (1, 1)])
    assert err.value.index == 1


def test_blocks_to_word():
    w = blocks_to_word([(1, 3), (2, 2)])
    assert w == Word(0, (1, 3, 2, 2))


def test_qnu_exponent_single_block():
    nu = small_nu()
    got = qnu_exponent_check(nu, [(2, 3)])
    assert type(got) is float
    assert got == pytest.approx(-math.log(5) / math.log(7), rel=1e-12)
    with pytest.raises(PreconditionViolated):
        qnu_exponent_check(nu, [])


def test_qnu_exponent_repeated_block():
    # joining defects push q above 7^n, so the ratio drifts up from
    # -log5/log7; verify against a direct big-integer computation
    nu = small_nu()
    seq = []
    word_digits = []
    for n in range(1, 5):
        seq.append((2, 3))
        word_digits.extend((2, 3))
        expected = -n * math.log(5) / math.log(continuant(word_digits))
        got = qnu_exponent_check(nu, seq)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got < -0.75


# ---------------------------------------------------------------- geometry


def test_cylinder_geometry_matches_word_oracle():
    nu = small_nu()
    for depth in (1, 2, 3):
        mats = product_convergent_matrices(nu, depth)
        mids, widths = cylinder_geometry(mats)
        seqs = list(iter_product(nu.support, repeat=depth))
        assert len(seqs) == len(mids)
        for row, seq in enumerate(seqs):
            word = blocks_to_word(seq)
            pn, q, pp, qp = _convergents(word)
            assert mats[row].tolist() == [[q, qp], [pn, pp]]
            iv = cylinder_interval(word)
            assert mids[row] == pytest.approx(float((iv.lo + iv.hi) / 2), rel=1e-13)
            assert widths[row] == pytest.approx(float(iv.width), rel=1e-13)


def test_cylinder_geometry_equals_unchunked_expression():
    mats = product_convergent_matrices(small_nu(), 7)
    assert len(mats) > 4 * _GEOMETRY_CHUNK
    assert len(mats) % _GEOMETRY_CHUNK
    q, qp, pn, pp = (mats[:, i, j].astype(np.float64)
                     for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    mids, widths = cylinder_geometry(mats)
    want_mids = (2 * pn * q + pn * qp + pp * q) / (2 * q * (q + qp))
    want_widths = 1.0 / (q * (q + qp))
    assert mids.tobytes() == want_mids.tobytes()
    assert widths.tobytes() == want_widths.tobytes()


def test_convergent_products_equal_matmul():
    nu = small_nu()
    base = _block_matrices(nu, 5)
    mats = base
    for depth in range(1, 6):
        assert product_convergent_matrices(nu, depth).tobytes() \
            == mats.tobytes()
        mats = np.matmul(mats[:, None], base[None]).reshape(-1, 2, 2)


@pytest.mark.parametrize("chunk", [7, 1000, 1 << 16])
def test_streamed_geometry_equals_cylinder_geometry(monkeypatch, chunk):
    nu = small_nu()
    depth = 6
    s = len(nu.support)
    monkeypatch.setattr(blocks, "_STREAM_CHUNK", chunk)
    assert s**(depth - 1) % chunk
    mids, widths = cylinder_geometry(product_convergent_matrices(nu, depth))
    prefix, base = blocks._prefix_entries(nu, depth, 10**6)

    def rows(lo, hi, **kwargs):
        return blocks._geometry(*blocks._entry_rows(prefix, base, lo, hi),
                                **kwargs)

    got_mids = np.empty_like(mids)
    got_widths = np.empty_like(widths)
    for lo, hi in blocks._stream_bounds(len(mids)):
        got_mids[lo:hi], got_widths[lo:hi] = rows(lo, hi)
    assert got_mids.tobytes() == mids.tobytes()
    assert got_widths.tobytes() == widths.tobytes()
    # ragged row ranges, cut inside a prefix's blocks
    cuts = [0, 1, 2, s + 3, 4 * s - 1, 1000, len(mids)]
    for lo, hi in zip(cuts, cuts[1:]):
        m, w = rows(lo, hi)
        assert m.tobytes() == mids[lo:hi].tobytes()
        assert w.tobytes() == widths[lo:hi].tobytes()
    for lo, hi in blocks._stream_bounds(len(mids)):
        m, w = rows(lo, hi, widths=False)
        assert w is None and m.tobytes() == mids[lo:hi].tobytes()


def leaf_rows(nu, depth, ascending):
    """The two factors of nu's depth-level enumeration, a cut list of
    row ranges (the stream's chunks and ragged ones inside a prefix's
    blocks) and their _LeafGeometry."""
    prefix, base = blocks._prefix_entries(nu, depth, 10**7, ascending)
    n, s = len(prefix[0]) * len(base[0]), len(base[0])
    cuts = sorted({c for c in (0, 1, 2, s + 3, 4 * s - 1, 4 * s + 1000)
                   if c <= n})
    bounds = blocks._stream_bounds(n) + list(zip(cuts, cuts[1:]))
    bounds.append((max(n - s - 3, 0), n))
    return prefix, base, bounds, blocks._LeafGeometry(prefix, base)


# (measure, depth, whether _den_bound is below 2^53): the reference at
# its scan depths, and small measures on both sides of the regime edge
REGIME_CASES = [
    (reference_nu, 2, True), (reference_nu, 3, True),
    (nu_two_digit, 1, True), (nu_two_digit, 15, True),
    (nu_two_digit, 16, False), (nu_two_digit, 17, False),
    (small_nu, 8, True), (small_nu, 9, False),
]


@pytest.mark.parametrize("ascending", [False, True])
@pytest.mark.parametrize("measure,depth,exact", REGIME_CASES)
def test_leaf_geometry_equals_the_entry_geometry(measure, depth, exact,
                                                 ascending):
    """The bilinear leaf kernel gives _geometry's floats bit for bit, in
    C and in ascending order, on either side of 2^53: over a range of
    rows, widths alone, and gathered at any rows."""
    prefix, base, bounds, rows = leaf_rows(measure(), depth, ascending)
    bound = blocks._den_bound(prefix, blocks._coefficients(base))
    assert (bound < 2**53) == exact == rows.exact
    for lo, hi in bounds:
        want_mids, want_widths = blocks._geometry(
            *blocks._entry_rows(prefix, base, lo, hi))
        mids = np.empty(hi - lo)
        widths = rows(lo, hi, mids)
        assert mids.tobytes() == want_mids.tobytes()
        assert widths.tobytes() == want_widths.tobytes()
        assert rows(lo, hi, mids, widths=False) is None
        assert mids.tobytes() == want_mids.tobytes()
        assert rows(lo, hi).tobytes() == want_widths.tobytes()
        assert rows.at(np.arange(lo, hi)).tobytes() == want_mids.tobytes()
    n = len(prefix[0]) * len(base[0])
    idx = np.random.default_rng(depth).integers(0, n, 500)
    want = np.array([blocks._geometry(*blocks._entry_rows(
        prefix, base, i, i + 1), widths=False)[0][0] for i in idx.tolist()])
    assert rows.at(idx).tobytes() == want.tobytes()


@pytest.mark.parametrize("measure,depth", [
    (reference_nu, 2), (nu_two_digit, 15), (nu_two_digit, 17),
    (small_nu, 7), (small_p3_nu, 3)])
def test_den_bound_covers_every_row(measure, depth):
    prefix, base = blocks._prefix_entries(measure(), depth, 10**7)
    bound = blocks._den_bound(prefix, blocks._coefficients(base))
    n = len(prefix[0]) * len(base[0])
    q, qp, _, _ = (e.tolist() for e in blocks._entry_rows(prefix, base, 0, n))
    dens = [2 * a * (a + b) for a, b in zip(q, qp)]
    assert max(dens) <= bound


@pytest.mark.parametrize("depth,fallback", [(15, False), (16, True),
                                            (17, True)])
def test_rows_past_the_exact_regime_take_the_entry_geometry(
        monkeypatch, depth, fallback):
    """nu_two_digit's depth-16 Frostman scan and depth-17 decay scan,
    which test_frostman_scan_equals_the_sorted_c_order_scan and
    test_fourier's test_nu_cylinder_scans_are_pinned pin, run _geometry
    on every leaf; at depth 15 no leaf does."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return geometry(*args, **kwargs)

    geometry = blocks._geometry
    monkeypatch.setattr(blocks, "_geometry", counted)
    nu, n = nu_two_digit(), 2**depth
    frostman_scan(nu, depth, [2.0**-10])
    assert sum(calls) == (n if fallback else 0)
    calls.clear()
    fourier._nu_cylinder_atoms(nu, depth, 10**7)
    assert sum(calls) == (n if fallback else 0)


def test_streamed_enumeration_checks_the_budget_first():
    with pytest.raises(BudgetExceeded):
        blocks._prefix_entries(small_nu(), 30, budget=10**6)
    with pytest.raises(BudgetExceeded):
        frostman_scan(small_nu(), 30, [0.1], budget=10**6)


def test_matrix_chain_budget():
    nu = small_nu()
    with pytest.raises(BudgetExceeded):
        product_convergent_matrices(nu, 30, budget=10**6)


def test_matrix_chain_int64_guard():
    # two huge digits: only 2^6 cylinders, but entries would pass 2^62
    big = NuMeasure(
        n_bound=5000,
        p=1,
        sigma=math.log(5000),
        eps_window=Fraction(1, 4),
        support=((4999,), (5000,)),
        beta_achieved=math.log(2) / math.log(5000),
    )
    with pytest.raises(BudgetExceeded):
        product_convergent_matrices(big, 6)
    mats = product_convergent_matrices(big, 4)
    assert mats.shape == (16, 2, 2)


def test_sliding_max_mass_against_brute_force():
    rng = np.random.default_rng(7)
    mids = np.sort(rng.uniform(0.0, 1.0, size=40))
    atom = 1.0 / 40
    widths = [1e-9, 0.01, 0.1, 0.5, 2.0]
    got = sliding_max_mass(mids, atom, widths)
    for u, val in zip(widths, got):
        best = max(
            sum(1 for m in mids if left <= m <= left + u) for left in mids
        )
        assert val == pytest.approx(best * atom)


def full_search_max_mass(mids_sorted, atom_mass, widths):
    """Reference: the mass from every left edge, searched in full.

    Equal atoms are counted; per-atom masses are differenced on their
    float cumulative sum.
    """
    idx = np.arange(len(mids_sorted))
    right = [np.searchsorted(mids_sorted, mids_sorted + float(u),
                             side="right") for u in widths]
    if np.ndim(atom_mass):
        csum = np.concatenate(([0.0], np.cumsum(atom_mass)))
        return [float((csum[r] - csum[idx]).max()) for r in right]
    return [float((r - idx).max()) * atom_mass for r in right]


@st.composite
def sorted_midpoints(draw):
    n = draw(st.one_of(st.integers(1, 3 * _WINDOW_STRIDE),
                       st.integers(1, 3000)))
    kind = draw(st.sampled_from(["uniform", "clustered", "even", "dupes"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        mids = rng.uniform(0.0, 1.0, n)
    elif kind == "clustered":
        centres = rng.uniform(0.0, 1.0, draw(st.integers(1, 6)))
        mids = (rng.choice(centres, n)
                + rng.normal(0.0, draw(st.sampled_from([1e-9, 1e-4, 1e-2])), n))
    elif kind == "even":
        mids = np.linspace(0.0, 1.0, n)
    else:
        mids = rng.choice(rng.uniform(0.0, 1.0, draw(st.integers(1, 20))), n)
    return np.sort(mids)


def atom_masses(kind, n, seed):
    rng = np.random.default_rng(seed)
    if kind == "equal":
        return 1.0 / n
    if kind == "uniform":
        return rng.uniform(0.0, 1.0, n)
    if kind == "spread":
        return 10.0 ** rng.uniform(-30.0, 0.0, n)
    return rng.uniform(0.0, 1.0, n) * (rng.uniform(0.0, 1.0, n) < 0.1)


@settings(max_examples=300, deadline=None)
@given(mids=sorted_midpoints(),
       kind=st.sampled_from(["equal", "uniform", "spread", "sparse"]),
       seed=st.integers(0, 2**32 - 1),
       widths=st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1e-12, 3.0]),
                                 st.floats(0.0, 1.5)),
                       min_size=1, max_size=6))
def test_sliding_max_mass_equals_full_search(mids, kind, seed, widths):
    # equal atoms, or one float mass per atom: the pruned search returns
    # the full search's bits
    atom = atom_masses(kind, len(mids), seed)
    assert sliding_max_mass(mids, atom, widths) == full_search_max_mass(
        mids, atom, widths)


class HeldRows:
    """_LeafGeometry's two ways of forming midpoints, over a held array."""

    def __init__(self, mids):
        self.mids = mids

    def __call__(self, lo, hi, out, widths=True):
        out[:] = self.mids[lo:hi]

    def at(self, idx):
        return self.mids[idx]


# a run of 100 equal midpoints that a stride start and a batch seam
# (chunks of 5, batches of 20 rows) fall inside, at a width that adds
# nothing to them
@example(mids=np.concatenate([np.linspace(0.0, 0.4, 10), np.full(100, 0.5),
                              np.linspace(0.6, 1.0, 50)]),
         chunk=5, widths=[5e-324])
@settings(max_examples=150, deadline=None)
@given(mids=sorted_midpoints(),
       chunk=st.sampled_from([5, 64, 100, 1000]),
       widths=st.lists(st.one_of(st.sampled_from([5e-324, 1e-12, 3.0]),
                                 st.floats(5e-324, 1.5)),
                       min_size=1, max_size=6))
def test_streamed_max_mass_equals_full_search(mids, chunk, widths):
    """The streamed search returns the full search's bits on clustered
    and repeated midpoints too, with batches shorter or longer than the
    stride; a stream that descends, inside a chunk or across the seam of
    two batches, gives None."""
    n, atom = len(mids), 1.0 / len(mids)
    with mock.patch.object(blocks, "_STREAM_CHUNK", chunk):
        got = blocks._streamed_max_mass(HeldRows(mids), n, atom, widths)
        assert got == full_search_max_mass(mids, atom, widths)
        seam = chunk * blocks._BATCH_CHUNKS
        descending = [mids[::-1]] if mids[0] < mids[-1] else []
        if seam < n and mids[seam - 1] < mids[seam]:
            descending.append(mids.copy())
            descending[-1][[seam - 1, seam]] = mids[[seam, seam - 1]]
        for down in descending:
            assert blocks._streamed_max_mass(HeldRows(down), n, atom,
                                             widths) is None


@settings(max_examples=150, deadline=None)
@given(mids=sorted_midpoints(), data=st.data(),
       order=st.sampled_from(["reversed", "batches reversed", "shuffled",
                              "shuffled at a seam"]),
       seed=st.integers(0, 2**32 - 1),
       widths=st.lists(st.one_of(st.sampled_from([5e-324, 1e-12, 3.0]),
                                 st.floats(5e-324, 1.5)),
                       min_size=1, max_size=6))
def test_streamed_max_mass_refuses_a_stream_out_of_order(mids, data, order,
                                                         seed, widths):
    """Each batch settles the queries between its cuts, which ascend
    only on an ascending stream: a stream that descends across batch
    seams gives None, and no slice write on reversed cuts raises."""
    n = len(mids)
    assume(n > blocks._BATCH_CHUNKS)
    chunk = data.draw(st.integers(1, (n - 1) // blocks._BATCH_CHUNKS))
    seam = chunk * blocks._BATCH_CHUNKS
    rng = np.random.default_rng(seed)
    if order == "reversed":
        down = mids[::-1].copy()
    elif order == "batches reversed":
        down = np.concatenate([mids[lo:lo + seam]
                               for lo in range(0, n, seam)][::-1])
    elif order == "shuffled":
        down = rng.permutation(mids)
    else:
        down = mids.copy()
        at = seam * int(rng.integers(1, -(-n // seam)))
        window = slice(max(0, at - seam), at + seam)
        down[window] = rng.permutation(down[window])
    assume(bool((down[1:] < down[:-1]).any()))
    with mock.patch.object(blocks, "_STREAM_CHUNK", chunk):
        assert blocks._streamed_max_mass(HeldRows(down), n, 1.0 / n,
                                         widths) is None


def test_frostman_ceiling_of_reference_measure():
    sigma, anchor = median_log_continuant(100, 3, weighting="lebesgue")
    nu = build_nu(100, 3, None, Fraction(1, 4), sigma_anchor=anchor)
    qs = [continuant(b) for b in nu.support]
    assert (len(qs), min(qs), max(qs)) == (190, 9, 34)
    worst, mean = frostman_ceiling(nu)
    assert worst == pytest.approx(math.log(190) / (2 * math.log(34)))
    assert worst == pytest.approx(0.744, abs=5e-4)
    assert mean == pytest.approx(0.851, abs=5e-4)


def test_frostman_scan_endpoints():
    nu = small_nu()
    scan = frostman_scan(nu, 1, [1e-6, 1e-3, 0.05, 0.2, 1.0])
    assert scan.omega[0] == pytest.approx(0.2)  # one atom per tiny window
    assert scan.omega[-1] == pytest.approx(1.0)  # whole support captured
    assert all(a <= b + 1e-15 for a, b in zip(scan.omega, scan.omega[1:]))
    assert scan.fitted_exponent == pytest.approx(
        float(np.polyfit(np.log(scan.widths), np.log(scan.omega), 1)[0])
    )


@pytest.mark.parametrize("depth,digest", [
    (2, "3aae2df807bc9923c9c72daf1fd7ead69b1546709f42fdbbea791e726d18a9ec"),
    (3, "e4a692721d107e9a06406bc0721b6696007aaa7c4f648f4a6592de05e4b776ad"),
])
def test_reference_frostman_scans_are_pinned(depth, digest):
    """omega and the fitted exponent, as float.hex, of the decay
    experiment's Frostman scans (widths 2^-2 .. 2^-13)."""
    sigma, anchor = median_log_continuant(100, 3, weighting="lebesgue")
    nu = build_nu(100, 3, None, Fraction(1, 4), sigma_anchor=anchor)
    scan = frostman_scan(nu, depth, [2.0**-k for k in range(2, 14)],
                         budget=10**7)
    lines = [w.hex() for w in scan.omega] + [scan.fitted_exponent.hex()]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def test_frostman_scan_rejects_bad_depth():
    with pytest.raises(PreconditionViolated):
        frostman_scan(small_nu(), 0, [0.1])


@pytest.mark.parametrize("widths", [[0.0, 0.1], [-0.1, 0.1], [math.nan, 0.1]])
def test_frostman_scan_rejects_bad_widths_before_enumerating(monkeypatch,
                                                             widths):
    def enumerate_nothing(*args, **kwargs):
        raise AssertionError("enumerated before checking the widths")

    monkeypatch.setattr(blocks, "_prefix_entries", enumerate_nothing)
    with pytest.raises(PreconditionViolated):
        frostman_scan(small_nu(), 4, widths)


def test_frostman_scan_refuses_an_empty_width_list(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return prefix_entries(*args, **kwargs)

    prefix_entries = blocks._prefix_entries
    monkeypatch.setattr(blocks, "_prefix_entries", spy)
    with pytest.raises(PreconditionViolated, match="^widths must not be empty$"):
        frostman_scan(small_nu(), 3, [])
    assert calls == []


@pytest.fixture
def scan_spy(monkeypatch):
    """Records the size of every array blocks makes with np.empty, and
    counts the in-place sorts made on them and the held searches
    (sliding_max_mass) a frostman_scan makes."""
    seen = {"sorts": 0, "searches": 0, "empty": []}

    class Midpoints(np.ndarray):
        def sort(self, *args, **kwargs):
            seen["sorts"] += 1
            super().sort(*args, **kwargs)

    class Numpy:
        """blocks' numpy, with empty() making Midpoints."""

        def __getattr__(self, name):
            return getattr(np, name)

        @staticmethod
        def empty(*args, **kwargs):
            made = np.empty(*args, **kwargs)
            seen["empty"].append(made.size)
            return made.view(Midpoints)

    def search(mids, atom, widths):
        seen["searches"] += 1
        return sliding_max_mass(mids, atom, widths)

    monkeypatch.setattr(blocks, "np", Numpy())
    monkeypatch.setattr(blocks, "sliding_max_mass", search)
    return seen


def descent_at(nu, depth):
    """The one index i with mids[i] > mids[i + 1] in the ascending
    enumeration of nu at depth."""
    prefix, base = blocks._prefix_entries(nu, depth, 10**6, ascending=True)
    mids = blocks._geometry(*blocks._entry_rows(
        prefix, base, 0, len(prefix[0]) * len(base[0])), widths=False)[0]
    (i,) = np.nonzero(mids[1:] < mids[:-1])[0]
    return int(i)


@pytest.mark.parametrize("measure,depth,chunk,sorts", [
    (nu_two_digit, 1, None, 0),
    (nu_two_digit, 5, None, 0),
    (nu_two_digit, 12, 1000, 0),
    (small_nu, 6, 1000, 0),
    (small_p3_nu, 4, 1000, 0),
    (reference_nu, 2, 1000, 0),
    # chunks, and so batches, shorter than the 64-row stride, over 5^5
    # and 190^2 rows, neither a multiple of the stride
    (small_nu, 5, 5, 0),
    (reference_nu, 2, 48, 0),
    # widths at the float spacing: one adjacent pair descends, and the
    # midpoints are sorted, whether the pair is inside a chunk or
    # across the seam of two
    (nu_two_digit, 16, None, 1),
    (nu_two_digit, 16, "seam", 1),
])
def test_frostman_scan_equals_the_sorted_c_order_scan(monkeypatch, scan_spy,
                                                      measure, depth, chunk,
                                                      sorts):
    """p = 1 and p = 3 measures reverse every other level's blocks; the
    p = 2 measure reverses none. The omegas and the fit equal those from
    the sorted C-order midpoints bit for bit, at widths from above 1
    (every window holds every atom) to below every gap between
    midpoints. More rows than a batch are streamed, and unless the
    stream descends no array is longer than a batch or the stride
    starts; otherwise the rows are held and searched, and sorted only
    if they descend."""
    nu = measure()
    if chunk == "seam":
        chunk = descent_at(nu, depth) + 1
    if chunk is not None:
        monkeypatch.setattr(blocks, "_STREAM_CHUNK", chunk)
    n = len(nu.support)**depth
    widths = [3.0, 1.0] + [2.0**-k for k in range(2, 50, 3)] + [5e-324]
    # np.asarray: a plain array, whose sort the spy does not count
    mids = np.sort(np.asarray(
        cylinder_geometry(product_convergent_matrices(nu, depth))[0]))
    omega = sliding_max_mass(mids, 1.0 / float(len(nu.support))**depth,
                             widths)
    fit = float(np.polyfit(np.log(widths), np.log(omega), 1)[0])
    scan_spy["empty"].clear()
    scan = frostman_scan(nu, depth, widths)
    assert [w.hex() for w in scan.omega] == [w.hex() for w in omega]
    assert scan.fitted_exponent.hex() == fit.hex()
    batch = blocks._STREAM_CHUNK * blocks._BATCH_CHUNKS
    held = bool(sorts) or n <= batch
    assert scan_spy["sorts"] == sorts
    assert scan_spy["searches"] == held
    if not held:
        assert max(scan_spy["empty"]) <= max(batch, -(-n // 64)) < n


def test_reference_depth3_frostman_scan_sorts_nothing(scan_spy):
    """The depth-3 stream never descends: nothing is sorted or searched
    held, and no array blocks makes holds more than a batch. Its omegas
    are pinned by test_reference_frostman_scans_are_pinned."""
    frostman_scan(reference_nu(), 3, [2.0**-k for k in range(2, 14)])
    assert scan_spy["sorts"] == scan_spy["searches"] == 0
    assert max(scan_spy["empty"]) == blocks._STREAM_CHUNK \
        * blocks._BATCH_CHUNKS < 190**3
