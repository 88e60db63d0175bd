"""Transform estimators: oracle sums, error-bound soundness, CSV contract."""

import cmath
import dataclasses
import hashlib
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfraj import __version__
from cfraj.blocks import (
    NuMeasure,
    build_nu,
    cylinder_geometry,
    median_log_continuant,
    product_convergent_matrices,
)
from cfraj.cascade import build_lambda, split_typ_exc, xn_mass
from cfraj.errors import BudgetExceeded, PreconditionViolated
from cfraj import fourier
from cfraj.fourier import (
    EXP_ULPS,
    SQRT5_UP,
    U,
    _Atoms,
    _Chain,
    _atoms,
    _error,
    _estimate,
    _evaluate,
    _evaluation_term,
    _fold,
    _lambda_leaves,
    _width_ceiling,
    decay_scan,
    decay_slope,
    fourier_cylinder_sum,
    fourier_monte_carlo,
)
from cfraj.rules import AssignmentRule
from cfraj.schedule import Schedule

from test_cascade import (cylinder_rows, nu_digits45, oracle_paths,
                          sampled_rows, toy_lambda)


def nu_single():
    return build_nu(2, 1, None, Fraction(1, 10), sigma_anchor=(2, 1))


def nu_two_digit():
    # p=1 alphabet {2, 3}, sigma = log sqrt(6)
    return build_nu(3, 1, None, Fraction(1, 4), sigma_anchor=(6, 2))


@lru_cache(maxsize=1)
def reference_nu():
    """The paper's reference block measure: N = 100, p = 3, 190 atoms."""
    _, anchor = median_log_continuant(100, 3, weighting="lebesgue")
    return build_nu(100, 3, None, Fraction(1, 4), sigma_anchor=anchor)


def oracle_transform(oracle, xi):
    """Independent sum of mass * e(xi mid) over trie-oracle paths."""
    acc = 0j
    err = 0.0
    for digits, (mass, _) in oracle.items():
        q, qp, pn, pp = 1, 0, 0, 1
        for d in digits:
            q, qp = d * q + qp, q
            pn, pp = d * pn + pp, pn
        mid = Fraction(2 * pn * q + pn * qp + pp * q, 2 * q * (q + qp))
        frac = mid * xi
        frac -= math.floor(frac)
        acc += float(mass) * cmath.exp(2j * math.pi * float(frac))
        err += float(mass) * math.pi * xi / (q * (q + qp))
    return acc, err


def test_zero_frequency_exact():
    lm = toy_lambda()
    est = fourier_cylinder_sum(lm, 0, 10)
    assert est.value == 1 + 0j and est.err_bound == 0.0
    mc = fourier_monte_carlo(lm, 0, 500, 10, seed=3)
    assert mc.value == 1 + 0j and mc.err_bound > 0
    nu = nu_two_digit()
    assert fourier_cylinder_sum(nu, 0, 3).value == 1 + 0j
    assert fourier_monte_carlo(nu, 0, 200, 3, seed=1).value == 1 + 0j


def test_single_cylinder_value_and_error():
    nu = nu_single()
    assert nu.support == ((2,),)
    est = fourier_cylinder_sum(nu, 3, 1)
    # word (2): interval [1/3, 1/2], midpoint 5/12, width 1/6
    assert est.value == pytest.approx(cmath.exp(2j * math.pi * (Fraction(5, 12) * 3 % 1)))
    assert est.err_bound == pytest.approx(math.pi * 3 / 6)


def test_lambda_cylinder_matches_trie_oracle():
    lm = toy_lambda()
    oracle = oracle_paths(lm.nu, lm.schedule.i, lm.schedule.r, 13)
    for xi in (1, 7, 128):
        want, want_err = oracle_transform(oracle, xi)
        est = fourier_cylinder_sum(lm, xi, 13)
        assert est.value == pytest.approx(want, rel=1e-10, abs=1e-12)
        assert est.err_bound == pytest.approx(want_err, rel=1e-8)
        assert abs(est.value) <= 1 + est.err_bound


def test_leaf_masses_total_one():
    lm = toy_lambda()
    for depth in (3, 7, 13):
        masses = [row[-1] for row in cylinder_rows(lm, depth)]
        assert sum(masses, Fraction(0)) == 1


def test_depth_self_consistency_product_measure():
    nu = build_nu(3, 2, None, Fraction(3, 10), sigma_anchor=(5, 1))
    for xi in (5, 16, 64):
        shallow = fourier_cylinder_sum(nu, xi, 2)
        deep = fourier_cylinder_sum(nu, xi, 3)
        assert abs(shallow.value - deep.value) <= (
            shallow.err_bound + deep.err_bound
        )
        assert deep.err_bound < shallow.err_bound


def test_methods_agree_within_bounds():
    lm = toy_lambda()
    for k in range(12):
        xi = 2**k
        cyl = fourier_cylinder_sum(lm, xi, 8)
        mc = fourier_monte_carlo(lm, xi, 20000, 8, seed=7)
        assert abs(cyl.value - mc.value) <= cyl.err_bound + mc.err_bound


def test_conjugate_symmetry_is_bit_exact():
    lm = toy_lambda()
    nu = nu_two_digit()
    for xi in (3, 2**45 + 1):
        a = fourier_cylinder_sum(lm, xi, 9)
        b = fourier_cylinder_sum(lm, -xi, 9)
        assert b.value == a.value.conjugate()
        assert b.err_bound == a.err_bound
    a = fourier_monte_carlo(nu, 12, 400, 3, seed=5)
    b = fourier_monte_carlo(nu, -12, 400, 3, seed=5)
    assert b.value == a.value.conjugate()


def test_exact_phase_folding_huge_frequency():
    nu = nu_single()
    xi = 2**50
    est = fourier_cylinder_sum(nu, xi, 1)
    frac = Fraction(5, 12) * xi
    frac -= math.floor(frac)
    assert est.value == pytest.approx(cmath.exp(2j * math.pi * float(frac)),
                                      rel=1e-12)
    lm = toy_lambda()
    oracle = oracle_paths(lm.nu, lm.schedule.i, lm.schedule.r, 6)
    want, _ = oracle_transform(oracle, 2**60)
    est = fourier_cylinder_sum(lm, 2**60, 6)
    assert est.value == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_cylinder_budgets():
    lm = toy_lambda()
    with pytest.raises(BudgetExceeded):
        fourier_cylinder_sum(lm, 3, 13, budget=100)
    nu = nu_two_digit()
    with pytest.raises(BudgetExceeded):
        fourier_cylinder_sum(nu, 3, 12, budget=1000)


def test_monte_carlo_overflow_guard():
    big = NuMeasure(
        n_bound=5000,
        p=1,
        sigma=math.log(5000),
        eps_window=Fraction(1, 4),
        support=((4999,), (5000,)),
        beta_achieved=math.log(2) / math.log(5000),
    )
    with pytest.raises(BudgetExceeded):
        fourier_monte_carlo(big, 3, 10, 6, seed=0)


@pytest.mark.parametrize("xi", [2**1100, -2**1100, Fraction(2**1100, 3)])
def test_frequencies_beyond_float_range_are_rejected(xi):
    # the fold would be exact, but the bound is a float product with |xi|
    nu, lm = nu_two_digit(), toy_lambda()
    for estimate in (lambda: fourier_cylinder_sum(lm, xi, 9),
                     lambda: fourier_cylinder_sum(nu, xi, 4),
                     lambda: fourier_monte_carlo(nu, xi, 100, 6),
                     lambda: fourier_monte_carlo(lm, xi, 100, 6),
                     lambda: decay_scan(nu, [2, xi], "cylinder", 4),
                     lambda: decay_scan(lm, [2, xi], "cylinder", 9)):
        with pytest.raises(PreconditionViolated, match="2\\^1024"):
            estimate()


def test_width_ceiling_is_sound():
    lm = toy_lambda()
    cap = _width_ceiling(lm, 8)
    cols = _lambda_leaves(lm, 8)
    for q, qp in zip(cols.q, cols.qp):
        assert Fraction(1, q * (q + qp)) <= cap
    nu = nu_two_digit()
    from cfraj.blocks import cylinder_geometry, product_convergent_matrices
    _, widths = cylinder_geometry(product_convergent_matrices(nu, 4))
    assert widths.max() <= float(_width_ceiling(nu, 4))


def scan_lambda():
    nu = nu_digits45()
    sch = Schedule(
        i=(2, 4, 7, 11, 16), r=(1, 1, 1, 1, 1), p=1, sigma=nu.sigma,
        rule=AssignmentRule.sum_of_previous(),
    )
    return build_lambda(nu, sch, 18)


def scan_frequencies(lm):
    # alpha = 2 pulls the schedule's scales down to desk-size frequencies
    sigma = lm.schedule.sigma
    return [0.0, math.exp(12.5 * sigma / 2), math.exp(17.5 * sigma / 2)]


def test_decay_scan_rows_lambda_cylinder():
    lm = scan_lambda()
    xs = scan_frequencies(lm)
    table = decay_scan(lm, xs, "cylinder", 18, alpha=2)
    assert [r.n_index for r in table.rows] == [0, 4, 5]
    assert table.rows[0].exc_tv == 0
    assert abs(table.rows[0].full.value) == 1.0
    assert table.rows[1].exc_tv == 1  # labels 3, 4, 5 carry everything
    r5 = table.rows[2]
    assert r5.exc_tv == Fraction(3, 4)
    assert r5.exc_tv == sum(xn_mass(lm, m) for m in (4, 5, 6))
    split = split_typ_exc(lm, xs[2], 2)
    assert split.exc_mass == r5.exc_tv and split.n_index == 5
    # unnormalized typical estimate stays under its own mass
    assert abs(r5.typ.value) <= 0.25 + 1e-12
    for row in table.rows:
        assert abs(row.full.value) <= (
            float(row.exc_tv) + abs(row.typ.value)
            + row.full.err_bound + row.typ.err_bound + 1e-12
        )


def test_decay_scan_montecarlo_rows_and_determinism():
    lm = scan_lambda()
    xs = scan_frequencies(lm)
    t1 = decay_scan(lm, xs, "montecarlo", 18, samples=2000, seed=11, alpha=2)
    t2 = decay_scan(lm, xs, "montecarlo", 18, samples=2000, seed=11, alpha=2)
    assert t1.serialize_csv() == t2.serialize_csv()
    t3 = decay_scan(lm, xs, "montecarlo", 18, samples=2000, seed=12, alpha=2)
    assert t3.rows[1].full.value != t1.rows[1].full.value
    for row in t1.rows:
        assert abs(row.full.value) <= (
            float(row.exc_tv) + abs(row.typ.value)
            + row.full.err_bound + row.typ.err_bound
        )
    assert t1.rows[1].exc_tv == 1
    assert t1.rows[0].full.value == 1 + 0j


def test_decay_scan_requires_ascending():
    nu = nu_two_digit()
    with pytest.raises(PreconditionViolated):
        decay_scan(nu, [8, 4], "cylinder", 3)
    with pytest.raises(PreconditionViolated):
        decay_scan(nu, [4, 8], "fft", 3)


def test_decay_scan_product_measure_and_slope():
    nu = nu_two_digit()
    xs = [2**k for k in range(2, 10)]
    table = decay_scan(nu, xs, "cylinder", 6)
    assert all(r.n_index == 0 and r.exc_tv == 0 for r in table.rows)
    assert all(r.typ.value == r.full.value for r in table.rows)
    slope = decay_slope(table)
    logs_x = [math.log(x) for x in xs]
    logs_y = [math.log(abs(r.full.value)) for r in table.rows]
    want = float(np.polyfit(logs_x, logs_y, 1)[0])
    assert slope == pytest.approx(want, rel=1e-12)
    assert math.isfinite(slope)


def bits(est):
    return (est.value.real.hex(), est.value.imag.hex(), est.err_bound.hex(),
            est.method, est.depth, est.samples)


# negative, zero, float, int, Fraction, a float above the exact-fold
# threshold and an int above it
SCAN_XIS = [-7, 0, 2.5, 3, Fraction(7, 2), 2.0**41, 2**45 + 1]


@pytest.mark.parametrize("source", ["nu", "lambda"])
def test_scan_rows_equal_single_frequency_estimates(source):
    measure, depth = ((nu_two_digit(), 4) if source == "nu"
                      else (toy_lambda(), 9))
    cyl = decay_scan(measure, SCAN_XIS, "cylinder", depth)
    mc = decay_scan(measure, SCAN_XIS, "montecarlo", depth, samples=300,
                    seed=4)
    for xi, crow, mrow in zip(SCAN_XIS, cyl.rows, mc.rows):
        assert bits(crow.full) == bits(fourier_cylinder_sum(measure, xi, depth))
        assert bits(mrow.full) == bits(
            fourier_monte_carlo(measure, xi, 300, depth, seed=4))
    for table in (cyl, mc):
        neg, pos = table.rows[0].full, decay_scan(
            measure, [7], table.method, depth, samples=300, seed=4).rows[0].full
        assert neg.value == pos.value.conjugate()
        assert neg.err_bound == pos.err_bound
    if source == "nu":
        return
    # a cascade row's typical estimate reuses the full row's terms; it
    # equals a fresh estimate under a mask built atom by atom
    for table, atoms, chains in (
            (cyl, _atoms(measure, depth),
             [row[0] for row in cylinder_rows(measure, depth)]),
            (mc, _atoms(measure, depth, 300, 4),
             [row[0] for row in sampled_rows(measure, 300, depth, 4)])):
        typed = 0
        for xi, row in zip(SCAN_XIS, table.rows):
            if row.n_index == 0:
                assert row.typ is row.full
                continue
            split = split_typ_exc(measure, abs(xi))
            keep = np.array([not split.is_exceptional(chain)
                             for chain in chains])
            assert not keep.all()
            assert bits(row.typ) == bits(_estimate(atoms, xi, depth, keep))
            typed += 1
        assert typed >= 4


def scan_digest(table):
    """sha256 of a scan's CSV plus the hex of every row's two bounds."""
    doc = table.serialize_csv() + "".join(
        f"{row.full.err_bound.hex()},{row.typ.err_bound.hex()}\n"
        for row in table.rows)
    return hashlib.sha256(doc.encode()).hexdigest()


A06_XIS = [2**k for k in range(12)]


# digests of scans drawn path by path with _walk, which the columnar
# sampler must reproduce bit for bit
@pytest.mark.parametrize("xis,depth,samples,seed,digest", [
    (SCAN_XIS, 9, 300, 4,
     "417199e9fa309952c51fa4fbd159a6dd31b3dddac3b5a221574f38489604e01e"),
    (SCAN_XIS, 9, 300, 5,
     "370f173f1081451ddd99a6d72a24e5f98df9fb4a8406658c1b5e6e5c99b9bebb"),
    (A06_XIS, 13, 20000, 0,
     "36a17c4624528fc682eb205cf60b0f9e7a2d74ad510176d0b4cded26534282a9"),
    (A06_XIS, 13, 20000, 1,
     "23cde7c4b83ffc89f2de80a473fe630b68221fc1fdb240f7085478bb65048e9c"),
])
def test_monte_carlo_scans_are_pinned(xis, depth, samples, seed, digest):
    table = decay_scan(toy_lambda(), xis, "montecarlo", depth,
                       samples=samples, seed=seed)
    assert scan_digest(table) == digest


# digests of cylinder scans and sums over the cylinders the earlier
# recursive walk listed, which the columnar enumeration must reproduce bit
# for bit; the scan digest adds every row's typical value
@pytest.mark.parametrize("xis,depth,digest", [
    (SCAN_XIS, 9,
     "a9e9957b8a3bc522acfa9b0d49e002bdb9ed2a47d003f5419ec2b08dce473fa8"),
    (A06_XIS, 13,
     "8df821f626961e38c9e59b003f73d8a6edfaac30b915857c95f1855c98ae7413"),
])
def test_cascade_cylinder_scans_are_pinned(xis, depth, digest):
    table = decay_scan(toy_lambda(), xis, "cylinder", depth)
    typ = "".join(f"{row.typ.value.real.hex()},{row.typ.value.imag.hex()}\n"
                  for row in table.rows)
    doc = scan_digest(table) + typ
    assert hashlib.sha256(doc.encode()).hexdigest() == digest


def test_cascade_cylinder_sums_are_pinned():
    doc = "".join(
        f"{bits(fourier_cylinder_sum(lm, x, depth))}\n"
        for lm, depth in ((toy_lambda(), 9), (toy_lambda(), 13),
                          (scan_lambda(), 10))
        for xi in (1, 3, Fraction(7, 2), 2.5, 2**11, 2**45 + 1)
        for x in (xi, -xi))
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "2b94d2f451dfa2ef808570f63e2d79aea36a4ea1e64188eed97a6b7e47f9512f")


def test_sample_atoms_evaluate_each_distinct_cylinder_once():
    lm = toy_lambda()
    atoms = _atoms(lm, 13, 20000, 0)
    n = len(atoms.mids)
    num, den = atoms.exact_mids(0, n)
    assert n == len(num) == len(den) < 20000
    assert len(atoms.inverse) == len(atoms.label_ids) == 20000
    assert sorted(set(atoms.inverse.tolist())) == list(range(n))
    # the same draw with one atom per sample
    inv = atoms.inverse.tolist()
    num, den = [num[k] for k in inv], [den[k] for k in inv]
    each = dataclasses.replace(
        atoms, mids=atoms.mids[atoms.inverse], inverse=None,
        exact_mids=lambda lo, hi: (num[lo:hi], den[lo:hi]))
    for xi in (3, Fraction(7, 2), 2.5, 2**45 + 1, -7):
        a, b = _Chain(), _Chain()
        assert _evaluate(atoms, xi, chain=a) == _evaluate(each, xi, chain=b)
        assert a.cos.tobytes() == b.cos.tobytes()
        assert a.sin.tobytes() == b.sin.tobytes()


# int, Fraction and float frequencies. A width term of
# math.pi * float(|xi| * width ceiling), rounded to nearest, falls below
# PI_UP * |xi| * width ceiling on the cascade source at every one of them
MC_BOUND_XIS = [3**k for k in range(1, 40, 3)] + [
    Fraction(10**k + 1, 7) for k in range(1, 30, 3)] + [
    1.1 * 7.0**k for k in range(1, 30, 3)]


@pytest.mark.parametrize("source", ["nu", "lambda"])
def test_monte_carlo_width_term_is_an_upper_bound(source):
    measure, depth = ((nu_two_digit(), 6) if source == "nu"
                      else (toy_lambda(), 9))
    samples = 40
    atoms = _atoms(measure, depth, samples, 3)
    cap = _width_ceiling(measure, depth)
    stat = Fraction(3.0 / math.sqrt(samples))
    for xi in MC_BOUND_XIS:
        for x in (xi, -xi):
            est = _estimate(atoms, x, depth)
            assert Fraction(est.err_bound) >= (
                stat + Fraction(fourier.PI_UP) * abs(Fraction(x)) * cap), x


# float-fold frequencies below EXACT_FOLD_THRESHOLD: int, float, Fraction
FLOAT_FOLD_XIS = [2.5, 3, Fraction(7, 2), 12345.678, 1e11 + 0.25,
                  Fraction(2**39, 3), 2**39 - 5]


@pytest.mark.parametrize("depth", [1, 2, 12])
def test_nu_scan_values_equal_reference_expression(depth):
    nu = nu_two_digit()
    mids, _ = cylinder_geometry(product_convergent_matrices(nu, depth))
    weight = float(nu.atom)**depth
    table = decay_scan(nu, FLOAT_FOLD_XIS, "cylinder", depth)
    for xi, row in zip(FLOAT_FOLD_XIS, table.rows):
        want = complex(weight * np.exp(
            2j * math.pi * ((float(xi) * mids) % 1.0)).sum())
        assert row.full.value.real.hex() == want.real.hex()
        assert row.full.value.imag.hex() == want.imag.hex()


# pi rounded up at 20 decimals: an upper bound on the true pi
PI_UP = Fraction(314159265358979323847, 10**20)


@pytest.mark.parametrize("measure,depth", [
    (nu_two_digit(), 2), (nu_two_digit(), 7),
    (build_nu(3, 2, None, Fraction(3, 10), sigma_anchor=(5, 1)), 3),
])
def test_nu_cylinder_bound_covers_exact_width_sum(measure, depth):
    mats = product_convergent_matrices(measure, depth)
    _, widths = cylinder_geometry(mats)
    weight = float(measure.atom)**depth
    float_widths = sum(Fraction(w) for w in widths.tolist())
    exact_widths = sum(Fraction(1, q * (q + qp))
                       for q, qp in mats[:, 0, :].tolist())
    for xi in (1, 3, 2.5, Fraction(7, 2), 2**20 + 1, 2**45 + 1):
        bound = Fraction(fourier_cylinder_sum(measure, xi, depth).err_bound)
        x = Fraction(xi)
        assert bound >= PI_UP * x * Fraction(weight) * float_widths
        assert bound >= PI_UP * x * measure.atom**depth * exact_widths


@pytest.mark.parametrize("lm,depth", [(toy_lambda(), 13),
                                      (scan_lambda(), 10)])
def test_cascade_cylinder_bound_covers_exact_width_sum(lm, depth):
    terms = [mass / (q * (q + qp))
             for *_, q, qp, mass in cylinder_rows(lm, depth)]
    atoms = _atoms(lm, depth)
    rng = np.random.default_rng(depth)
    for keep in (None, rng.random(len(terms)) < 0.5):
        exact = sum(terms if keep is None else
                    [t for t, k in zip(terms, keep) if k])
        for xi in (1, 3, 2.5, Fraction(7, 2), 2**20 + 1, 2**45 + 1):
            bound = Fraction(_error(atoms, xi, 0.0, keep))
            assert bound >= PI_UP * Fraction(xi) * exact


def sampled_atoms(measure, depth):
    return _atoms(measure, depth, samples=256, seed=depth)


# every power-of-two product is exact, the others round
EVAL_XIS = ([2**k for k in (0, 4, 11, 18, 29, 39)]
            + [12345.678, 2**39 - 5, Fraction(2**39, 3)])


@pytest.mark.parametrize("source,depth", [
    ("reference samples", 2), ("reference samples", 3),
    ("two-digit samples", 2), ("two-digit samples", 3),
    ("two-digit cylinders", 2), ("two-digit cylinders", 3),
    # midpoint denominators above 2^53: the float midpoints round more
    ("two-digit samples", 30),
])
def test_nu_evaluation_term_covers_exact_midpoint_sum(source, depth):
    if source == "two-digit cylinders":
        nu = nu_two_digit()
        atoms, weight = _atoms(nu, depth), nu.atom**depth
    else:
        nu = reference_nu() if source.startswith("reference") \
            else nu_two_digit()
        atoms = sampled_atoms(nu, depth)
        weight = Fraction(1, atoms.samples)
    num, den = atoms.exact_mids(0, len(atoms.mids))
    with mpmath.workdps(50):
        for xi in EVAL_XIS:
            exact = mpmath.mpc(0)
            for n, d in zip(num, den):
                phase = Fraction(xi) * Fraction(n, d) % 1
                exact += mpmath.expjpi(2 * mpmath.mpf(phase.numerator)
                                       / phase.denominator)
            exact *= mpmath.mpf(weight.numerator) / weight.denominator
            value, eps = _evaluate(atoms, xi)
            term = _evaluation_term(atoms, eps)
            assert abs(mpmath.mpc(value) - exact) <= term, xi
            assert term < 1e-2


def test_dyadic_scan_rows_lie_within_their_evaluation_terms(monkeypatch):
    nu = reference_nu()
    xs = [2.0**k for k in range(-20, 40)]
    called, terms = [], []

    def direct_terms(atoms, x, buf, rows):
        called.append(x)
        return real_direct(atoms, x, buf, rows)

    def evaluation_term(atoms, eps):
        terms.append(real_term(atoms, eps))
        return terms[-1]

    real_direct, real_term = fourier._direct_terms, fourier._evaluation_term
    monkeypatch.setattr(fourier, "_direct_terms", direct_terms)
    monkeypatch.setattr(fourier, "_evaluation_term", evaluation_term)
    table = decay_scan(nu, xs, "cylinder", 2)
    assert len(terms) == len(xs)
    # the chain starts with a direct evaluation and restarts at least
    # once, yet squares at least one row; the direct rows are counted
    # from the plan, as each leaf of the pass calls exp once per row
    direct = [x for x, m, _ in fourier._nu_plan(_atoms(nu, 2), xs) if m == 0]
    assert direct[0] == xs[0] and 1 < len(direct) < len(xs)
    assert sorted(set(called)) == direct
    for xi, row, term in zip(xs, table.rows, terms):
        want = fourier_cylinder_sum(nu, xi, 2)
        assert abs(row.full.value - want.value) <= term, xi
        assert row.full.err_bound >= term


def test_complex_exp_is_within_the_stated_ulps():
    rng = np.random.default_rng(5)
    theta = np.concatenate([rng.random(3000) * 2 * math.pi,
                            rng.random(500) * 1e-6,
                            math.pi / 2 + (rng.random(500) - 0.5) * 1e-6])
    terms = np.exp(1j * theta)
    with mpmath.workdps(40):
        for t, z in zip(theta.tolist(), terms.tolist()):
            t = mpmath.mpf(t)
            assert abs(z.real - mpmath.cos(t)) <= EXP_ULPS * U
            assert abs(z.imag - mpmath.sin(t)) <= EXP_ULPS * U


def test_complex_square_is_within_sqrt5_u():
    rng = np.random.default_rng(6)
    z = np.exp(2j * math.pi * rng.random(3000)) * (1 + 1e-9 * rng.random(3000))
    sq = z.copy()
    np.multiply(sq, sq, out=sq)
    for a, b in zip(z.tolist(), sq.tolist()):
        x, y = Fraction(a.real), Fraction(a.imag)
        err2 = (Fraction(b.real) - (x * x - y * y))**2 \
            + (Fraction(b.imag) - 2 * x * y)**2
        assert err2 <= (Fraction(SQRT5_UP) * Fraction(U) * (x * x + y * y))**2


def pairwise_sum(terms):
    """numpy's pairwise sum of complex terms, replayed in Python floats."""
    def part(lo, n):  # n counts float parts, two a term
        if n < 8:
            rr = ri = -0.0
            for z in terms[lo:lo + n // 2]:
                rr, ri = rr + z.real, ri + z.imag
            return rr, ri
        if n <= 128:
            acc = [[z.real, z.imag] for z in terms[lo:lo + 4]]
            i = 8
            while i < n - n % 8:
                for j, z in enumerate(terms[lo + i // 2:lo + i // 2 + 4]):
                    acc[j][0] += z.real
                    acc[j][1] += z.imag
                i += 8
            rr = (acc[0][0] + acc[1][0]) + (acc[2][0] + acc[3][0])
            ri = (acc[0][1] + acc[1][1]) + (acc[2][1] + acc[3][1])
            for z in terms[lo + i // 2:lo + n // 2]:
                rr, ri = rr + z.real, ri + z.imag
            return rr, ri
        half = n // 2 - (n // 2) % 8
        a, b = part(lo, half), part(lo + half // 2, n - half)
        return a[0] + b[0], a[1] + b[1]
    return part(0, 2 * len(terms))


@pytest.mark.parametrize("n", [1, 3, 4, 63, 64, 65, 131, 1000, 36100])
def test_numpy_complex_sum_is_the_pairwise_sum_the_bound_counts(n):
    rng = np.random.default_rng(n)
    terms = np.exp(2j * math.pi * rng.random(n)) * 10.0**rng.integers(-6, 6, n)
    total = terms.sum()
    assert (total.real, total.imag) == pairwise_sum(terms.tolist())


@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("leaf", [1, 7, 64, 100, 1000, fourier._LEAF,
                                  1 << 16])
def test_leaf_sums_combine_to_the_numpy_sum(parts, leaf):
    """The one-pass nu evaluation sums leaf by leaf and combines the
    leaf sums; the evaluation term counts numpy's pairwise additions.
    Both rest on this equality, so a numpy that reorders its sum fails
    here."""
    rng = np.random.default_rng(leaf)
    lengths = list(range(1, 301)) + [8191, 8192, 36100]
    if leaf in (100, fourier._LEAF, 1 << 16):
        lengths.append(190**3)
    for n in lengths:
        values = (np.exp(2j * math.pi * rng.random(n))
                  * 10.0**rng.integers(-6, 6, n))
        if parts == 1:
            values = values.real.copy()
        sums = [values[lo:hi].sum()
                for lo, hi in fourier._pairwise_leaves(n, parts, leaf)]
        total = fourier._pairwise_combine(n, parts, leaf, sums)
        assert np.asarray(total).tobytes() == values.sum().tobytes(), n


def est_hex(est):
    return (f"{est.value.real.hex()},{est.value.imag.hex()},"
            f"{est.err_bound.hex()}")


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# negative, zero, direct, squared once and twice, restarted (a doubling
# whose squared bound is too large) and exact-fold rows from 2^40 up
NU_PIN_XIS = [-(2**20), 0, 2.0**-3, 2.0**-2, 1, 2, 3, 6.5, 13, 2**10, 2**11,
              2**13, 3 * 2**13, 2**20, 2**21, 2**39 - 5, 2**40, 2**41,
              2**45 + 1, 2**46 + 2, 2.0**47, Fraction(2**50 + 1, 3), 2.0**49,
              2.0**50]


# digests of scans evaluated in one full-size buffer, which the
# leaf-by-leaf pass must reproduce bit for bit at any leaf size
@pytest.mark.parametrize("leaf", [1 << 16, fourier._LEAF, 1000])
@pytest.mark.parametrize("measure,depth,digest_want", [
    (nu_two_digit(), 12,
     "4c5da65e0ede3aab640e23eebf4b11484b77e19b872afe52d1ceaa20528ac0ad"),
    (nu_two_digit(), 17,
     "e4a4f1dc7ed334cf8ba3776838de6b32013117306c1b372d9bc33eb8499f3db2"),
    (build_nu(3, 2, None, Fraction(3, 10), sigma_anchor=(5, 1)), 6,
     "71bad9478ff529ad79637a3b7f11437ce276b673d2a058848a19b94610029ba0"),
])
def test_nu_cylinder_scans_are_pinned(monkeypatch, leaf, measure, depth,
                                      digest_want):
    monkeypatch.setattr(fourier, "_LEAF", leaf)
    atoms = _atoms(measure, depth)
    plan = fourier._nu_plan(atoms, NU_PIN_XIS)
    rows = [row for row in plan if row is not None]
    assert plan[1] is None and {m for _, m, _ in rows} >= {0, 1, 2}
    assert any(m == 0 and fourier._doublings(atoms, last[0], x)
               for last, (x, m, _) in zip(rows, rows[1:]))
    table = decay_scan(measure, NU_PIN_XIS, "cylinder", depth)
    assert digest(est_hex(r.full) for r in table.rows) == digest_want


def test_nu_single_frequency_estimates_are_pinned(monkeypatch):
    nu = nu_two_digit()
    ests = [fourier_cylinder_sum(nu, x, 12)
            for x in (3, 2.5, 2**45 + 1, -7, 0, 2**11)]
    ests += [fourier_monte_carlo(nu, x, 500, 6, seed=s)
             for x in (3, 2.5, 2**45 + 1, -7) for s in (0, 1)]
    ests += [fourier_cylinder_sum(reference_nu(), 2**10, 2),
             fourier_monte_carlo(reference_nu(), 2**10, 2000, 3, seed=1)]
    assert digest(est_hex(e) for e in ests) == (
        "86429ca80b483ea63db25ad668a85088871ec163f8e4b9636cac5ef65a6bc76b")


@pytest.mark.parametrize("depth,digest_want", [
    (2, "93121cf7b1de4a2032666a021f05831ae693be1807ee4386f5fbadbe86f8dc73"),
    (3, "514fd14424aa58da4aff57186546c38a180dcc285eee39cc5045366f0bb30112"),
])
def test_reference_decay_scans_are_pinned(depth, digest_want):
    """The decay experiment's rows (xi = 2^4 .. 2^18), 190^depth atoms."""
    table = decay_scan(reference_nu(), [2**k for k in range(4, 19)],
                       "cylinder", depth, budget=10**7)
    assert digest(est_hex(r.full) for r in table.rows) == digest_want


def test_nu_scan_folds_huge_integers_exactly():
    nu = nu_two_digit()
    xi = 2**45 + 1
    want = 0j
    for word in iter_product(nu.support, repeat=4):
        q, qp, pn, pp = 1, 0, 0, 1
        for (d,) in word:
            q, qp = d * q + qp, q
            pn, pp = d * pn + pp, pn
        frac = Fraction(2 * pn * q + pn * qp + pp * q, 2 * q * (q + qp)) * xi
        frac -= math.floor(frac)
        want += cmath.exp(2j * math.pi * float(frac)) / 16
    row = decay_scan(nu, [xi], "cylinder", 4).rows[0]
    assert row.full.value == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert row.full.value != 1 + 0j


def test_nu_exact_rows_convert_each_leaf_once(monkeypatch):
    """Exact-fold rows share one integer conversion (_midpoints) per leaf
    of the pass, and no conversion spans more than one leaf. The leaves
    here, 512 atoms, are each converted in one call. Leaves run on any
    core, so the calls are matched to rows by their words, not by the
    order in which they finish."""
    monkeypatch.setattr(fourier, "_LEAF", 1000)
    nu, depth = nu_two_digit(), 12
    words = list(iter_product(nu.support, repeat=depth))
    mids = []
    for word in words:
        q, qp, pn, pp = 1, 0, 0, 1
        for (d,) in word:
            q, qp, pn, pp = d * q + qp, q, d * pn + pp, pn
        mids.append(Fraction(2 * pn * q + pn * qp + pp * q, 2 * q * (q + qp)))
    # distinct cylinders have distinct midpoints, so a call's first one
    # gives the row it starts at
    row = {mid: k for k, mid in enumerate(mids)}
    calls = []

    def midpoints(*args):
        num, den = real(*args)
        lo = row[Fraction(num[0], den[0])]
        calls.append((lo, lo + len(num), num, den))
        return num, den

    real = fourier._midpoints
    monkeypatch.setattr(fourier, "_midpoints", midpoints)
    decay_scan(nu, [2**40, 2**41, 2**45 + 1], "cylinder", depth)
    calls.sort(key=lambda call: call[0])
    leaves = list(fourier._pairwise_leaves(2**depth, 2, 1000))
    assert len(leaves) > 1
    # one call per leaf, not one per exact row, each covering exactly it
    assert [(lo, hi) for lo, hi, _, _ in calls] == leaves
    for lo, hi, num, den in calls:
        assert [Fraction(n, d) for n, d in zip(num, den)] == mids[lo:hi]


rationals = st.one_of(
    st.integers(1, 2**220),
    st.builds(Fraction, st.integers(1, 2**220), st.integers(1, 2**220)),
)


@settings(max_examples=300)
@given(xi=rationals,
       mids=st.lists(st.tuples(st.integers(0, 2**220), st.integers(1, 2**220)),
                     min_size=1, max_size=8))
def test_integer_fold_matches_fraction_reference(xi, mids):
    num, den = [n for n, _ in mids], [d for _, d in mids]
    atoms = _Atoms(weight=1.0, mids=np.array([n / d for n, d in mids]),
                   cascade=True,
                   exact_mids=lambda lo, hi: (num[lo:hi], den[lo:hi]))
    want = []
    for n, d in mids:
        ph = Fraction(xi) * Fraction(n, d)
        want.append(float(ph - math.floor(ph)))
    assert _fold(atoms, xi).tolist() == want


def test_csv_format():
    nu = nu_two_digit()
    xs = [0, 4, 16]
    table = decay_scan(nu, xs, "cylinder", 4)
    text = table.serialize_csv()
    lines = text.strip().split("\n")
    assert lines[0].startswith(f"# cfraj_version={__version__} config_hash=")
    assert lines[1] == "xi,re,im,abs,err,n_index,exc_tv"
    assert len(lines) == 2 + len(xs)
    first = lines[2].split(",")
    assert len(first) == 7
    assert float(first[0]) == 0 and float(first[3]) == 1.0
    assert float(first[4]) == 0.0
    # 17 significant digits round-trip the floats exactly
    row = lines[3].split(",")
    est = fourier_cylinder_sum(nu, 4, 4)
    assert float(row[1]) == est.value.real
    assert float(row[2]) == est.value.imag
    assert len(table.config_hash) == 16
