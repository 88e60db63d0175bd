import dataclasses
import functools
import hashlib
import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfraj.blocks import (build_nu, product_convergent_matrices,
                          sliding_max_mass)
from cfraj.errors import BudgetExceeded, CertificationFailed, \
    PreconditionViolated
from cfraj import cascade
from cfraj.cascade import _lambda_leaves
from cfraj.fourier import (_LEAF, _at_least, _atoms, _ratio_up, decay_scan,
                           fourier_cylinder_sum)
from cfraj.oscillatory import (
    GL_ORDER,
    NODE_ULPS,
    QUAD_MAX_NODES,
    QUAD_TARGET,
    TWO_PI,
    WEIGHT_ULPS,
    OscillatoryTestCase,
    PhaseFunction,
    _certified_integral,
    _gauss_legendre,
    _gl_nodes,
    _grid,
    _leggauss,
    _Majorant,
    _panel_remainder,
    certified_inf_abs,
    certified_range,
    certified_sup_abs,
    check_integral_inequality,
    check_nonstationary,
    check_stationary,
    integral_sweep_case,
    nonstationary_sweep_case,
    run_sweep,
    stationary_case,
    stationary_sweep_case,
)
from test_cascade import cylinder_rows, toy_lambda


def nu23():
    return build_nu(3, 1, None, Fraction(1, 4), sigma_anchor=(6, 2))


def fresnel(z):
    """(S(z), C(z)) with S(z) = integral_0^z sin(pi t^2 / 2) dt."""
    return float(mpmath.fresnels(z)), float(mpmath.fresnelc(z))


def mp_integral(f, interval, square):
    """30-digit mpmath.quad of e(f) or, when square, f^2: Gauss-Legendre
    on pieces a few oscillations wide, its own error estimate checked."""
    with mpmath.workdps(30):
        def mpf(q):
            return mpmath.mpf(q.numerator) / q.denominator

        poly = [mpf(c) for c in reversed(f.poly)]
        trig = [(kind == "sin", mpf(amp) * (2 * mpmath.pi)**k,
                 2 * mpmath.pi * mpf(freq)) for kind, amp, freq, k in f.trig]

        def phi(t):
            acc = mpmath.polyval(poly, t) if poly else mpmath.mpf(0)
            for is_sin, w, om in trig:
                acc += w * (mpmath.sin(om * t) if is_sin
                            else mpmath.cos(om * t))
            return acc

        lo, hi = mpf(Fraction(interval[0])), mpf(Fraction(interval[1]))
        reach = float(max(abs(lo), abs(hi)))
        pieces = max(4, math.ceil(
            float(hi - lo) * _Majorant.of(f).dsup(reach) / 16))
        value, err = mpmath.quad(
            (lambda t: phi(t)**2) if square
            else (lambda t: mpmath.expjpi(2 * phi(t))),
            mpmath.linspace(lo, hi, pieces + 1), error=True,
            method="gauss-legendre")
        assert err < 1e-25
        return complex(value)


# ------------------------------------------------------ phase objects


def test_polynomial_eval_and_derivative():
    f = PhaseFunction(poly=(1, 2, 3))
    assert f(2.0) == 17.0
    assert f.derivative()(0.5) == 2 + 3.0
    assert f.derivative().derivative()(9.0) == 6.0
    xs = np.array([0.0, 1.0, 2.0])
    assert np.array_equal(f(xs), np.array([1.0, 6.0, 17.0]))


def test_trig_derivative_matches_finite_differences():
    f = PhaseFunction(
        poly=(0, Fraction(1, 3)),
        trig=((("sin"), Fraction(1, 2), Fraction(3), 0),
              (("cos"), Fraction(-2, 7), Fraction(5), 0)),
    )
    d = f.derivative()
    h = 1e-6
    for t in (0.13, 0.41, 0.77):
        fd = (f(t + h) - f(t - h)) / (2 * h)
        assert d(t) == pytest.approx(fd, rel=1e-6, abs=1e-6)
    # closure: second derivative still evaluates and tracks pi powers
    d2 = d.derivative()
    fd2 = (d(0.3 + h) - d(0.3 - h)) / (2 * h)
    assert d2(0.3) == pytest.approx(fd2, rel=1e-5, abs=1e-4)


def reference_call(f, t):
    """PhaseFunction evaluation that converts every Fraction per call.

    Scalars use math.sin / math.cos and arrays np.sin / np.cos, as
    __call__ does, so the comparison checks the float conversions and
    the expression order, not which sine implementation rounds how.
    """
    if np.isscalar(t):
        x, acc, sin, cos = float(t), 0.0, math.sin, math.cos
    else:
        x = np.asarray(t, dtype=float)
        acc, sin, cos = np.zeros_like(x), np.sin, np.cos
    for c in reversed(f.poly):
        acc = acc * x + float(c)
    for kind, amp, freq, k in f.trig:
        w = float(amp) * TWO_PI**k
        arg = TWO_PI * float(freq) * x
        acc = acc + w * (sin(arg) if kind == "sin" else cos(arg))
    return acc


small_fractions = st.builds(Fraction, st.integers(-64, 64), st.integers(1, 16))


@st.composite
def phase_functions(draw):
    """Polynomial, trig or mixed phases, and derivatives with k > 0."""
    poly = draw(st.lists(small_fractions, max_size=5))
    trig = draw(st.lists(st.tuples(st.sampled_from(("sin", "cos")),
                                   small_fractions, small_fractions,
                                   st.just(0)), max_size=3))
    f = PhaseFunction(poly=tuple(poly), trig=tuple(trig))
    for _ in range(draw(st.integers(0, 2))):
        f = f.derivative()
    return f


finite = st.floats(-8, 8, allow_nan=False)
phase_inputs = st.one_of(
    finite,
    st.integers(-8, 8),
    finite.map(np.float64),
    finite.map(np.array),
    st.lists(finite, min_size=1, max_size=6).map(np.array),
)


@settings(max_examples=200)
@given(f=phase_functions(), t=phase_inputs)
def test_call_equals_fraction_reference_bit_for_bit(f, t):
    got, want = f(t), reference_call(f, t)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got, dtype=float).tobytes() \
        == np.asarray(want, dtype=float).tobytes()


def test_float_cache_is_not_part_of_identity():
    a = PhaseFunction(poly=(1, 2))
    b = PhaseFunction(poly=(Fraction(1), Fraction(2)))
    assert a == b and hash(a) == hash(b)
    assert repr(a) == \
        "PhaseFunction(poly=(Fraction(1, 1), Fraction(2, 1)), trig=())"


def test_memos_are_invisible_and_shared_arrays_read_only(monkeypatch):
    f = PhaseFunction(poly=(1, Fraction(-1, 3), 2),
                      trig=(("sin", Fraction(1, 2), 3, 0),))
    seen = (hash(f), repr(f), dataclasses.astuple(f))
    d = f.derivative()
    assert f.derivative() is d
    # int, Fraction and float endpoints of equal value share one entry
    intervals = ((0, 1), (Fraction(0), Fraction(1)), (0.0, 1.0))
    bounds = [f.coeff_bound, d.coeff_bound,
              *(functools.partial(bound, f) for bound in (
                  certified_sup_abs, certified_range, certified_inf_abs))]
    firsts = [bound(intervals[0]) for bound in bounds]
    grids = []
    call = PhaseFunction.__call__

    def spy(fn, t):
        grids.append(t)
        return call(fn, t)

    monkeypatch.setattr(PhaseFunction, "__call__", spy)
    for interval in intervals:
        for bound, first in zip(bounds, firsts):
            assert bound(interval) is first
    # a repeated certified bound evaluates no grid
    assert grids == []
    certified_range(f, (0, 2))
    assert len(grids) == 1
    assert (hash(f), repr(f), dataclasses.astuple(f)) == seen
    assert f == PhaseFunction(poly=f.poly, trig=f.trig)
    xs, _ = _grid((0, 1))
    assert _grid((Fraction(0), 1.0))[0] is xs
    for a in (xs, *_gl_nodes((1, 4), 8)):
        with pytest.raises(ValueError):
            a[0] = 0.0
    # a nu cylinder set of at most _LEAF atoms is formed once per depth
    nu = nu23()
    nu_seen = (hash(nu), nu.serialize())
    atoms = _atoms(nu, 5)
    assert _atoms(nu, 5) is atoms
    with pytest.raises(ValueError):
        atoms.mids[0] = 0.0
    with pytest.raises(BudgetExceeded):
        _atoms(nu, 5, budget=len(nu.support)**5 - 1)
    # nu23 has two atoms: 2^15 = _LEAF of them are kept, 2^16 are not
    assert len(nu.support) == 2 and _LEAF == 2**15
    assert _atoms(nu, 15) is _atoms(nu, 15)
    assert _atoms(nu, 16) is not _atoms(nu, 16)
    assert nu == nu23() and (hash(nu), nu.serialize()) == nu_seen
    # so is a cascade's; a sample set is drawn again on every call
    lm = toy_lambda()
    lm_seen = (hash(lm), lm.config_doc())
    atoms = _atoms(lm, 13)
    assert _atoms(lm, 13) is atoms and len(atoms) == 1792
    for held in (atoms.mids, atoms.weight, atoms.widths):
        with pytest.raises(ValueError):
            held[0] = 0.0
    with pytest.raises(BudgetExceeded, match="1792 cylinders"):
        _atoms(lm, 13, budget=1791)
    assert _atoms(lm, 13, 100) is not _atoms(lm, 13, 100)
    assert lm == toy_lambda() and (hash(lm), lm.config_doc()) == lm_seen
    # one enumeration serves a cylinder scan and six single sums
    enumerations = []

    def spy(*args):
        enumerations.append(args)
        return _lambda_leaves(*args)

    monkeypatch.setattr(cascade, "_lambda_leaves", spy)
    lm = toy_lambda()
    decay_scan(lm, [1, 8, 2**11], "cylinder", 13)
    for xi in (1, 8, 2**11, -1, -8, -2**11):
        fourier_cylinder_sum(lm, xi, 13)
    assert len(enumerations) == 1


def at_least_reference(value, exact):
    """The Fraction loop that _at_least's integer test replaced."""
    while Fraction(value) < exact:
        value = math.nextafter(value, math.inf)
    return value


def ulps(value: float, steps: int) -> float:
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


def outcome(fn, *args):
    """fn(*args) as float.hex, or the type of what it raised."""
    try:
        return fn(*args).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


exact_values = st.one_of(
    st.integers(-2**80, 2**80),
    # exact hits, subnormals among them
    st.floats(allow_nan=False, allow_infinity=False).map(Fraction),
    st.fractions(max_denominator=2**64),
    # huge and tiny
    st.builds(Fraction, st.integers(-2**1000, 2**1000),
              st.integers(1, 2**1100)),
)


@settings(max_examples=500)
@given(exact=exact_values, steps=st.integers(-3, 3))
def test_at_least_and_ratio_up_equal_the_fraction_loop(exact, steps):
    # from a few ulps either side of float(exact), one ulp below and
    # past the largest float included
    value = ulps(float(exact), steps)
    assert outcome(_at_least, value, exact) == \
        outcome(at_least_reference, value, exact)
    p, q = exact.as_integer_ratio()
    # unreduced ratios give the same float
    for k in (1, 3):
        assert outcome(_ratio_up, k * p, k * q) == \
            outcome(at_least_reference, float(exact), exact)


def test_at_least_raises_as_the_fraction_loop_did():
    top = Fraction(sys.float_info.max)
    for args in ((math.inf, 1), (-math.inf, Fraction(1, 3)), (math.nan, 1),
                 (math.nan, Fraction(-1, 3)),
                 # raised past the largest float
                 (sys.float_info.max, top + 1)):
        want = outcome(at_least_reference, *args)
        assert want in (OverflowError, ValueError)
        assert outcome(_at_least, *args) == want
    # p / q past the float range, as float(Fraction(p, q))
    huge = 2 * top + 1
    assert outcome(_ratio_up, *huge.as_integer_ratio()) == \
        outcome(float, huge) == OverflowError


def test_coefficient_bound_dominates_dense_sampling():
    f = PhaseFunction(
        poly=(Fraction(1, 2), Fraction(-1, 3), Fraction(1, 5)),
        trig=(("sin", Fraction(2, 3), Fraction(4), 0),
              ("cos", Fraction(-1, 4), Fraction(9), 1)),
    )
    xs = np.linspace(0.0, 2.0, 20001)
    assert float(np.abs(f(xs)).max()) <= f.coeff_bound((0, 2))


def test_coefficient_bound_rounds_up():
    # float(1/3) rounds down; the bound is the next float up
    bound = PhaseFunction(poly=(Fraction(1, 3),)).coeff_bound((0, 1))
    assert Fraction(bound) >= Fraction(1, 3)
    assert bound == math.nextafter(1 / 3, math.inf)
    # exact sums stay exact
    assert PhaseFunction(poly=(Fraction(1, 2), Fraction(1, 4))).coeff_bound(
        (-2, 1)) == 1.0

def test_certified_bounds_enclose_truth():
    f = PhaseFunction(trig=(("sin", 1, 1, 0),))
    sup = certified_sup_abs(f, (0, 1))
    assert 1.0 <= sup <= 1.01
    low, high = certified_range(f, (0, 1))
    assert low <= -1.0 <= 1.0 <= high
    g = PhaseFunction(poly=(2, Fraction(-1, 2)))
    # inf |g| on [0, 1] is 1.5, attained at the right endpoint
    inf = certified_inf_abs(g, (0, 1))
    assert 1.49 <= inf <= 1.5


def test_window_max_mass_by_hand():
    # per-atom masses, as check_integral_inequality passes them
    mids = np.array([0.0, 0.1, 0.2, 0.9])
    masses = np.array([0.1, 0.2, 0.3, 0.4])
    assert sliding_max_mass(mids, masses, (0.15, 1.0, 0.01)) == \
        pytest.approx([0.5, 1.0, 0.4])


# ------------------------------------------------- nonstationary lemma


def test_nonstationary_linear_phase_closed_form():
    # integer slope: the integral vanishes
    rep = check_nonstationary(
        OscillatoryTestCase(phase=PhaseFunction(poly=(0, 7)), a=7, b=0))
    assert rep.ok and rep.lhs <= rep.slack
    assert rep.rhs == pytest.approx(1 / 7)
    # half-integer slope: |sin(pi c)| / (pi c)
    c = Fraction(7, 2)
    rep = check_nonstationary(
        OscillatoryTestCase(phase=PhaseFunction(poly=(0, c)), a=c, b=0))
    want = abs(math.sin(math.pi * 3.5)) / (math.pi * 3.5)
    assert rep.lhs == pytest.approx(want, rel=1e-9)
    assert rep.ok and rep.lhs < rep.rhs


def test_nonstationary_negative_slope_accepted():
    c = Fraction(-7, 2)
    rep = check_nonstationary(
        OscillatoryTestCase(phase=PhaseFunction(poly=(0, c)), a=-c, b=0))
    assert rep.ok
    assert rep.lhs == pytest.approx(1 / (math.pi * 3.5), rel=1e-9)


def test_nonstationary_quadratic_vs_fresnel_oracle():
    # f = c t + d t^2 / 2; completing the square gives a Fresnel form.
    # inf f' = c sits exactly at the endpoint, so the certified a must
    # leave room for the grid's Lipschitz slack.
    c, d = 8, 3
    case = OscillatoryTestCase(
        phase=PhaseFunction(poly=(0, c, Fraction(d, 2))),
        a=Fraction(79, 10), b=d)
    rep = check_nonstationary(case)

    def fresnel_cumulative(z):
        s, co = fresnel(z * math.sqrt(2))
        return complex(co, s) / math.sqrt(2)

    lo = c / math.sqrt(d)
    hi = math.sqrt(d) * (1 + c / d)
    val = (fresnel_cumulative(hi) - fresnel_cumulative(lo)) / math.sqrt(d)
    assert rep.lhs == pytest.approx(abs(val), rel=1e-8)
    assert rep.ok and rep.lhs < rep.rhs


def test_nonstationary_certification_failures():
    wiggle = PhaseFunction(trig=(("sin", 1, 1, 0),))
    with pytest.raises(CertificationFailed):
        check_nonstationary(OscillatoryTestCase(phase=wiggle, a=1, b=50))
    straight = PhaseFunction(poly=(0, 5))
    with pytest.raises(CertificationFailed):
        check_nonstationary(
            OscillatoryTestCase(phase=straight, a=6, b=0))
    bent = PhaseFunction(poly=(0, 5, 2))
    with pytest.raises(CertificationFailed):
        check_nonstationary(OscillatoryTestCase(phase=bent, a=4, b=1))
    with pytest.raises(PreconditionViolated):
        check_nonstationary(OscillatoryTestCase(phase=straight, a=0, b=0))
    with pytest.raises(PreconditionViolated):
        check_nonstationary(OscillatoryTestCase(phase=straight, a=None, b=0))


# --------------------------------------------------- stationary lemma


def test_stationary_fresnel_family():
    for c in (4, 9, 25):
        case = stationary_case(
            PhaseFunction(poly=(1,)), a1=c, a2=0, a=1, b=Fraction(21, 20))
        rep = check_stationary(case)
        s, co = fresnel(math.sqrt(2 * c))
        want = abs(complex(co, s)) / math.sqrt(2 * c)
        assert rep.lhs == pytest.approx(want, rel=1e-8)
        assert rep.rhs == pytest.approx(6 * 1.05 / math.sqrt(c))
        assert rep.ok


def test_stationary_scaling_in_a1():
    g = PhaseFunction(poly=(1, Fraction(1, 8)))
    prev = None
    for a1 in (16, 64, 256):
        # inf |g| = 1 at the left endpoint; certified a stays below it
        case = stationary_case(g, a1=a1, a2=0, a=Fraction(63, 64),
                               b=Fraction(11, 10))
        rep = check_stationary(case)
        assert rep.ok
        scaled = rep.lhs * math.sqrt(a1)
        assert scaled < 6 * 1.1
        if prev is not None:
            assert rep.lhs < prev
        prev = rep.lhs


def test_stationary_degenerate_and_bad_inputs():
    g = PhaseFunction(poly=(1,))
    with pytest.raises(CertificationFailed):
        check_stationary(stationary_case(g, a1=0, a2=0, a=1, b=2))
    with pytest.raises(CertificationFailed):
        check_stationary(stationary_case(g, a1=4, a2=0, a=1, b=1))
    sign_change = PhaseFunction(poly=(1, -2))
    with pytest.raises(CertificationFailed):
        check_stationary(
            stationary_case(sign_change, a1=4, a2=0, a=Fraction(1, 2), b=3))
    with pytest.raises(PreconditionViolated):
        stationary_case(PhaseFunction(trig=(("sin", 1, 1, 0),)),
                        a1=4, a2=0, a=1, b=2)
    # supplied phase must actually factor through (a1 x + a2) g
    bad = OscillatoryTestCase(
        phase=PhaseFunction(poly=(0, 1)), a1=4, a2=0, a=1, b=2,
        gfun=PhaseFunction(poly=(1,)))
    with pytest.raises(CertificationFailed):
        check_stationary(bad)


# ----------------------------------------------- integral inequality


def test_integral_inequality_constant_function():
    rep = check_integral_inequality(
        OscillatoryTestCase(phase=PhaseFunction(poly=(1,)),
                            interval=(1, 4), m_bound=1.0),
        nu23(), depth=5)
    assert rep.ok
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.detail["m2"] == pytest.approx(3.0, rel=1e-12)
    # the u-window swallows everything, so omega is the full mass
    assert rep.detail["omega"] == pytest.approx(1.0, abs=1e-12)
    m2_hi = rep.detail["m2_hi"]
    want_rhs = 2 * m2_hi**0.3 + 1.0 * (1 + m2_hi**0.1)
    assert rep.rhs == pytest.approx(want_rhs, rel=1e-12)


def test_integral_inequality_sine_family():
    nu = nu23()
    for c in (1, 2, 5, 13, 32):
        f = PhaseFunction(trig=(("sin", 1, c, 0),))
        m_bound = 2 * math.pi * c * (1 + 1e-9)
        rep = check_integral_inequality(
            OscillatoryTestCase(phase=f, interval=(1, 4), m_bound=m_bound),
            nu, depth=6)
        assert rep.ok
        # sin^2 over three full periods integrates to 3/2
        assert rep.detail["m2"] == pytest.approx(1.5, rel=1e-9)
        assert rep.lhs <= 1.0 + 1e-12


def test_integral_inequality_lambda_measure():
    lm = toy_lambda()
    rep = check_integral_inequality(
        OscillatoryTestCase(phase=PhaseFunction(poly=(1,)),
                            interval=(1, 6), m_bound=1.0),
        lm, depth=13)
    assert rep.ok
    assert rep.lhs == pytest.approx(1.0, abs=1e-12)
    assert rep.detail["m2"] == pytest.approx(5.0, rel=1e-12)


def test_integral_inequality_case_67_m2_within_slack():
    # lemma-sweep seed 0 draws its integral cases from this stream; case
    # 67 (three sines, frequencies 4, 4 and 20, on [1, 4]) is where the
    # former adaptive quadrature warned that its error estimate might be
    # too low
    rng = random.Random("0:integral")
    case = [integral_sweep_case(rng) for _ in range(68)][67]
    rep = check_integral_inequality(case, nu23(), depth=5)
    want = mp_integral(case.phase, case.interval, square=True).real
    assert rep.ok
    assert abs(rep.detail["m2"] - want) <= rep.detail["m2_err"]
    assert rep.detail["m2_hi"] >= want
    assert rep.detail["m2_err"] < 1e-11


def test_integral_inequality_lhs_err_is_mass_width_bound():
    # M times sum of mass / (q (q + q')), exact, from the cylinders'
    # integers: nu cylinders at depths 3 (where the plain float sum
    # comes out low) and 5, and the toy cascade at depth 13
    nu, lm = nu23(), toy_lambda()

    def nu_exact(depth):
        mats = product_convergent_matrices(nu, depth)
        return nu.atom**depth * sum(
            (Fraction(1, q * (q + qp)) for q, qp in
             zip(mats[:, 0, 0].tolist(), mats[:, 0, 1].tolist())),
            Fraction(0))

    lm_exact = sum((mass / (q * (q + qp))
                    for *_, q, qp, mass in cylinder_rows(lm, 13)), Fraction(0))
    for measure, depth, interval, m_big, exact in (
            (nu, 3, (1, 4), 1.0, nu_exact(3)),
            (nu, 5, (1, 4), 1.0, nu_exact(5)),
            (lm, 13, (1, 6), Fraction(7, 3), lm_exact)):
        rep = check_integral_inequality(
            OscillatoryTestCase(phase=PhaseFunction(poly=(1,)),
                                interval=interval, m_bound=float(m_big)),
            measure, depth=depth)
        bound = Fraction(float(m_big)) * exact
        assert Fraction(rep.detail["lhs_err"]) >= bound
        assert rep.detail["lhs_err"] <= float(bound) * (1 + 1e-12)


def test_integral_inequality_certification():
    nu = nu23()
    too_big = PhaseFunction(trig=(("sin", Fraction(9, 8), 1, 0),))
    with pytest.raises(CertificationFailed):
        check_integral_inequality(
            OscillatoryTestCase(phase=too_big, interval=(1, 4), m_bound=10.0),
            nu)
    fast = PhaseFunction(trig=(("sin", 1, 3, 0),))
    with pytest.raises(CertificationFailed):
        check_integral_inequality(
            OscillatoryTestCase(phase=fast, interval=(1, 4), m_bound=1.0),
            nu)
    with pytest.raises(PreconditionViolated):
        check_integral_inequality(
            OscillatoryTestCase(phase=fast, interval=(1, 4)), nu)


def test_cascade_integral_checks_are_pinned():
    # lhs, rhs, slack and omega on the toy cascade's cylinders as the
    # earlier recursive walk listed them: two sweep cases and three single
    # waves up to M = 2 pi 1000
    rng = random.Random(7)
    cases = [integral_sweep_case(rng) for _ in range(2)] + [
        OscillatoryTestCase(phase=PhaseFunction(trig=(("sin", 1, f, 0),)),
                            interval=(1, 4), m_bound=TWO_PI * f * (1 + 1e-9))
        for f in (40, 200, 1000)]
    lines = []
    for depth in (9, 13):
        for case in cases:
            rep = check_integral_inequality(case, toy_lambda(), depth=depth)
            lines.append(f"{rep.ok},{rep.lhs.hex()},{rep.rhs.hex()},"
                         f"{rep.slack.hex()},{rep.detail['omega'].hex()}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
        "db5fa2cb1d19f4b8aad43345819ba40b06305c40d5d9eca357aec682076d4e7d")


# ------------------------------------------------ certified quadrature


def mp_leggauss(n):
    """50-digit Gauss-Legendre nodes and weights, Newton from numpy's."""
    with mpmath.workdps(50):
        out = []
        for x0 in np.polynomial.legendre.leggauss(n)[0]:
            x = mpmath.findroot(lambda t: mpmath.legendre(n, t),
                                mpmath.mpf(x0))
            dp = n * mpmath.legendre(n - 1, x) / (1 - x**2)
            out.append((x, 2 / ((1 - x**2) * dp**2)))
        return out


def test_leggauss_within_stated_ulps():
    xs, ws = _leggauss()
    assert _leggauss()[0] is xs
    with mpmath.workdps(50):
        for x, w, (x_exact, w_exact) in zip(xs, ws, mp_leggauss(GL_ORDER)):
            assert abs(mpmath.mpf(x) - x_exact) \
                <= NODE_ULPS * np.spacing(abs(x))
            assert abs(mpmath.mpf(w) - w_exact) <= WEIGHT_ULPS * np.spacing(w)


SWEEP_LEMMAS = (("nonstationary", nonstationary_sweep_case, False),
                ("stationary", stationary_sweep_case, False),
                ("integral", integral_sweep_case, True))


def sweep_integrals(count=20):
    """(lemma, phase, interval, square) of the first seed-0 lemma-sweep
    cases of each lemma."""
    for lemma, make, square in SWEEP_LEMMAS:
        rng = random.Random(f"0:{lemma}")
        for _ in range(count):
            case = make(rng)
            yield lemma, case.phase, case.interval, square


def test_quadrature_within_slack_of_mpmath():
    # at the chosen panel count, and at a half and a quarter of it, where
    # the remainder term dominates and the rule is visibly off
    coarse_misses = 0
    for lemma, phase, interval, square in sweep_integrals():
        want = mp_integral(phase, interval, square)
        got, err, nodes = _certified_integral(phase, interval, square)
        assert abs(got - want) <= err, lemma
        panels = nodes // GL_ORDER
        lo, hi = float(interval[0]), float(interval[1])
        for fewer in (panels // 2, panels // 4):
            if fewer:
                got, err, _ = _gauss_legendre(phase, _Majorant.of(phase),
                                              square, lo, hi, hi - lo, fewer)
                assert abs(got - want) <= err, (lemma, fewer)
                coarse_misses += abs(got - want) > 1e-9
    assert coarse_misses >= 20


def test_unit_integral_reports_quadrature_slack():
    rng = random.Random("0:nonstationary")
    case = nonstationary_sweep_case(rng)
    rep = check_nonstationary(case)
    want = abs(mp_integral(case.phase, case.interval, square=False))
    assert abs(rep.lhs - want) <= rep.slack - 1e-12
    assert rep.detail["nodes"] % GL_ORDER == 0


def test_chosen_panel_count_is_the_first_doubling_under_target():
    for lemma, phase, interval, square in sweep_integrals():
        lo, hi = float(interval[0]), float(interval[1])
        maj = _Majorant.of(phase)
        panels = _certified_integral(phase, interval, square)[2] // GL_ORDER
        assert _panel_remainder(maj, square, lo, hi, hi - lo,
                                panels) <= QUAD_TARGET
        if panels > 1:
            assert _panel_remainder(maj, square, lo, hi, hi - lo,
                                    panels // 2) > QUAD_TARGET, lemma


def test_quadrature_node_cap_raises_budget_exceeded():
    steep = PhaseFunction(poly=(0, 10**5))
    with pytest.raises(BudgetExceeded):
        check_nonstationary(OscillatoryTestCase(phase=steep, a=10**5, b=0))
    # starts under the cap, and doubling crosses it
    start = PhaseFunction(poly=(0, 40000))
    assert 40000 // 32 * GL_ORDER < QUAD_MAX_NODES
    with pytest.raises(BudgetExceeded):
        _certified_integral(start, (0, 1), square=False)
    # just under the cap still integrates
    _certified_integral(PhaseFunction(poly=(0, 10000)), (0, 1),
                        square=False)


# --------------------------------------------------------------- sweeps


def test_sweeps_pass_clean():
    rep = run_sweep("nonstationary", count=60, seed=11)
    assert rep.ok and rep.violations == () and rep.worst_margin > 0
    rep = run_sweep("stationary", count=40, seed=12)
    assert rep.ok and rep.worst_margin > 0
    rep = run_sweep("integral", count=25, seed=13, measure=nu23(), depth=5)
    assert rep.ok and rep.worst_margin > 0


def sweep_report_lines(seed):
    """One line per lemma-sweep report: 200 cases of each lemma drawn from
    random.Random(f"{seed}:{lemma}"), the integral cases on the a08
    measure at depth 5, every float as float.hex."""
    checks = (("nonstationary", nonstationary_sweep_case, check_nonstationary,
               {}),
              ("stationary", stationary_sweep_case, check_stationary, {}),
              ("integral", integral_sweep_case, check_integral_inequality,
               {"measure": nu23(), "depth": 5}))

    def text(v):
        return v.hex() if isinstance(v, float) else str(v)

    for lemma, make, check, extra in checks:
        rng = random.Random(f"{seed}:{lemma}")
        for _ in range(200):
            rep = check(make(rng), **extra)
            yield ",".join(
                [text(v) for v in (rep.ok, rep.lhs, rep.rhs, rep.slack)]
                + [f"{k}={text(v)}" for k, v in rep.detail.items()])


def test_lemma_sweep_reports_are_pinned():
    # the 600 reports of a seed-0 lemma-sweep round
    digest = hashlib.sha256(
        "\n".join(sweep_report_lines(0)).encode()).hexdigest()
    assert digest == (
        "1108c7a8eddf9ede25a85a372f062eb5390ef788c7a28c66adaf7d5b5096a4a3")


def test_lemma_sweep_seed_1_reports_are_pinned():
    # the 600 reports of a seed-1 lemma-sweep round
    digest = hashlib.sha256(
        "\n".join(sweep_report_lines(1)).encode()).hexdigest()
    assert digest == (
        "08504fbdb1dc5a0db445c0abfda8e358d1dd2a3ebe896e6e1989972a52d63fe7")


def test_sweep_determinism_and_errors():
    a = run_sweep("nonstationary", count=10, seed=99)
    b = run_sweep("nonstationary", count=10, seed=99)
    assert a == b
    with pytest.raises(PreconditionViolated):
        run_sweep("integral", count=5, seed=1)
    with pytest.raises(PreconditionViolated):
        run_sweep("no-such-lemma", count=5, seed=1)
    # a sweep with no cases would pass with worst margin inf
    for lemma, extra in (("nonstationary", {}), ("stationary", {}),
                         ("integral", {"measure": nu23(), "depth": 5})):
        for count in (0, -1):
            with pytest.raises(PreconditionViolated,
                               match="^a sweep needs at least one case$"):
                run_sweep(lemma, count=count, **extra)
