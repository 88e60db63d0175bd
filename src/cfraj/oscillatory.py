"""Oscillatory-integral inequality checkers and the L2 pair expansion.

Phases are exact objects: polynomials with rational coefficients plus
trigonometric terms amp * (2 pi)^k * sin/cos(2 pi freq t) whose
derivatives stay in the same family. Stated bounds (|f| <= 1, f' >= a,
|f''| <= b, ...) are certified before use: a coefficient-norm bound, or
a 4096-point grid with a Lipschitz slack term derived from coefficient
norms. Integrals use adaptive quadrature with the reported error
estimate carried as slack; a check only fails when the violation
exceeds that slack.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .blocks import NuMeasure
from .cascade import ALPHA_DEFAULT, LambdaMeasure, scale_index
from .errors import BudgetExceeded, CertificationFailed, PreconditionViolated
from .fourier import _atoms, _lambda_leaves

GRID_POINTS = 4096
TWO_PI = 2.0 * math.pi

Rat = Union[int, Fraction]


# --------------------------------------------------------------- phases


@dataclass(frozen=True)
class PhaseFunction:
    """poly(t) + sum of amp * (2 pi)^k * sin/cos(2 pi freq t).

    poly holds rational coefficients, low degree first. Each trig term
    is (kind, amp, freq, k); closing the family under differentiation
    is what keeps every derived bound exact. Evaluation reads floats
    converted once at construction: the Horner coefficients, high
    degree first, and per trig term (is_sin, float(amp) * (2 pi)^k,
    2 pi * float(freq)).
    """

    poly: tuple[Fraction, ...] = ()
    trig: tuple[tuple[str, Fraction, Fraction, int], ...] = ()
    _horner: tuple[float, ...] = field(init=False, compare=False, repr=False)
    _waves: tuple[tuple[bool, float, float], ...] = field(
        init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "poly", tuple(Fraction(c) for c in self.poly))
        norm = []
        for kind, amp, freq, k in self.trig:
            if kind not in ("sin", "cos"):
                raise PreconditionViolated(f"unknown trig kind {kind!r}")
            norm.append((kind, Fraction(amp), Fraction(freq), int(k)))
        object.__setattr__(self, "trig", tuple(norm))
        object.__setattr__(
            self, "_horner", tuple(float(c) for c in reversed(self.poly)))
        object.__setattr__(self, "_waves", tuple(
            (kind == "sin", float(amp) * TWO_PI**k, TWO_PI * float(freq))
            for kind, amp, freq, k in self.trig))

    def __call__(self, t):
        # Scalars (scipy quad passes plain floats) take float arithmetic
        # and math.sin / math.cos. These match np.sin / np.cos bit for
        # bit on the build measured (numpy 2.4.6, x86-64 AVX-512), not
        # on every build: both are valid roundings.
        if type(t) is not float and np.isscalar(t):
            t = float(t)
        if type(t) is float:
            acc = 0.0
            for c in self._horner:
                acc = acc * t + c
            for is_sin, w, omega in self._waves:
                acc = acc + w * (math.sin(omega * t) if is_sin
                                 else math.cos(omega * t))
            return acc
        x = np.asarray(t, dtype=float)
        acc = np.zeros_like(x)
        for c in self._horner:
            acc = acc * x + c
        for is_sin, w, omega in self._waves:
            arg = omega * x
            acc = acc + w * (np.sin(arg) if is_sin else np.cos(arg))
        return acc

    def derivative(self) -> "PhaseFunction":
        dpoly = tuple(j * c for j, c in enumerate(self.poly))[1:]
        dtrig = []
        for kind, amp, freq, k in self.trig:
            if kind == "sin":
                dtrig.append(("cos", amp * freq, freq, k + 1))
            else:
                dtrig.append(("sin", -amp * freq, freq, k + 1))
        return PhaseFunction(poly=dpoly, trig=tuple(dtrig))

    def coeff_bound(self, interval) -> float:
        """Sound sup-norm bound from coefficient norms alone."""
        lo, hi = (Fraction(interval[0]), Fraction(interval[1]))
        big = max(abs(lo), abs(hi))
        total = sum((abs(c) * big**j for j, c in enumerate(self.poly)),
                    Fraction(0))
        # k = 0 terms stay rational; only a genuine pi power forces floats
        total += sum((abs(amp) for _, amp, _, k in self.trig if k == 0),
                     Fraction(0))
        trig_part = math.fsum(
            abs(float(amp)) * TWO_PI**k
            for _, amp, _, k in self.trig if k > 0
        )
        return float(total) + trig_part * (1.0 + 1e-12)


def _grid(interval, points=GRID_POINTS):
    lo, hi = float(interval[0]), float(interval[1])
    return np.linspace(lo, hi, points), (hi - lo) / (points - 1)


def certified_sup_abs(fn: PhaseFunction, interval,
                      points=GRID_POINTS) -> float:
    """Rigorous upper bound for sup |fn| over the interval."""
    xs, h = _grid(interval, points)
    lip = fn.derivative().coeff_bound(interval)
    return float(np.abs(fn(xs)).max()) + lip * h / 2


def certified_range(fn: PhaseFunction, interval,
                    points=GRID_POINTS) -> tuple[float, float]:
    """Rigorous enclosure [lower, upper] of fn's signed range."""
    xs, h = _grid(interval, points)
    vals = fn(xs)
    lip = fn.derivative().coeff_bound(interval)
    return float(vals.min()) - lip * h / 2, float(vals.max()) + lip * h / 2


def certified_inf_abs(fn: PhaseFunction, interval,
                      points=GRID_POINTS) -> float:
    xs, h = _grid(interval, points)
    lip = fn.derivative().coeff_bound(interval)
    return float(np.abs(fn(xs)).min()) - lip * h / 2


def _certify_at_most(fn: PhaseFunction, interval, bound: float, what: str):
    # the cheap coefficient bound often closes the case exactly (e.g.
    # unit-mass trig sums); only then pay for the grid
    if fn.coeff_bound(interval) <= bound:
        return
    got = certified_sup_abs(fn, interval)
    if got > bound:
        raise CertificationFailed(
            f"cannot certify {what} <= {bound}: best bound {got}"
        )


# ---------------------------------------------------------------- cases


@dataclass(frozen=True)
class OscillatoryTestCase:
    """A concrete phase/test function plus the constants a check needs."""

    phase: PhaseFunction
    interval: tuple[Rat, Rat] = (0, 1)
    a: Optional[Fraction] = None
    b: Optional[Fraction] = None
    m_bound: Optional[float] = None
    a1: Optional[Fraction] = None
    a2: Optional[Fraction] = None
    gfun: Optional[PhaseFunction] = None


def stationary_case(g: PhaseFunction, a1: Rat, a2: Rat, a: Rat,
                    b: Rat) -> OscillatoryTestCase:
    """Build the phase h with h'(x) = (a1 x + a2) g(x), g polynomial."""
    if g.trig:
        raise PreconditionViolated("stationary cases need a polynomial g")
    a1, a2 = Fraction(a1), Fraction(a2)
    hp = [Fraction(0)] * (len(g.poly) + 2)
    for j, c in enumerate(g.poly):
        hp[j + 1] += a1 * c
        hp[j] += a2 * c
    h = tuple(c / (j + 1) for j, c in enumerate(hp))
    return OscillatoryTestCase(
        phase=PhaseFunction(poly=(Fraction(0),) + h),
        a1=a1, a2=a2, a=Fraction(a), b=Fraction(b), gfun=g,
    )


@dataclass(frozen=True)
class OscillatoryReport:
    ok: bool
    lhs: float
    rhs: float
    slack: float
    detail: dict = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.ok


def _unit_integral(phase: PhaseFunction, interval) -> tuple[float, float]:
    """(|integral of e(phase)|, quadrature slack) via two real quads."""
    lo, hi = float(interval[0]), float(interval[1])
    re, re_err = quad(lambda t: math.cos(TWO_PI * phase(t)), lo, hi,
                      limit=400)
    im, im_err = quad(lambda t: math.sin(TWO_PI * phase(t)), lo, hi,
                      limit=400)
    return math.hypot(re, im), re_err + im_err + 1e-12


def check_nonstationary(case: OscillatoryTestCase) -> OscillatoryReport:
    """|integral_0^1 e(f)| < 1/a + b/a^2 given f' bounded away from 0.

    The sign condition (f' >= a everywhere, or f' <= -a everywhere) and
    |f''| <= b are certified on the interval before the quadrature runs.
    """
    if case.a is None or case.b is None:
        raise PreconditionViolated("nonstationary check needs a and b")
    a, b = Fraction(case.a), Fraction(case.b)
    if a <= 0 or b < 0:
        raise PreconditionViolated("need a > 0 and b >= 0")
    d1 = case.phase.derivative()
    low, high = certified_range(d1, case.interval)
    if not (low >= float(a) or high <= -float(a)):
        raise CertificationFailed(
            f"cannot certify |f'| >= {float(a)}: range [{low}, {high}]"
        )
    _certify_at_most(d1.derivative(), case.interval, float(b), "|f''|")
    lhs, slack = _unit_integral(case.phase, case.interval)
    rhs = float(1 / a + b / a**2)
    return OscillatoryReport(ok=lhs < rhs + slack, lhs=lhs, rhs=rhs,
                             slack=slack)


def check_stationary(case: OscillatoryTestCase) -> OscillatoryReport:
    """|integral_0^1 e(h)| < 6 b a^(-3/2) |a1|^(-1/2).

    h'(x) = (a1 x + a2) g(x) with |g| >= a, |g'| <= b, b > 1; the
    factorization is itself verified on the grid.
    """
    for name in ("a", "b", "a1", "a2"):
        if getattr(case, name) is None:
            raise PreconditionViolated(f"stationary check needs {name}")
    if case.gfun is None:
        raise PreconditionViolated("stationary check needs the factor g")
    a, b = Fraction(case.a), Fraction(case.b)
    a1, a2 = Fraction(case.a1), Fraction(case.a2)
    if a1 == 0:
        raise CertificationFailed("degenerate a1 = 0: no stationary scale")
    if a <= 0:
        raise PreconditionViolated("need a > 0")
    if b <= 1:
        raise CertificationFailed("the lemma constant needs b > 1")
    if certified_inf_abs(case.gfun, case.interval) < float(a):
        raise CertificationFailed(f"cannot certify |g| >= {float(a)}")
    _certify_at_most(case.gfun.derivative(), case.interval, float(b), "|g'|")
    # consistency of the supplied factorization
    xs, _ = _grid(case.interval, 257)
    hp = case.phase.derivative()(xs)
    want = (float(a1) * xs + float(a2)) * case.gfun(xs)
    mism = float(np.abs(hp - want).max())
    if mism > 1e-9 * (1.0 + float(np.abs(want).max())):
        raise CertificationFailed(
            f"phase derivative does not match (a1 x + a2) g: gap {mism}"
        )
    lhs, slack = _unit_integral(case.phase, case.interval)
    rhs = 6.0 * float(b) * float(a) ** -1.5 * abs(float(a1)) ** -0.5
    return OscillatoryReport(ok=lhs < rhs + slack, lhs=lhs, rhs=rhs,
                             slack=slack)


def _window_max_mass(mids: np.ndarray, masses: np.ndarray, u: float) -> float:
    """Largest total mass captured by a closed window of width u."""
    order = np.argsort(mids)
    m_sorted = mids[order]
    csum = np.concatenate(([0.0], np.cumsum(masses[order])))
    right = np.searchsorted(m_sorted, m_sorted + float(u), side="right")
    idx = np.arange(len(m_sorted))
    return float((csum[right] - csum[idx]).max())


def check_integral_inequality(case: OscillatoryTestCase, measure,
                              depth: int = 4,
                              budget: int = 10**6) -> OscillatoryReport:
    """Mass-vs-L2 inequality for |f| <= 1 with |f'| <= M.

    LHS = integral of |f| against the cylinder measure (midpoint sum
    with a mean-value error term). RHS combines M, the L2 mass
    m2 = integral of f^2 over the case interval, and the modulus
    Omega(u) = worst u-interval mass of the measure:

        LHS <= 2 M^(1/10) m2^(3/10)
               + Omega(M^(-9/10) m2^(3/10)) (1 + M^(7/10) m2^(1/10)).

    m2's slack is quad's error estimate, which is not certified;
    detail["m2_quad_warned"] is True when scipy warned that the
    estimate may be unreliable.
    """
    if case.m_bound is None:
        raise PreconditionViolated("inequality check needs m_bound")
    m_big = float(case.m_bound)
    lo, hi = Fraction(case.interval[0]), Fraction(case.interval[1])
    hull = (min(lo, 0), max(hi, 1))
    _certify_at_most(case.phase, hull, 1.0, "|f|")
    _certify_at_most(case.phase.derivative(), hull, m_big, "|f'|")

    atoms = _atoms(measure, depth, budget=budget)
    mids, widths = atoms.mids, atoms.widths
    masses = np.broadcast_to(atoms.weight, mids.shape)
    fvals = np.abs(case.phase(mids))
    lhs = float((masses * fvals).sum())
    lhs_err = m_big * float((masses * widths).sum())

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        m2, m2_err = quad(lambda t: case.phase(t)**2, float(lo), float(hi),
                          limit=400)
    warned = any(issubclass(w.category, IntegrationWarning) for w in caught)
    m2_hi = m2 + m2_err + 1e-15

    u = m_big**-0.9 * m2_hi**0.3
    omega = _window_max_mass(mids, masses, u)
    rhs = (2.0 * m_big**0.1 * m2_hi**0.3
           + omega * (1.0 + m_big**0.7 * m2_hi**0.1))
    slack = lhs_err + 1e-12
    return OscillatoryReport(
        ok=lhs <= rhs + slack, lhs=lhs, rhs=rhs, slack=slack,
        detail={"m2": m2, "m2_hi": m2_hi, "omega": omega, "u": u,
                "lhs_err": lhs_err, "m2_quad_warned": warned},
    )


# --------------------------------------------------------------- sweeps


@dataclass(frozen=True)
class SweepReport:
    lemma: str
    cases: int
    violations: tuple[int, ...]
    worst_margin: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def _rand_fraction(rng, lo, hi, den=16) -> Fraction:
    return Fraction(rng.randint(int(lo * den), int(hi * den)), den)


def nonstationary_sweep_case(rng: random.Random) -> OscillatoryTestCase:
    # |c2| + |c3| < c1 keeps f' sign definite on [0, 1]
    c1 = _rand_fraction(rng, 3, 60)
    c2 = _rand_fraction(rng, -1, 1)
    c3 = _rand_fraction(rng, -1, 1)
    sign = rng.choice((1, -1))
    f = PhaseFunction(poly=(0, sign * c1, sign * c2 / 2, sign * c3 / 3))
    low, high = certified_range(f.derivative(), (0, 1))
    a = Fraction(math.floor((min(abs(low), abs(high))) * 1024), 1024)
    bb = certified_sup_abs(f.derivative().derivative(), (0, 1))
    b = Fraction(math.ceil(bb * 1024), 1024)
    return OscillatoryTestCase(phase=f, a=a, b=b)


def stationary_sweep_case(rng: random.Random) -> OscillatoryTestCase:
    c0 = _rand_fraction(rng, 1, 3)
    c1 = _rand_fraction(rng, -1, 1) * c0 / 8
    c2 = _rand_fraction(rng, -1, 1) * c0 / 8
    g = PhaseFunction(poly=(c0, c1, c2))
    a1 = rng.choice((1, -1)) * _rand_fraction(rng, 4, 60)
    a2 = _rand_fraction(rng, -1, 1) * abs(a1) / 4
    low = certified_inf_abs(g, (0, 1))
    a = Fraction(math.floor(low * 1024), 1024)
    bb = certified_sup_abs(g.derivative(), (0, 1))
    b = max(Fraction(math.ceil(bb * 1024), 1024), Fraction(21, 20))
    return stationary_case(g, a1, a2, a, b)


def integral_sweep_case(rng: random.Random) -> OscillatoryTestCase:
    parts = [Fraction(rng.randint(1, 16)) for _ in range(3)]
    total = sum(parts)
    terms = []
    top = Fraction(0)
    for w in parts:
        amp = rng.choice((1, -1)) * w / total
        freq = Fraction(rng.randint(1, 24))
        kind = rng.choice(("sin", "cos"))
        terms.append((kind, amp, freq, 0))
        top += abs(amp) * freq
    f = PhaseFunction(trig=tuple(terms))
    m_bound = float(top) * TWO_PI * (1.0 + 1e-9)
    return OscillatoryTestCase(phase=f, interval=(1, 4), m_bound=m_bound)


def run_sweep(lemma: str, count: int = 200, seed: int = 20260823,
              measure: Optional[NuMeasure] = None,
              depth: int = 5) -> SweepReport:
    """Seeded randomized sweep; returns the indices of any violations."""
    rng = random.Random(seed)
    violations = []
    worst = math.inf
    for k in range(count):
        if lemma == "nonstationary":
            rep = check_nonstationary(nonstationary_sweep_case(rng))
        elif lemma == "stationary":
            rep = check_stationary(stationary_sweep_case(rng))
        elif lemma == "integral":
            if measure is None:
                raise PreconditionViolated("integral sweep needs a measure")
            rep = check_integral_inequality(
                integral_sweep_case(rng), measure, depth=depth)
        else:
            raise PreconditionViolated(f"unknown lemma {lemma!r}")
        margin = rep.rhs + rep.slack - rep.lhs
        worst = min(worst, margin)
        if not rep.ok:
            violations.append(k)
    return SweepReport(lemma=lemma, cases=count,
                       violations=tuple(violations), worst_margin=worst)


# -------------------------------------------------------- L2 expansion


@dataclass(frozen=True)
class M2Report:
    """L2 pair expansion split by denominator coincidence class."""

    m2: float
    shared_q: float
    distinct_q: float
    diagonal: float
    quad_error: float
    depth: int
    prefix_count: int
    sum_sq_mass: float


def _gl_nodes(interval, panels: int, order: int = 32):
    lo, hi = float(interval[0]), float(interval[1])
    xs, ws = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    nodes, weights = [], []
    for k in range(panels):
        a, b = edges[k], edges[k + 1]
        nodes.append((xs + 1) * (b - a) / 2 + a)
        weights.append(ws * (b - a) / 2)
    return np.concatenate(nodes), np.concatenate(weights)


def _pair_sums(leaves, xi: float, ts, ws):
    pn = np.array([lf.pn for lf in leaves], dtype=float)
    pp = np.array([lf.pp for lf in leaves], dtype=float)
    qn = np.array([lf.q for lf in leaves], dtype=float)
    qp = np.array([lf.qp for lf in leaves], dtype=float)
    m = np.array([float(lf.mass) for lf in leaves])
    vals = (pn[:, None] * ts + pp[:, None]) / (qn[:, None] * ts + qp[:, None])
    ph = np.exp(2j * math.pi * xi * vals)
    wm = m[:, None] * ph

    def l2(rows) -> float:
        f = wm[rows].sum(axis=0)
        return float((ws * (f.real**2 + f.imag**2)).sum())

    total = l2(slice(None))
    by_q, by_qq = {}, {}
    for idx, lf in enumerate(leaves):
        by_q.setdefault(lf.q, []).append(idx)
        by_qq.setdefault((lf.q, lf.qp), []).append(idx)
    same_q = sum(l2(rows) for rows in by_q.values())
    diag = sum(l2(rows) for rows in by_qq.values())
    return total, same_q - diag, total - same_q, diag


def m2_empirical(lm: LambdaMeasure, xi, alpha=ALPHA_DEFAULT, *,
                 budget: int = 4096, panels: Optional[int] = None) -> M2Report:
    """Pair expansion of the L2 mass at the scale of xi.

    The prefix family is the cylinder set at depth i(|xi|^alpha); the
    double sum over prefix pairs is evaluated through group L2 norms on
    Gauss-Legendre panels and split by denominator coincidence:
    shared_q (q equal, q' differs), distinct_q (q differs), diagonal
    (q and q' both equal, true diagonal included). Quadrature error is
    estimated by panel doubling.
    """
    i_val, _ = scale_index(lm, xi, alpha)
    depth = max(i_val, 1)
    leaves = _lambda_leaves(lm, depth, budget)
    interval = (1, lm.nu.n_bound + 1)
    xf = abs(float(xi))
    if panels is None:
        panels = max(4, min(256, int(xf) + 4))
    coarse = _pair_sums(leaves, xf, *_gl_nodes(interval, panels))
    fine = _pair_sums(leaves, xf, *_gl_nodes(interval, 2 * panels))
    err = max(abs(c - f) for c, f in zip(coarse, fine))
    total, shared, distinct, diag = fine
    ssq = math.fsum(float(lf.mass)**2 for lf in leaves)
    return M2Report(m2=total, shared_q=shared, distinct_q=distinct,
                    diagonal=diag, quad_error=err, depth=depth,
                    prefix_count=len(leaves), sum_sq_mass=ssq)
