"""Oscillatory-integral inequality checkers and the L2 pair expansion.

Phases are exact objects: polynomials with rational coefficients plus
trigonometric terms amp * (2 pi)^k * sin/cos(2 pi freq t) whose
derivatives stay in the same family. Stated bounds (|f| <= 1, f' >= a,
|f''| <= b, ...) are certified before use: a coefficient-norm bound, or
a 4096-point grid with a Lipschitz slack term derived from coefficient
norms. Integrals use composite Gauss-Legendre quadrature whose slack
is a proved bound: a Bernstein-ellipse remainder bound from the same
coefficients plus a floating-point evaluation term (_certified_integral
derives both); a check only fails when the violation exceeds that
slack.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .blocks import NuMeasure, sliding_max_mass
from .cascade import (
    ALPHA_DEFAULT,
    CYLINDER_BUDGET,
    LambdaMeasure,
    scale_index,
)
from .errors import BudgetExceeded, CertificationFailed, PreconditionViolated
from .fourier import (
    EXP_ULPS,
    PI_UP,
    SQRT2_UP,
    TWO_PI,
    U,
    _TWO_PI_UP,
    _at_least,
    _atoms,
    _gamma,
    _inflation,
    _lambda_leaves,
    _mass_width,
    _up,
)

GRID_POINTS = 4096

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
    2 pi * float(freq)). derivative() is memoised, coeff_bound per exact
    interval, outside the fields: ==, hash, repr and astuple miss both.
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
        # one array path; a scalar argument gives a Python float
        x = np.asarray(t, dtype=float)
        acc = np.zeros_like(x)
        for c in self._horner:
            acc = acc * x + c
        for is_sin, w, omega in self._waves:
            arg = omega * x
            acc = acc + w * (np.sin(arg) if is_sin else np.cos(arg))
        return float(acc) if np.isscalar(t) else acc

    def derivative(self) -> "PhaseFunction":
        return self._derivative

    @functools.cached_property
    def _derivative(self) -> "PhaseFunction":
        dpoly = tuple(j * c for j, c in enumerate(self.poly))[1:]
        dtrig = []
        for kind, amp, freq, k in self.trig:
            if kind == "sin":
                dtrig.append(("cos", amp * freq, freq, k + 1))
            else:
                dtrig.append(("sin", -amp * freq, freq, k + 1))
        return PhaseFunction(poly=dpoly, trig=tuple(dtrig))

    def coeff_bound(self, interval) -> float:
        """Sound sup-norm bound from coefficient norms alone.

        The rational part is rounded up to the first float at or above
        it, and its sum with the trig part is rounded up.
        """
        lo, hi = key = (Fraction(interval[0]), Fraction(interval[1]))
        bounds = self.__dict__.setdefault("_bounds", {})
        if key in bounds:
            return bounds[key]
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
        bound = _at_least(float(total), total)
        if trig_part:
            bound = math.nextafter(bound + trig_part * (1.0 + 1e-12), math.inf)
        return bounds.setdefault(key, bound)


def _grid(interval, points=GRID_POINTS):
    """(xs, h): points floats h apart from lo to hi. xs is shared and
    read-only: 8 grids of at most GRID_POINTS points (256 KiB) are kept,
    as no caller asks for more."""
    lo, hi = float(interval[0]), float(interval[1])
    return _linspace(lo.hex(), hi.hex(), points), (hi - lo) / (points - 1)


@functools.lru_cache(maxsize=8)
def _linspace(lo: str, hi: str, points: int) -> np.ndarray:
    xs = np.linspace(float.fromhex(lo), float.fromhex(hi), points)
    xs.flags.writeable = False
    return xs


def certified_sup_abs(fn: PhaseFunction, interval) -> float:
    """Rigorous upper bound for sup |fn| over the interval."""
    xs, h = _grid(interval)
    lip = fn.derivative().coeff_bound(interval)
    return float(np.abs(fn(xs)).max()) + lip * h / 2


def certified_range(fn: PhaseFunction, interval) -> tuple[float, float]:
    """Rigorous enclosure [lower, upper] of fn's signed range."""
    xs, h = _grid(interval)
    vals = fn(xs)
    lip = fn.derivative().coeff_bound(interval)
    return float(vals.min()) - lip * h / 2, float(vals.max()) + lip * h / 2


def certified_inf_abs(fn: PhaseFunction, interval) -> float:
    xs, h = _grid(interval)
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


# ----------------------------------------------------------- quadrature

# Gauss-Legendre points per panel
GL_ORDER = 32
# panels double until the remainder bound is at or below this
QUAD_TARGET = 1e-12
# an integral that would need more nodes raises BudgetExceeded
QUAD_MAX_NODES = 1 << 16
# Stated assumption behind every evaluation term, tested against
# 50-digit values: leggauss(GL_ORDER)'s nodes are within NODE_ULPS ulp
# and its weights within WEIGHT_ULPS ulp of the exact ones. The end
# weights are the worst, at 472 ulp on numpy 2.4.
NODE_ULPS = 2
WEIGHT_ULPS = 1024
# Bernstein ellipse parameters the remainder bound is minimised over
_RHOS = (Fraction(3), Fraction(4), Fraction(6), Fraction(8))


def _ellipse(rho: Fraction) -> tuple[float, float, float]:
    """Floats at or above (rho + 1/rho)/2 - 1, (rho - 1/rho)/2 and
    (64/15) rho^(-2 (GL_ORDER - 1)) / (rho^2 - 1)."""
    exact = ((rho + 1 / rho) / 2 - 1, (rho - 1 / rho) / 2,
             Fraction(64, 15) / rho**(2 * (GL_ORDER - 1)) / (rho**2 - 1))
    return tuple(_at_least(float(v), v) for v in exact)


_ELLIPSES = tuple(_ellipse(rho) for rho in _RHOS)


@functools.cache
def _leggauss() -> tuple[np.ndarray, np.ndarray]:
    xs, ws = np.polynomial.legendre.leggauss(GL_ORDER)
    xs.flags.writeable = ws.flags.writeable = False
    return xs, ws


def _gl_nodes(interval, panels: int):
    """Composite Gauss-Legendre nodes and weights on equal panels, and
    the panels' half-widths, shared and read-only: 15 sets of at most
    QUAD_MAX_NODES nodes (15.3 MiB) are kept."""
    lo, hi = float(interval[0]), float(interval[1])
    build = (_nodes if panels * GL_ORDER <= QUAD_MAX_NODES
             else _nodes.__wrapped__)
    return build(lo.hex(), hi.hex(), panels)


@functools.lru_cache(maxsize=15)
def _nodes(lo: str, hi: str, panels: int):
    xs, ws = _leggauss()
    edges = np.linspace(float.fromhex(lo), float.fromhex(hi), panels + 1)
    half = np.diff(edges) / 2
    ts = ((xs + 1) * half[:, None] + edges[:-1, None]).ravel()
    wts = (ws * half[:, None]).ravel()
    ts.flags.writeable = wts.flags.writeable = half.flags.writeable = False
    return ts, wts, half


@dataclass(frozen=True)
class _Majorant:
    """Floats at or above the moduli of a phase's coefficients.

    poly: |c_j|, low degree first; dpoly: |j c_j|, the derivative's;
    waves: per trig term (|w|, |omega|, |w omega|) with
    w = amp (2 pi)^k and omega = 2 pi freq. kmax is the largest k.
    """

    poly: tuple[float, ...]
    dpoly: tuple[float, ...]
    waves: tuple[tuple[float, float, float], ...]
    kmax: int

    @classmethod
    def of(cls, f: PhaseFunction) -> "_Majorant":
        def up(v: Fraction) -> float:
            return _at_least(float(v), v)

        two_pi = 2 * Fraction(PI_UP)
        waves = []
        for _, amp, freq, k in f.trig:
            w, om = abs(amp) * two_pi**k, two_pi * abs(freq)
            waves.append((up(w), up(om), up(w * om)))
        return cls(poly=tuple(up(abs(c)) for c in f.poly),
                   dpoly=tuple(up(j * abs(c))
                               for j, c in enumerate(f.poly))[1:],
                   waves=tuple(waves),
                   kmax=max((k for *_, k in f.trig), default=0))

    def sup(self, x: float) -> float:
        """Bound on |f| over [-x, x]: the coefficient bound."""
        return _up(_horner_up(self.poly, x)
                   + math.fsum(w for w, _, _ in self.waves))

    def dsup(self, x: float) -> float:
        """Bound on |f'| over [-x, x]: the coefficient bound of f'."""
        return _up(_horner_up(self.dpoly, x)
                   + math.fsum(wo for _, _, wo in self.waves))

    def growth(self, x: float, y: float) -> float:
        """Bound on |f(z) - f(Re z)| for |Re z| <= x, |Im z| <= y.

        A coefficient c_j adds |c_j| ((x + y)^j - x^j), summed as
        y S_j with S_j = sum_{i<j} (x + y)^i x^(j-1-i) = x^(j-1) +
        (x + y) S_(j-1), free of cancellation. A trig term adds
        |w| (cosh(omega y) - 1 + sinh(omega y)) = |w| expm1(omega y),
        as |sin(a + ib) - sin a| and |cos(a + ib) - cos a| are at most
        cosh b - 1 + |sinh b|. expm1 counts as 2 EXP_ULPS roundings, so
        no path has more than 3 (d + 1) + 2 EXP_ULPS + 4, d the degree.
        """
        z = x + y
        s, xp, total = 0.0, 1.0, 0.0
        for a in self.poly[1:]:
            s = xp + z * s
            xp *= x
            total += a * s
        trig = []
        for w, om, _ in self.waves:
            arg = math.nextafter(om * y, math.inf)
            if arg > 700.0:
                return math.inf
            trig.append(w * math.expm1(arg))
        d = y * total + math.fsum(trig)
        if not d < math.inf:  # overflow, or 0 * inf
            return math.inf
        return d * _inflation(3 * len(self.poly) + 2 * EXP_ULPS + 4)

    def eval_error(self, x: float) -> float:
        """Bound on |PhaseFunction.__call__(t) - f(t)| for |t| <= x.

        Horner over d + 1 float coefficients is within gamma_(2 d + 1)
        sum |c_j| x^j (Higham, with one rounding in float(c_j)). A trig
        term's float w is within gamma_(k + 3 + 2 EXP_ULPS) |w| (pi,
        k powers, pow, float(amp), the product), its argument within
        gamma_4 |omega| x, and sin / cos within EXP_ULPS ulp <= EXP_ULPS
        u, so the term is within |w| (gamma (1 + a) + a) with
        a = EXP_ULPS u + gamma_4 |omega| x. The n trig additions add
        gamma_n of the computed terms. All together, with
        s = max(2 d + 1, kmax + 3 + 2 EXP_ULPS) + n:
        gamma_s (sum |c_j| x^j + sum |w| (1 + a)) + sum |w| a.
        """
        g = _gamma(max(2 * len(self.poly) - 1,
                       self.kmax + 3 + 2 * EXP_ULPS) + len(self.waves))
        g4 = _gamma(4)
        wave = math.fsum(w * (EXP_ULPS * U + g4 * om * x)
                         for w, om, _ in self.waves)
        return _up(g * (_horner_up(self.poly, x)
                        + math.fsum(w for w, _, _ in self.waves) + wave)
                   + wave)


def _horner_up(coeffs: tuple[float, ...], x: float) -> float:
    """Upper bound on sum coeffs[j] x^j for nonnegative floats: Horner
    rounds at most twice per coefficient on any path."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc * _inflation(2 * len(coeffs) + 1)


def _remainder(maj: _Majorant, square: bool, lo: float, hi: float,
               length: float, half_width: float) -> float:
    """Bound on |exact - Gauss-Legendre| over panels no wider than
    2 half_width (see _certified_integral)."""
    reach = max(abs(lo), abs(hi))
    best = math.inf
    for ax, ay, coef in _ELLIPSES:
        y = _up(half_width * ay)
        x = _up(reach + half_width * ax)
        d = maj.growth(x, y)
        if square:
            m = maj.sup(x) + d
            m = _up(m * m)
        else:
            arg = math.nextafter(_TWO_PI_UP * d, math.inf)
            if arg > 700.0:
                continue
            m = math.exp(arg) * _inflation(2 * EXP_ULPS + 1)
        best = min(best, _up(length / 2 * coef * m))
    return best


def _panel_remainder(maj: _Majorant, square: bool, lo: float, hi: float,
                     length: float, panels: int) -> float:
    """_remainder at the nominal half-width of that many equal panels."""
    return _remainder(maj, square, lo, hi, length,
                      _up(length / (2 * panels)))


def _evaluation(maj: _Majorant, square: bool, lo: float, hi: float,
                length: float, half_width: float, nodes: int) -> float:
    """Bound on |computed sum - exact Gauss-Legendre sum| (see
    _certified_integral)."""
    reach = max(abs(lo), abs(hi))
    node_err = _up(U * ((NODE_ULPS + 7) * half_width + 2 * reach))
    x = _up(reach + node_err)
    sup = maj.sup(x)
    err = _up(maj.eval_error(x) + maj.dsup(x) * node_err)
    g2 = _gamma(2)
    if square:
        f_max = _up((sup + err) * (sup + err))
        f_err = _up(err * (2 * sup + err) + U * f_max)
        parts = 1.0
    else:
        f_err = _up(SQRT2_UP * EXP_ULPS * U
                    + _TWO_PI_UP * (err * (1 + g2) + sup * g2))
        f_max = _up(1.0 + SQRT2_UP * EXP_ULPS * U)
        parts = SQRT2_UP
    theta = _gamma(2 * WEIGHT_ULPS + 2)
    g_sum = _gamma(20 + (nodes - 1).bit_length())
    return _up(length * (f_err + f_max * (
        theta + (1 + theta) * (U + parts * g_sum * (1 + U)))))


def _certified_integral(phase: PhaseFunction, interval, square: bool
                        ) -> tuple[Union[complex, float], float, int]:
    """(Q, err, nodes): Q approximates the integral of e(phase) or, when
    square, of phase^2 over the interval, and |Q - exact| <= err.

    Q is composite Gauss-Legendre with GL_ORDER points on equal panels.
    Their count starts at |interval| / 32 times the coefficient bound
    of phase', and doubles until _panel_remainder is at or below
    QUAD_TARGET; past QUAD_MAX_NODES nodes it raises BudgetExceeded.
    err, from _gauss_legendre, is the remainder plus the evaluation
    term, each computed from nonnegative floats and raised past its
    exact value.

    Remainder (Trefethen, Approximation Theory and Approximation
    Practice, Thm 19.3). If g is analytic inside the Bernstein ellipse
    E_rho of [-1, 1] with |g| <= M there, the n + 1 point Gauss rule
    misses its integral by at most (64/15) M rho^(-2n) / (rho^2 - 1).
    On a panel of half-width h the rule scales by h and the ellipse maps
    to one with real semi-axis h (rho + 1/rho) / 2 and imaginary
    semi-axis Y = h (rho - 1/rho) / 2. Every panel's ellipse therefore
    lies in the strip |Im z| <= Y over the widened interval
    |Re z| <= X = max(|lo|, |hi|) + h ((rho + 1/rho) / 2 - 1), h the
    widest half-width. There |phase(z) - phase(Re z)| <= D, the
    coefficient growth bound of _Majorant.growth, and phase(Re z) is
    real, so |e(phase(z))| = exp(-2 pi Im phase(z)) <= exp(2 pi D) and
    |phase(z)^2| <= (sup |phase| + D)^2, sup |phase| the coefficient
    bound over [-X, X]. As the half-widths sum to |interval| / 2, the
    panels together miss by at most
    (|interval| / 2) (64/15) M rho^(-2 (GL_ORDER - 1)) / (rho^2 - 1),
    minimised over _RHOS. The choice of the panel count uses the
    nominal half-width; the reported remainder uses the widest actual
    float panel.

    Evaluation term. The reference is the exact Gauss rule on the float
    panels. With u = 2^-53, gamma_k = k u / (1 - k u), the stated
    assumptions (leggauss within NODE_ULPS / WEIGHT_ULPS ulp, libm
    within EXP_ULPS ulp) and no underflow:

    1. Nodes. fl(x + 1), the half-width, the product and the shift add
       to the node error at most u ((NODE_ULPS + 7) h + 2 max(|lo|,
       |hi|)) =: dt, worth sup |phase'| dt in the phase.
    2. Phase. PhaseFunction's float evaluation is within
       _Majorant.eval_error, so each computed phase is within
       E = eval_error + sup |phase'| dt of the exact phase at the exact
       node.
    3. Integrand. e(phase): 2 pi and the product round once each, and
       each part of np.exp is within EXP_ULPS ulp: within
       sqrt(2) EXP_ULPS u + 2 pi (E (1 + gamma_2) + sup |phase| gamma_2)
       =: eps, and at most F = 1 + sqrt(2) EXP_ULPS u in modulus.
       phase^2: one rounding: eps = E (2 sup + E) + u (sup + E)^2,
       F = (sup + E)^2.
    4. Weights are within theta = gamma_(2 WEIGHT_ULPS + 2) relative
       (leggauss, the half-width, the product); the exact weights sum to
       |interval|.
    5. Sum. Each product rounds once per part, and numpy's pairwise sum
       passes each part through at most 20 + ceil(log2 n) additions, a
       c = sqrt(2) (complex) or 1 (real) factor on the modulus.

    Together: |interval| (eps + F (theta + (1 + theta) (u + c
    gamma_h (1 + u)))).
    """
    lo, hi = float(interval[0]), float(interval[1])
    length = _at_least(hi - lo, Fraction(hi) - Fraction(lo))
    maj = _Majorant.of(phase)
    panels = max(1, math.ceil(length * maj.dsup(max(abs(lo), abs(hi))) / 32))
    while True:
        if panels * GL_ORDER > QUAD_MAX_NODES:
            raise BudgetExceeded(
                f"certified quadrature needs more than {QUAD_MAX_NODES} "
                f"nodes on [{lo}, {hi}]")
        if _panel_remainder(maj, square, lo, hi, length,
                            panels) <= QUAD_TARGET:
            return _gauss_legendre(phase, maj, square, lo, hi, length,
                                   panels)
        panels *= 2


def _gauss_legendre(phase: PhaseFunction, maj: _Majorant, square: bool,
                    lo: float, hi: float, length: float, panels: int
                    ) -> tuple[Union[complex, float], float, int]:
    """(Q, err, nodes) of _certified_integral on that many panels;
    length is at or above hi - lo."""
    ts, ws, half = _gl_nodes((lo, hi), panels)
    vals = phase(ts)
    if square:
        value = float((ws * (vals * vals)).sum())
    else:
        value = complex((ws * np.exp(1j * (TWO_PI * vals))).sum())
    widest = float(half.max()) * _inflation(2)
    err = _up(_remainder(maj, square, lo, hi, length, widest)
              + _evaluation(maj, square, lo, hi, length, widest, len(ts)))
    return value, err, len(ts)


def _unit_integral(phase: PhaseFunction, interval) -> tuple[float, float,
                                                            int]:
    """(|integral of e(phase)|, proved slack, nodes).

    math.hypot is within 1 ulp (Python 3.10 and later), which the
    2 u |Q| term covers.
    """
    q, err, nodes = _certified_integral(phase, interval, square=False)
    lhs = math.hypot(q.real, q.imag)
    return lhs, _up(err + 2 * U * lhs) + 1e-12, nodes


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
    lhs, slack, nodes = _unit_integral(case.phase, case.interval)
    rhs = float(1 / a + b / a**2)
    return OscillatoryReport(ok=lhs < rhs + slack, lhs=lhs, rhs=rhs,
                             slack=slack, detail={"nodes": nodes})


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
    lhs, slack, nodes = _unit_integral(case.phase, case.interval)
    rhs = 6.0 * float(b) * float(a) ** -1.5 * abs(float(a1)) ** -0.5
    return OscillatoryReport(ok=lhs < rhs + slack, lhs=lhs, rhs=rhs,
                             slack=slack, detail={"nodes": nodes})


def check_integral_inequality(case: OscillatoryTestCase, measure,
                              depth: int = 4, budget: int = CYLINDER_BUDGET
                              ) -> OscillatoryReport:
    """Mass-vs-L2 inequality for |f| <= 1 with |f'| <= M.

    LHS = integral of |f| against the cylinder measure (midpoint sum
    with a mean-value error term). RHS combines M, the L2 mass
    m2 = integral of f^2 over the case interval, and the modulus
    Omega(u) = worst u-interval mass of the measure:

        LHS <= 2 M^(1/10) m2^(3/10)
               + Omega(M^(-9/10) m2^(3/10)) (1 + M^(7/10) m2^(1/10)).

    LHS's slack is M times the sum of mass * width, the Fourier error
    model's bound, rounded up. m2 comes from _certified_integral, and
    m2_hi adds its proved error (detail["m2_err"]).
    """
    if case.m_bound is None:
        raise PreconditionViolated("inequality check needs m_bound")
    m_big = float(case.m_bound)
    lo, hi = Fraction(case.interval[0]), Fraction(case.interval[1])
    hull = (min(lo, 0), max(hi, 1))
    _certify_at_most(case.phase, hull, 1.0, "|f|")
    _certify_at_most(case.phase.derivative(), hull, m_big, "|f'|")

    atoms = _atoms(measure, depth, budget=budget)
    mids = atoms.mids
    masses = np.broadcast_to(atoms.weight, mids.shape)
    fvals = np.abs(case.phase(mids))
    lhs = float((masses * fvals).sum())
    lhs_err = math.nextafter(m_big * _mass_width(atoms), math.inf)

    m2, m2_err, nodes = _certified_integral(case.phase, (lo, hi),
                                            square=True)
    m2_hi = m2 + m2_err + 1e-15

    u = m_big**-0.9 * m2_hi**0.3
    order = np.argsort(mids)
    omega = sliding_max_mass(mids[order], masses[order], (u,))[0]
    rhs = (2.0 * m_big**0.1 * m2_hi**0.3
           + omega * (1.0 + m_big**0.7 * m2_hi**0.1))
    slack = lhs_err + 1e-12
    return OscillatoryReport(
        ok=lhs <= rhs + slack, lhs=lhs, rhs=rhs, slack=slack,
        detail={"m2": m2, "m2_hi": m2_hi, "m2_err": m2_err, "omega": omega,
                "u": u, "lhs_err": lhs_err, "nodes": nodes},
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


def _pair_sums(cols, m: np.ndarray, xi: float, ts, ws):
    pn, pp, qn, qp = (np.array(c, dtype=float)
                      for c in (cols.pn, cols.pp, cols.q, cols.qp))
    vals = (pn[:, None] * ts + pp[:, None]) / (qn[:, None] * ts + qp[:, None])
    ph = np.exp(2j * math.pi * xi * vals)
    wm = m[:, None] * ph

    def l2(rows) -> float:
        f = wm[rows].sum(axis=0)
        return float((ws * (f.real**2 + f.imag**2)).sum())

    total = l2(slice(None))
    by_q, by_qq = {}, {}
    for idx, (q, q_prev) in enumerate(zip(cols.q, cols.qp)):
        by_q.setdefault(q, []).append(idx)
        by_qq.setdefault((q, q_prev), []).append(idx)
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
    cols = _lambda_leaves(lm, depth, budget)
    m = cols.weights(lm.nu.atom)
    interval = (1, lm.nu.n_bound + 1)
    xf = abs(float(xi))
    if panels is None:
        panels = max(4, min(256, int(xf) + 4))
    coarse = _pair_sums(cols, m, xf, *_gl_nodes(interval, panels)[:2])
    fine = _pair_sums(cols, m, xf, *_gl_nodes(interval, 2 * panels)[:2])
    err = max(abs(c - f) for c, f in zip(coarse, fine))
    total, shared, distinct, diag = fine
    ssq = math.fsum(w**2 for w in m.tolist())
    return M2Report(m2=total, shared_q=shared, distinct_q=distinct,
                    diagonal=diag, quad_error=err, depth=depth,
                    prefix_count=len(cols), sum_sq_mass=ssq)
