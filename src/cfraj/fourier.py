"""Fourier transforms of the constructed measures, with rigorous errors.

Both estimators evaluate e(xi x) = exp(2 pi i xi x) at cylinder
midpoints. The error bound carried on every estimate has two terms:

- the midpoint term: replacing the integrand by its midpoint value
  costs at most pi |xi| width per cylinder (mean value theorem), or
  the width ceiling per sample path;
- the evaluation term: the distance between the computed float sum and
  the exact sum at the exact midpoints (float midpoints, the phase
  product, 2 pi phase, complex exp, the weights and the pairwise sum).
  _error derives it, for nu and cascade atoms alike.

Every estimate is one pipeline: an atom set (the cylinders or the sample
paths of a nu or cascade measure), one phase fold, one evaluator and one
error model. Every estimator evaluates through one call, _values(atoms,
xs, keeps): each row's full sum and, under a keep mask, its kept sum,
with their per-term bound, to which _estimate adds the error bound. Only
_values serves xi = 0 and negative frequencies (the conjugate at |xi|,
so conjugate symmetry holds to the last bit); every other row goes to
one call of _leaf_values.

An int or Fraction frequency is folded exactly, by integer reduction of
the exact midpoints: always on cascade atoms, and on nu atoms from
EXACT_FOLD_THRESHOLD up, where float products lose the fractional part.
A scan whose next frequency is 2^m times the last one, both folded in
floats, squares the last row's complex terms in place m times, since
e(2 xi x) = e(xi x)^2, instead of calling exp again; it restarts from
exp when the squared terms' bound would exceed twice a direct
evaluation's. A scan plans its rows first (_plan) and then makes one pass
over the atoms for all of them (_leaf_values), leaf by leaf of numpy's
pairwise summation tree: every row's terms for a leaf are formed in one
leaf-sized buffer and summed, and the leaf sums are added up the same
tree, in its order, so each value has the bits of one numpy sum over a
full-size buffer of terms, which is never allocated. A nu weight
multiplies the combined sum, a cascade atom's weight its term in the
leaf. The leaves are independent, so they run on any core
(pool.ordered_map) and the bits do not depend on how many.
The nu cylinders themselves are streamed the same way, and of their
geometry only the float midpoints are held. Each cylinder is a prefix
times a block, and its midpoint's numerator and denominator are two
bilinear forms, three integer features of the prefix against three
integer coefficients of the block, so a leaf's midpoints and widths come
from two small matrix products (blocks._leaf_geometry). While a bound on
every denominator, formed once per scan from the largest entries, is
below 2^53, each feature, product and partial sum is an exact integer
in floats, in any summation order, and the floats equal those of
blocks._geometry on the convergent entries bit for bit; past it the leaf
evaluates _geometry itself. Every exact row folds a leaf's exact
midpoints, formed once from the leaf's convergent entries
(_Atoms.exact_mids).
Cascade cylinders (cascade._lambda_leaves) and sample sets
(cascade._sample_columns) come from the cascade's one columnar engine. A
sample set is drawn path for path as the per-path walk draws it, and
holds each distinct cylinder once, weighted by its share of the samples.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from . import __version__, config_hash
from .blocks import (
    NuMeasure,
    _block_matrices,
    _entries,
    _entry_rows,
    _geometry,
    _leaf_geometry,
    _prefix_entries,
    _product,
)
from .cascade import (
    ALPHA_DEFAULT,
    CYLINDER_BUDGET,
    LambdaMeasure,
    TypExcSplit,
    _Columns,
    _lambda_leaves,
    _sample_columns,
    split_typ_exc,
)
from .errors import PreconditionViolated
from .pool import ordered_map
from .words import continuant

Measure = Union[NuMeasure, LambdaMeasure]

# above this, float(xi) * float(mid) has absolute error comparable to 1
EXACT_FOLD_THRESHOLD = 2**40

# every |xi| must be below this, so that its error bound is a finite
# float (see _check_frequency)
FREQUENCY_LIMIT = 2**1020

TWO_PI = 2.0 * math.pi

# unit roundoff of float64
U = 2.0**-53
# Stated libm assumption behind every evaluation term: each part of
# np.exp(1j * theta) is within EXP_ULPS ulp of cos theta, sin theta.
# Both are below 1 in magnitude, where an ulp is at most U. glibc
# documents at most 1 ulp for its double sin and cos.
EXP_ULPS = 2
# constants rounded up: math.pi, sqrt(2) and sqrt(5) each round once
PI_UP = math.nextafter(math.pi, math.inf)
SQRT2_UP = math.nextafter(math.sqrt(2.0), math.inf)
SQRT5_UP = math.nextafter(math.sqrt(5.0), math.inf)


@dataclass(frozen=True)
class FourierEstimate:
    xi: Union[int, float, Fraction]
    value: complex
    err_bound: float
    method: str
    depth: int
    samples: Optional[int] = None


def _width_ceiling(measure: Measure, depth: int) -> Fraction:
    """Sound upper bound for the width of any depth-level cylinder.

    Concatenation never shrinks a continuant product, so q is at least
    (min block continuant)^(number of typical blocks); forced blocks
    only count for >= 1.
    """
    if isinstance(measure, LambdaMeasure):
        nu, typical = measure.nu, max(depth - sum(measure.schedule.r), 0)
    else:
        nu, typical = measure, depth
    qmin = min(continuant(b) for b in nu.support)**typical
    return Fraction(1, qmin * qmin)


def _nu_sample_entries(nu: NuMeasure, samples: int, depth: int,
                       seed: int) -> tuple:
    base = _entries(_block_matrices(nu, depth))
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(base[0]), size=(samples, depth))
    cols = tuple(np.full(samples, v, dtype=np.int64) for v in (1, 0, 0, 1))
    for k in range(depth):
        cols = _product(cols, [e[idx[:, k]] for e in base])
    return cols


# ---------------------------------------------------------------- atoms


# rows per block of _midpoints; bounds its Python-int temporaries
_INT_BLOCK = 1 << 12


def _midpoints(cols: tuple) -> tuple[list[int], list[int]]:
    """Exact midpoints num / den in Python ints from entry columns (q, q',
    p, p'), int64 or object arrays, read _INT_BLOCK rows at a time."""
    num, den = [], []
    for lo in range(0, len(cols[0]), _INT_BLOCK):
        q, qp, pn, pp = (c[lo:lo + _INT_BLOCK].tolist() for c in cols)
        num += [2 * a * c + a * d + b * c
                for a, b, c, d in zip(pn, pp, q, qp)]
        den += [2 * c * (c + d) for c, d in zip(q, qp)]
    return num, den


@dataclass
class _Atoms:
    """The points an estimate sums over, from one of four sources.

    weight is one float for nu sources and a float per atom for cascade
    sources: the mass of a cylinder, or on samples, which hold each
    distinct cylinder once, its count of samples over the sample count.
    Midpoints are held as floats; exact_mids(lo, hi) gives rows lo to hi
    exactly, as num / den in Python ints: sliced from cascade sources'
    lists, converted from nu samples' int64 entries, and formed again
    from the two factors of the enumeration on nu cylinders. Cascade
    cylinders carry widths; nu cylinders carry only mass_width, a sound
    upper bound on the sum of mass * width, as their widths are summed
    while they are streamed; sample sources carry the sample count and
    the width ceiling. Cascade sources carry their distinct label chains
    in first-seen order, labels, and each atom's index into it,
    label_ids. Every source carries what its evaluation term needs:
    mid_steps, the roundings in one float midpoint, and weight_err, a
    bound on |weight - exact weight| / exact weight, atom by atom.
    """

    weight: Union[float, np.ndarray]
    mids: np.ndarray
    cascade: bool
    exact_mids: Callable[[int, int], tuple[list[int], list[int]]]
    widths: Optional[np.ndarray] = None
    samples: Optional[int] = None
    width_ceiling: Optional[Fraction] = None
    labels: Optional[list[tuple[int, ...]]] = None
    label_ids: Optional[np.ndarray] = None
    mass_width: Optional[float] = None
    mid_steps: int = 0
    weight_err: float = 0.0

    def typical_mask(self, split: TypExcSplit) -> np.ndarray:
        """keep mask of the cascade atoms whose label chain avoids
        split's exceptional labels, tested once per distinct chain."""
        typical = [not split.is_exceptional(c) for c in self.labels]
        return np.array(typical)[self.label_ids]


def _cascade_atoms(cols: _Columns, weight: np.ndarray, **source) -> _Atoms:
    # each float midpoint, n / d of Python ints, and weight round once
    num, den = _midpoints((cols.q, cols.qp, cols.pn, cols.pp))
    return _Atoms(weight=weight,
                  mids=np.array([n / d for n, d in zip(num, den)]),
                  cascade=True, labels=cols.chains, label_ids=cols.chain_ids,
                  exact_mids=lambda lo, hi: (num[lo:hi], den[lo:hi]),
                  mid_steps=1, weight_err=U, **source)


def _atoms(measure: Measure, depth: int, samples: Optional[int] = None,
           seed: int = 0, budget: int = CYLINDER_BUDGET) -> _Atoms:
    """Every depth-level cylinder (samples None) or seeded sample paths."""
    if samples is not None and samples < 1:
        raise PreconditionViolated("samples must be >= 1")
    if isinstance(measure, LambdaMeasure):
        if samples is None:
            cols = _lambda_leaves(measure, depth, budget)
            return _cascade_atoms(
                cols, cols.weights(measure.nu.atom),
                widths=np.array([1 / (q * (q + qp))
                                 for q, qp in zip(cols.q, cols.qp)]))
        cols = _sample_columns(measure, samples, depth, seed)
        return _cascade_atoms(
            cols, np.bincount(cols.inverse) / samples,
            samples=samples, width_ceiling=_width_ceiling(measure, depth))
    if samples is None:
        return _nu_cylinder_atoms(measure, depth, budget)
    cols = _nu_sample_entries(measure, samples, depth, seed)
    mids, widths = _geometry(*cols)
    weight = 1.0 / samples
    return _Atoms(weight=weight, mids=mids, cascade=False, samples=samples,
                  exact_mids=lambda lo, hi: _midpoints(
                      tuple(c[lo:hi] for c in cols)),
                  width_ceiling=_width_ceiling(measure, depth),
                  **_nu_rounding(widths.min(), weight, Fraction(1, samples)))


def _nu_cylinder_atoms(nu: NuMeasure, depth: int, budget: int) -> _Atoms:
    """Every depth-level cylinder of nu, streamed leaf by leaf.

    Neither convergent matrices (32 B a cylinder) nor widths are kept:
    each leaf's midpoints and widths come from blocks._leaf_geometry,
    two (k, 3) x (3, s) products of prefix features and block
    coefficients, exact integers in floats while blocks._den_bound is
    below 2^53 (checked once), and blocks._geometry of the convergent
    entries past it; either way they are _geometry's bit for bit. The
    leaves are those of numpy's float64 pairwise tree over the widths,
    each formed on any core (pool.ordered_map), so combining their sums
    in the tree's order gives widths.sum() bit for bit. Only the two
    factors (blocks._prefix_entries) are kept, for exact_mids, which
    forms a leaf's convergent entries (blocks._entry_rows).
    """
    n = len(nu.support)**depth
    prefix, base = _prefix_entries(nu, depth, budget)
    rows = _leaf_geometry(prefix, base)
    mids = np.empty(n, dtype=np.float64)

    def leaf(bound: tuple[int, int]) -> tuple:
        lo, hi = bound
        widths = rows(lo, hi, mids[lo:hi])
        return widths.sum(), widths.min()

    width_sums, min_widths = zip(*ordered_map(
        leaf, _pairwise_leaves(n, 1, _LEAF)))
    weight = float(nu.atom)**depth
    # roundings between the float terms and the true bound
    # pi |xi| sum s^-depth / (q (q + q')), each worth at most a
    # factor 1 / (1 - u): n - 1 in the sum, 5 within any one width,
    # depth + 2 in the weight, 1 each in pi and float(xi), 4 products
    steps = (n - 1) + 5 + (depth + 2) + 2 + 4
    width_sum = _pairwise_combine(n, 1, _LEAF, width_sums)
    return _Atoms(weight=weight, mids=mids, cascade=False,
                  exact_mids=lambda lo, hi: _midpoints(
                      _entry_rows(prefix, base, lo, hi)),
                  mass_width=weight * float(width_sum) * _inflation(steps),
                  **_nu_rounding(min(min_widths), weight, nu.atom**depth))


# roundings in a float midpoint when blocks._geometry's integers are not
# all exact in floats: at most 5 on any path into the numerator (2
# conversions, 1 product, 2 sums), 4 into the denominator and 1 division
_MID_STEPS_INEXACT = 10


def _nu_rounding(min_width: float, weight: float,
                 exact_weight: Fraction) -> dict:
    """mid_steps and weight_err of a nu atom set whose smallest float
    width is min_width.

    A width above 2^-52 means q (q + q') < 2^52, since rounding is
    monotone. If every row has one, the numerator and denominator of
    every midpoint, 2 p q + p q' + p' q <= 2 q (q + q') < 2^53, are
    exact integers in floats, and fl(N / D) rounds once.
    """
    mid_steps = 1 if min_width > 2.0**-52 else _MID_STEPS_INEXACT
    return {"mid_steps": mid_steps,
            "weight_err": _weight_err(weight, exact_weight)}


@functools.lru_cache(maxsize=256)
def _weight_err(weight: float, exact_weight: Fraction) -> float:
    """|weight - exact_weight| / exact_weight, rounded up to a float."""
    rel = abs(Fraction(weight) - exact_weight) / exact_weight
    return math.nextafter(float(rel), math.inf)


# ------------------------------------------- fold, evaluator, error model


def _folds_exactly(atoms: _Atoms, xi) -> bool:
    return isinstance(xi, (int, Fraction)) and (
        atoms.cascade or xi >= EXACT_FOLD_THRESHOLD)


def _fold(atoms: _Atoms, xi, leaf: Optional[tuple] = None) -> np.ndarray:
    """Fractional part of xi * midpoint for every atom of leaf, xi > 0.

    leaf is (lo, hi, exact): the rows lo to hi and, when given,
    atoms.exact_mids(lo, hi); None is every row. An int or Fraction
    xi = a / b folds exactly on cascade atoms, and on nu atoms from
    EXACT_FOLD_THRESHOLD up: (a num) mod (b den) is one integer
    reduction, and dividing by b den rounds once. Otherwise the fold is
    a float product minus its floor: for a nonnegative float that
    difference is exact, so it equals % 1.0 bit for bit.
    """
    lo, hi, exact = leaf or (0, len(atoms.mids), None)
    if _folds_exactly(atoms, xi):
        a, b = xi.numerator, xi.denominator
        num, den = exact or atoms.exact_mids(lo, hi)
        return np.array([(a * n) % (b * d) / (b * d)
                         for n, d in zip(num, den)])
    phases = atoms.mids[lo:hi] * float(xi)
    phases -= np.floor(phases)
    return phases


def _values(atoms: _Atoms, xs: Sequence,
            keeps: Optional[Sequence] = None) -> list:
    """(full, kept) at every frequency of xs: full is (value, eps), the
    sum of weight * e(xi mid) over the atoms and its per-term bound, and
    kept the same over the subset keeps[k] marks, or None without a mask.

    At xi = 0 the value is 1 and eps 0; a negative xi takes the
    conjugates at |xi|. The other rows go to one call of _leaf_values.
    Keep masks need cascade atoms and xi != 0.
    """
    keeps = keeps or [None] * len(xs)
    if any(keep is not None and (xi == 0 or not atoms.cascade)
           for xi, keep in zip(xs, keeps)):
        raise PreconditionViolated(
            "a keep mask needs cascade atoms and a nonzero frequency")
    live = [k for k, xi in enumerate(xs) if xi != 0]
    rows = _leaf_values(atoms, [abs(xs[k]) for k in live],
                        [keeps[k] for k in live])
    out = [((complex(1.0), 0.0), None)] * len(xs)
    for k, row in zip(live, rows):
        out[k] = row if xs[k] > 0 else tuple(
            None if v is None else (v[0].conjugate(), v[1]) for v in row)
    return out


# ----------------------------------------------------- one-pass evaluation

# float64 parts numpy's pairwise sum adds in one unrolled block, unsplit
_PAIRWISE_BLOCK = 128
# atoms per leaf of an evaluation pass: the complex terms of the two
# leaves in flight (512 KiB each) stay in cache through every row's
# squarings
_LEAF = 1 << 15


def _pairwise_split(n: int, parts: int, leaf: int) -> int:
    """0 when n values of parts float64 each (2 for complex128) form a
    leaf: at most leaf values, or a block numpy sums unsplit. Otherwise
    the values in the first half where numpy's pairwise sum splits them.
    """
    if n <= leaf or parts * n <= _PAIRWISE_BLOCK:
        return 0
    half = parts * n // 2
    return (half - half % 8) // parts


def _pairwise_leaves(n: int, parts: int, leaf: int, lo: int = 0):
    """Yield (lo, hi) of the leaves of numpy's pairwise summation tree
    over n values of parts float64 each, in order.

    A leaf is the first node on each path down the tree that holds at
    most leaf values, or that numpy sums in one unrolled block. The sum
    of a leaf's values is the sum numpy computes at that node, since a
    node's sum depends on its values only.
    """
    k = _pairwise_split(n, parts, leaf)
    if not k:
        yield lo, lo + n
        return
    yield from _pairwise_leaves(k, parts, leaf, lo)
    yield from _pairwise_leaves(n - k, parts, leaf, lo + k)


def _pairwise_combine(n: int, parts: int, leaf: int, sums):
    """numpy's pairwise sum of n values from their leaf sums.

    sums holds the sum of each leaf of _pairwise_leaves(n, parts, leaf),
    in order, as numpy scalars; they are added up the same tree, each
    node's halves left to right, so the result is ndarray.sum() bit for
    bit.
    """
    sums = iter(sums)

    def node(n):
        k = _pairwise_split(n, parts, leaf)
        if not k:
            return next(sums)
        left = node(k)
        return left + node(n - k)
    return node(n)


def _doublings(atoms: _Atoms, last, x) -> int:
    """m when x = 2^m * last exactly, m >= 1, folded in floats.

    Scaling by 2^m is exact in floats, so float(x) * mid is 2^m times
    the last product and its phase is 2^m times the last phase, mod 1,
    bit for bit.
    """
    if last is None or _folds_exactly(atoms, x):
        return 0
    ratio = Fraction(x) / Fraction(last)
    n = ratio.numerator
    if ratio.denominator != 1 or n < 2 or n & (n - 1):
        return 0
    return n.bit_length() - 1


def _plan(atoms: _Atoms, xs: Sequence) -> list:
    """How a scan evaluates each frequency x > 0 of xs, in order.

    (x, m, eps) for each: m = 0 folds the phases and exponentiates them
    afresh; m >= 1 squares the last row's terms m times, since e(2 x) =
    e(x)^2, when x is 2^m times that row's frequency (_doublings) and
    the squared bound of _squared_eps is at most twice the direct bound
    of _direct_eps at x. eps bounds |term - e(x mid)| for every term at
    its exact midpoint. The plan depends only on the frequencies and
    mid_steps.
    """
    plan, last, last_eps = [], None, 0.0
    for x in xs:
        eps = _direct_eps(atoms, x)
        m = _doublings(atoms, last, x)
        squared = last_eps
        for _ in range(m):
            squared = _squared_eps(squared)
        if m and squared <= 2.0 * eps:
            eps = squared
        else:
            m = 0
        plan.append((x, m, eps))
        last, last_eps = x, eps
    return plan


def _direct_terms(atoms: _Atoms, x, terms: np.ndarray,
                  leaf: tuple) -> np.ndarray:
    """exp(i 2 pi phase) for the atoms of leaf (see _fold) at x > 0,
    written to terms."""
    terms.real = 0.0
    terms.imag = TWO_PI * _fold(atoms, x, leaf)
    return np.exp(terms, out=terms)


def _leaf_values(atoms: _Atoms, xs: Sequence, keeps: Sequence) -> list:
    """(full, kept) at every x > 0 of xs (see _values), in one pass.

    The rows follow _plan. The atoms are visited once, leaf by leaf of
    numpy's complex pairwise tree (_pairwise_leaves, at most _LEAF
    atoms), the leaves on any core (pool.ordered_map): every row in turn
    folds and exponentiates the leaf's terms into the leaf's own buffer,
    or squares the terms the buffer holds from the row before, and
    records the leaf's sums. If any row folds exactly, the leaf's exact
    midpoints are formed once (atoms.exact_mids) and every exact row
    folds them. A nu leaf sums its terms, and the scalar weight
    multiplies the combined sum; a cascade leaf sums its terms times the
    atoms' weights, elementwise, and a kept sum the same with the
    weights its mask drops set to 0. Every step is elementwise, so each
    term and product is the one a full-size buffer would hold, and the
    leaf sums combine up the same tree, in its order (_pairwise_combine),
    so each value is one numpy sum's bit for bit, on any number of cores.
    """
    rows = _plan(atoms, xs)
    n = len(atoms.mids)
    exact = any(_folds_exactly(atoms, x) for x, _, _ in rows)
    # the weights each row's leaf sums take, None for the bare terms
    weight = atoms.weight if atoms.cascade else None
    columns = [[weight] if keep is None else [weight, weight * keep]
               for keep in keeps]

    def leaf_sums(bound: tuple[int, int]) -> list:
        lo, hi = bound
        terms = np.empty(hi - lo, dtype=np.complex128)
        products = np.empty_like(terms) if atoms.cascade else None
        leaf = lo, hi, atoms.exact_mids(lo, hi) if exact else None
        sums = []
        for (x, m, _), weights in zip(rows, columns):
            if m:
                for _ in range(m):
                    np.multiply(terms, terms, out=terms)
            else:
                _direct_terms(atoms, x, terms, leaf)
            sums.append([terms.sum() if w is None else np.multiply(
                terms, w[lo:hi], out=products).sum() for w in weights])
        return sums

    def combine(sums) -> complex:
        total = _pairwise_combine(n, 2, _LEAF, sums)
        return complex(total if atoms.cascade else atoms.weight * total)

    by_leaf = ordered_map(leaf_sums, _pairwise_leaves(n, 2, _LEAF)) \
        if rows else []
    out = [[(combine(sums), eps) for sums in zip(*row)]
           for (_, _, eps), row in zip(rows, zip(*by_leaf))]
    return [(full, kept[0] if kept else None) for full, *kept in out]


@functools.lru_cache(maxsize=256)
def _inflation(steps: int) -> float:
    """A float >= 1 + gamma_steps = 1 / (1 - steps u), u = 2^-53.

    Higham's gamma bounds the relative error of that many roundings:
    (1 - u)^-steps <= 1 + gamma_steps.
    """
    return math.nextafter(float(Fraction(2**53, 2**53 - steps)), math.inf)


def _at_least(value: float, exact: Fraction) -> float:
    """value, raised an ulp at a time until it is >= exact."""
    while Fraction(value) < exact:
        value = math.nextafter(value, math.inf)
    return value


@functools.lru_cache(maxsize=256)
def _gamma(steps: int) -> float:
    """A float >= gamma_steps = steps u / (1 - steps u)."""
    return math.nextafter(float(Fraction(steps, 2**53 - steps)), math.inf)


_BOUND_UP = _inflation(16)


def _up(bound: float) -> float:
    """A bound of nonnegative terms, computed with at most 15 roundings
    on any path, raised past its exact value."""
    return bound * _BOUND_UP


# |exp(i theta) computed - exp(i theta)| <= sqrt(2) EXP_ULPS u; the
# product is exact, as 2 EXP_ULPS u is a power-of-two multiple
_EXP_ERR = SQRT2_UP * EXP_ULPS * U
_TWO_PI_UP = 2.0 * PI_UP


def _direct_eps(atoms: _Atoms, x) -> float:
    """Per-term bound of a direct evaluation at x > 0 (see _error).

    float(x) may lie u below x; _up covers that factor too.
    """
    angle = _EXP_ERR + _TWO_PI_UP * _gamma(2)
    if _folds_exactly(atoms, x):
        return _up(angle + _TWO_PI_UP * U)
    xf = float(x)
    steps = (atoms.mid_steps + (xf != x)
             + (math.frexp(xf)[0] != 0.5))
    return _up(angle + _TWO_PI_UP * xf * _gamma(steps))


def _squared_eps(eps: float) -> float:
    """Per-term bound after one in-place complex square (see _error)."""
    return _up(eps * (2.0 + eps) + SQRT5_UP * U * (1.0 + eps)**2)


def _evaluation_term(atoms: _Atoms, eps: float) -> float:
    """|computed value - exact midpoint sum| from the per-term bound, on
    nu and cascade atoms alike (steps 5 and 6 of _error)."""
    n = len(atoms.mids)
    # numpy's pairwise sum: at most 20 additions inside a block of 64
    # terms, then one per halving
    adds = 20 + (n - 1).bit_length()
    sum_err = eps + SQRT2_UP * _gamma(adds) * (1.0 + eps)
    rho = atoms.weight_err
    return _up((U * (1.0 + rho) + rho) * (1.0 + sum_err) + sum_err)


def _mass_width(atoms: _Atoms, keep: Optional[np.ndarray] = None) -> float:
    """Upper bound on the sum of mass * width over cylinder atoms.

    Nu cylinders carry it, already inflated. On cascade cylinders
    (optionally the keep subset) summing mass * width as exact rationals
    is quadratic in the leaf count (denominators share no structure), so
    the float sum is inflated instead: 1 rounding each in float(mass),
    the width division, their product and fsum, and room for 5 more in
    the caller (pi, float(xi) and 3 products in _error).
    """
    if atoms.mass_width is not None:
        return atoms.mass_width
    weight, widths = atoms.weight, atoms.widths
    if keep is not None:
        weight, widths = weight[keep], widths[keep]
    return math.fsum(weight * widths) * _inflation(9)


def _error(atoms: _Atoms, xi, eps: float,
           keep: Optional[np.ndarray] = None) -> float:
    """Error bound of a _values value whose per-term bound is eps.

    Midpoint term. Cylinders: pi |xi| * sum of mass * width, with the
    float sum inflated to an upper bound. Samples: 3 / sqrt(n) +
    pi |xi| * width ceiling, where |xi| * width ceiling, its product with
    PI_UP and the sum are each raised to the first float at or above
    their exact value.

    Evaluation term: the distance between the computed value and
    sum w_i e(xi m_i) over the n atoms, at their exact weights w_i and
    exact midpoints m_i = N_i / D_i. On nu atoms every w_i is one
    w = 1 / n. On cascade atoms w_i is the cylinder's mass, or on a
    sample set the count of samples that drew the cylinder over the
    sample count, and a kept sum sets w_i = 0 on the atoms its mask
    drops; so sum w_i <= 1. Proof sketch, with u = 2^-53 and
    gamma_k = k u / (1 - k u), assuming no float underflows:

    1. Fold. In floats, fl(m) = m (1 + d) with |d| <= gamma_mid_steps;
       float(xi) rounds once unless it equals xi; the product rounds
       once unless float(xi) is a power of two; the floor subtraction
       is exact. So the float phase differs from xi m, mod 1, by at
       most gamma_j xi m <= gamma_j xi, j the roundings counted. The
       exact fold (an int or Fraction xi on cascade atoms, or from
       2^40 up on nu atoms) rounds the exact phase once: at most u.
    2. Angle. TWO_PI and the product each round once: the angle is
       within 2 pi gamma_2 of 2 pi phase, as phase < 1.
    3. exp. Each part of np.exp is within EXP_ULPS ulp (the stated
       libm assumption), so the term is within sqrt(2) EXP_ULPS u of
       exp(i angle). As e is 2 pi-Lipschitz and 1-periodic, every term
       is within eps = sqrt(2) EXP_ULPS u + 2 pi gamma_2 + (2 pi gamma_j
       xi, or 2 pi u) of e(xi m).
    4. Squaring. A term within eps of t, |t| = 1, squares to within
       eps (2 + eps) of t^2, and the naive complex product, with or
       without FMA, adds at most sqrt(5) u |term|^2 <= sqrt(5) u
       (1 + eps)^2 (Brent, Percival, Zimmermann 2007). A chained row
       restarts from exp when this bound would exceed twice the direct
       eps at its frequency.
    5. Sum. numpy's pairwise sum passes each part of a summand through
       at most h = 20 + ceil(log2 n) additions, so the float sum is
       within sqrt(2) gamma_h times the sum of the summands' moduli of
       their exact sum. _leaf_values sums leaf by leaf: each leaf is a
       node of that tree, summed by numpy as the tree sums it, and
       _pairwise_combine adds the leaf sums up the rest of the tree in
       numpy's order, so the additions, and the float sum, are those of
       one ndarray.sum().
       The leaves run on any core, but each sum goes to its leaf's slot
       and the combine reads the slots in tree order, so the order
       does not depend on which leaf finishes first.
       test_leaf_sums_combine_to_the_numpy_sum checks this order, and
       test_results_do_not_depend_on_the_worker_count the slots.
    6. Weights. Each float weight is within rho w_i of w_i: nu's rho is
       computed exactly when the atoms are built, and a cascade weight,
       float(atom**k) or count / samples, rounds once (rho = u). Let
       s = eps + sqrt(2) gamma_h (1 + eps). On nu atoms the float sum
       of the n terms is within n s of sum e(xi m_i), and the product by
       the weight rounds each part once: with w n = 1 the distance is
       at most (u (1 + rho) + rho) (1 + s) + s. On cascade atoms each
       summand, a weight times its term with each part rounded once, is
       within u (1 + rho) (1 + eps) w_i of their exact product, which is
       within (rho (1 + eps) + eps) w_i of w_i e(xi m_i), and has modulus
       at most (1 + u) (1 + rho) (1 + eps) w_i. As sum w_i <= 1, these
       and step 5 sum to the same expression: both expand to eps +
       rho (1 + eps) + u (1 + rho) (1 + eps) + sqrt(2) gamma_h (1 + eps)
       (1 + u) (1 + rho).

    Each bound is computed from nonnegative floats and raised by _up,
    and the sum of the two terms is rounded up. At xi = 0 the value is
    exact and the evaluation term is 0.
    """
    x = abs(xi)
    if atoms.samples is not None:
        cap = atoms.width_ceiling
        exact = Fraction(x) * cap
        geo = _at_least(float(exact) if isinstance(x, (int, Fraction))
                        else x * float(cap), exact)
        width = _at_least(PI_UP * geo, Fraction(PI_UP) * Fraction(geo))
        stat = 3.0 / math.sqrt(atoms.samples)
        bound = _at_least(stat + width, Fraction(stat) + Fraction(width))
    else:
        bound = math.pi * float(x) * _mass_width(atoms, keep)
    if x == 0:
        return bound
    return math.nextafter(bound + _evaluation_term(atoms, eps), math.inf)


def _estimate(atoms: _Atoms, xi, depth: int, evaluated: tuple[complex, float],
              keep: Optional[np.ndarray] = None) -> FourierEstimate:
    """The estimate at xi from (value, eps) of _values over keep's atoms."""
    value, eps = evaluated
    return FourierEstimate(
        xi=xi, value=value, err_bound=_error(atoms, xi, eps, keep),
        method="cylinder" if atoms.samples is None else "montecarlo",
        depth=depth, samples=atoms.samples)


# ---------------------------------------------- single-frequency methods


def _check_frequency(xi) -> None:
    """Raise PreconditionViolated unless |xi| < FREQUENCY_LIMIT = 2^1020.

    The phase fold is exact at any size, but every error bound is a
    float product with |xi|, and the limit keeps each accepted bound
    finite. float(|xi|) <= 2^1020, as rounding is monotone and 2^1020 is
    a float. A cylinder bound is pi float(|xi|) times the sum of mass *
    width, which is at most 1 (masses sum to 1, disjoint widths to at
    most 1) raised by a few roundings: below 4 * 2^1020 = 2^1022. A
    sample bound is PI_UP |xi| times the width ceiling (at most 1),
    below 2^1022, plus 3 / sqrt(n) <= 3, each raised by a few ulps. The
    evaluation term is below 1. Every bound is thus below 2^1022 + 4,
    far under the float limit 2^1024. NaN and infinite
    floats fail the comparison and are rejected too.
    """
    if not abs(xi) < FREQUENCY_LIMIT:
        raise PreconditionViolated(
            "frequency magnitude must be below 2^1020, so that its error "
            "bound stays finite in floats (below 2^1024)")


def fourier_cylinder_sum(measure: Measure, xi, depth: int,
                         budget: int = CYLINDER_BUDGET) -> FourierEstimate:
    """Exact-decomposition estimate: sum of mass * e(xi mid) per cylinder.

    err_bound = sum of mass * pi |xi| width, plus the evaluation term
    of _error. At xi = 0 the value is the total mass exactly and the
    bound is zero.
    """
    _check_frequency(xi)
    atoms = _atoms(measure, depth, budget=budget)
    (full, _), = _values(atoms, [xi])
    return _estimate(atoms, xi, depth, full)


def fourier_monte_carlo(measure: Measure, xi, samples: int, depth: int,
                        seed: int = 0) -> FourierEstimate:
    """Sampled estimate: mean of e(xi mid) over drawn depth-level paths.

    err_bound = 3 / sqrt(samples) + pi |xi| * (worst cylinder width at
    the depth), plus the evaluation term of _error; deterministic in the
    seed.
    """
    _check_frequency(xi)
    atoms = _atoms(measure, depth, samples, seed)
    (full, _), = _values(atoms, [xi])
    return _estimate(atoms, xi, depth, full)


# ------------------------------------------------------------ decay scan


@dataclass(frozen=True)
class DecayRow:
    xi: Union[int, float, Fraction]
    full: FourierEstimate
    typ: FourierEstimate
    n_index: int
    exc_tv: Fraction


@dataclass(frozen=True)
class DecayTable:
    rows: tuple[DecayRow, ...]
    method: str
    depth: int
    config: dict

    @property
    def config_hash(self) -> str:
        return config_hash(self.config)

    def serialize_csv(self) -> str:
        lines = [
            f"# cfraj_version={__version__} config_hash={self.config_hash}",
            "xi,re,im,abs,err,n_index,exc_tv",
        ]
        for row in self.rows:
            v = row.full.value
            lines.append(
                f"{float(row.xi):.17g},{v.real:.17g},{v.imag:.17g},"
                f"{abs(v):.17g},{row.full.err_bound:.17g},"
                f"{row.n_index},{float(row.exc_tv):.17g}"
            )
        return "\n".join(lines) + "\n"


def _scan_config(measure: Measure, xi_list, method, depth, samples, seed,
                 alpha) -> dict:
    if isinstance(measure, LambdaMeasure):
        mdoc = measure.config_doc()
    else:
        mdoc = measure.to_json_doc()
    return {
        "measure": mdoc,
        "method": method,
        "depth": depth,
        "samples": samples if method == "montecarlo" else None,
        "seed": seed if method == "montecarlo" else None,
        "alpha": str(Fraction(alpha)),
        "xi": [str(x) if isinstance(x, (int, Fraction)) else repr(float(x))
               for x in xi_list],
    }


def decay_scan(measure: Measure, xi_list: Sequence, method: str, depth: int,
               *, samples: int = 20000, seed: int = 0,
               alpha=ALPHA_DEFAULT,
               budget: int = CYLINDER_BUDGET) -> DecayTable:
    """Per-frequency estimates with the typical/exceptional decomposition.

    One cylinder enumeration (or one sample draw) is shared by all
    frequencies, so a fixed seed gives a byte-reproducible table. Every
    row is evaluated in one pass over the atoms, leaf by leaf, and a row
    whose frequency is 2^m times the last one, both folded in floats,
    squares the last row's terms (see _leaf_values). On cascade atoms a
    row's typical estimate comes from the same terms as its full one,
    with the weights of the exceptional atoms set to 0, and both carry
    the evaluation term. For a plain product measure there is no
    exceptional part: n_index = 0 and exc_tv = 0 on every row. Every
    |xi| must be below 2^1020 (_check_frequency), as for the
    single-frequency methods, and alpha must be positive. Both are
    checked, and every cascade row's split (split_typ_exc) is made,
    before any cylinder or sample is formed, so a row past the cascade's
    horizon raises OutOfRange at once.
    """
    if method not in ("cylinder", "montecarlo"):
        raise PreconditionViolated(f"unknown method {method!r}")
    if Fraction(alpha) <= 0:
        raise PreconditionViolated("alpha must be positive")
    xs = list(xi_list)
    for xi in xs:
        _check_frequency(xi)
    if any(xs[k] >= xs[k + 1] for k in range(len(xs) - 1)):
        raise PreconditionViolated("xi_list must be strictly ascending")
    splits = [split_typ_exc(measure, abs(xi), alpha)
              if isinstance(measure, LambdaMeasure) and abs(xi) > 1 else None
              for xi in xs]

    atoms = _atoms(measure, depth,
                   samples if method == "montecarlo" else None, seed, budget)
    keeps = [None if split is None else atoms.typical_mask(split)
             for split in splits]
    rows = []
    for xi, split, keep, (full, kept) in zip(xs, splits, keeps,
                                             _values(atoms, xs, keeps)):
        full = _estimate(atoms, xi, depth, full)
        if split is None:
            rows.append(DecayRow(xi=xi, full=full, typ=full, n_index=0,
                                 exc_tv=Fraction(0)))
            continue
        rows.append(DecayRow(xi=xi, full=full,
                             typ=_estimate(atoms, xi, depth, kept, keep),
                             n_index=split.n_index, exc_tv=split.exc_mass))
    cfg = _scan_config(measure, xs, method, depth, samples, seed, alpha)
    return DecayTable(rows=tuple(rows), method=method, depth=depth, config=cfg)


def decay_slope(table: DecayTable) -> float:
    """Least-squares slope of log |estimate| against log xi.

    Rows with xi <= 1 or a zero estimate are skipped.
    """
    xs, ys = [], []
    for row in table.rows:
        a = abs(row.full.value)
        if row.xi > 1 and a > 0:
            xs.append(math.log(float(row.xi)))
            ys.append(math.log(a))
    if len(xs) < 2:
        raise PreconditionViolated("need at least two usable rows for a fit")
    return float(np.polyfit(np.array(xs), np.array(ys), 1)[0])
