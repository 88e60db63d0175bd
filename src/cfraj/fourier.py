"""Fourier transforms of the constructed measures, with rigorous errors.

Both estimators evaluate e(xi x) = exp(2 pi i xi x) at cylinder
midpoints; replacing the integrand by its midpoint value costs at most
pi |xi| width per cylinder (mean value theorem), which is exactly the
error bound carried on every estimate. Negative frequencies are served
by conjugating the positive-frequency estimate, so conjugate symmetry
holds to the last bit.

Every estimate is one pipeline: an atom set (the cylinders or the
sample paths of a nu or cascade measure), one phase fold, one evaluator
and one error model. An int or Fraction frequency is folded exactly, by
integer reduction of the exact midpoints: always on cascade atoms, and
on nu atoms from EXACT_FOLD_THRESHOLD up, where float products lose the
fractional part.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

import numpy as np

from . import __version__
from .blocks import (
    NuMeasure,
    _block_matrices,
    cylinder_geometry,
    product_convergent_matrices,
)
from .cascade import (
    ALPHA_DEFAULT,
    LambdaMeasure,
    _sample_with_chain,
    split_typ_exc,
)
from .errors import BudgetExceeded, DepthExceeded, PreconditionViolated
from .rules import rho_value

Measure = Union[NuMeasure, LambdaMeasure]

CYLINDER_BUDGET = 10**6
# above this, float(xi) * float(mid) has absolute error comparable to 1
EXACT_FOLD_THRESHOLD = 2**40

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class FourierEstimate:
    xi: Union[int, float, Fraction]
    value: complex
    err_bound: float
    method: str
    depth: int
    samples: Optional[int] = None


# --------------------------------------------------------------- leaves


@dataclass(frozen=True)
class _Leaf:
    mass: Fraction
    pn: int
    pp: int
    q: int
    qp: int
    chain: tuple[int, ...]

    @property
    def width(self) -> Fraction:
        return Fraction(1, self.q * (self.q + self.qp))


def _lambda_leaves(lm: LambdaMeasure, depth: int,
                   budget: int = CYLINDER_BUDGET) -> list[_Leaf]:
    """Every positive-mass depth-block prefix, in lexicographic order."""
    if depth < 1:
        raise PreconditionViolated("depth must be >= 1")
    if depth > lm.horizon:
        raise DepthExceeded(f"depth {depth} beyond horizon {lm.horizon}")
    nu, sch = lm.nu, lm.schedule
    p, sdepth = sch.p, sch.depth
    s = len(nu.support)
    out: list[_Leaf] = []

    def emit(mass, q, qp, pn, pp, chain):
        if len(out) >= budget:
            raise BudgetExceeded(f"cylinder count exceeds budget {budget}")
        out.append(_Leaf(mass, pn, pp, q, qp, tuple(chain)))

    def walk(b, label, chain, seg_rank, mass, q, qp, pn, pp, dsum):
        while True:
            # order matters: a prefix ending exactly at i_label keeps
            # label unrefined, matching the classify walker
            if b == depth:
                emit(mass, q, qp, pn, pp, chain)
                return
            if label <= sdepth and b == sch.i[label - 1]:
                split = lm.stage_split(label)
                child = 2 * label + (0 if seg_rank < split.count else 1)
                chain = chain + [child]
                for _ in range(sch.r[label - 1]):
                    if b == depth:
                        break
                    for _j in range(p):
                        d = rho_value(lm.rule, q, dsum)
                        q, qp = d * q + qp, q
                        pn, pp = d * pn + pp, pn
                        dsum += d
                    b += 1
                label = child
                seg_rank = 0
                continue
            for idx in range(s):
                blk = nu.support[idx]
                q2, qp2, pn2, pp2, d2 = q, qp, pn, pp, dsum
                for d in blk:
                    q2, qp2 = d * q2 + qp2, q2
                    pn2, pp2 = d * pn2 + pp2, pn2
                    d2 += d
                walk(b + 1, label, chain, seg_rank * s + idx,
                     mass * nu.atom, q2, qp2, pn2, pp2, d2)
            return

    walk(0, 1, [1], 0, Fraction(1), 1, 0, 0, 1, 0)
    return out


def _min_block_continuant(nu: NuMeasure) -> int:
    best = None
    for blk in nu.support:
        q, qp = 1, 0
        for d in blk:
            q, qp = d * q + qp, q
        best = q if best is None else min(best, q)
    return best


def _width_ceiling(measure: Measure, depth: int) -> Fraction:
    """Sound upper bound for the width of any depth-level cylinder.

    Concatenation never shrinks a continuant product, so q is at least
    (min block continuant)^(number of typical blocks); forced blocks
    only count for >= 1.
    """
    if isinstance(measure, LambdaMeasure):
        kmin = _min_block_continuant(measure.nu)
        typical_floor = max(depth - sum(measure.schedule.r), 0)
        qmin = kmin**typical_floor
    else:
        qmin = _min_block_continuant(measure)**depth
    return Fraction(1, qmin * qmin)


def _nu_sample_matrices(nu: NuMeasure, samples: int, depth: int,
                        seed: int) -> np.ndarray:
    base = _block_matrices(nu, depth)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, len(base), size=(samples, depth))
    mats = np.broadcast_to(np.eye(2, dtype=np.int64), (samples, 2, 2)).copy()
    for k in range(depth):
        mats = mats @ base[idx[:, k]]
    return mats


def _lambda_sample_leaves(lm: LambdaMeasure, samples: int, depth: int,
                          seed: int) -> list[_Leaf]:
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        blocks, chain = _sample_with_chain(lm, depth, rng)
        q, qp, pn, pp = 1, 0, 0, 1
        for blk in blocks:
            for d in blk:
                q, qp = d * q + qp, q
                pn, pp = d * pn + pp, pn
        out.append(_Leaf(Fraction(0), pn, pp, q, qp, chain))
    return out


# ---------------------------------------------------------------- atoms


def _midpoints(pn, pp, q, qp) -> tuple[list[int], list[int]]:
    """Exact cylinder midpoints num / den from convergent columns."""
    num = [2 * a * c + a * d + b * c for a, b, c, d in zip(pn, pp, q, qp)]
    den = [2 * c * (c + d) for c, d in zip(q, qp)]
    return num, den


@dataclass
class _Atoms:
    """The points an estimate sums over, from one of four sources.

    weight is one float for uniform sources (nu cylinders and every
    sample set) and a float per atom for cascade cylinders. Midpoints
    are held as floats and exactly as num / den in Python ints. A nu
    source derives num / den only when a frequency needs the exact
    fold: nu samples from the int64 convergent matrices they keep, nu
    cylinders from matrices enumerated again from cylinders, the
    (measure, depth, budget) they came from. Cylinder sources carry
    widths, and nu cylinders also mass_width, a sound upper bound on
    the sum of mass * width; sample sources carry the sample count and
    the width ceiling. chains holds each cascade atom's label chain.
    """

    weight: Union[float, np.ndarray]
    mids: np.ndarray
    cascade: bool
    widths: Optional[np.ndarray] = None
    samples: Optional[int] = None
    width_ceiling: Optional[Fraction] = None
    chains: Optional[list[tuple[int, ...]]] = None
    num: Optional[list[int]] = None
    den: Optional[list[int]] = None
    mats: Optional[np.ndarray] = None
    cylinders: Optional[tuple[NuMeasure, int, int]] = None
    mass_width: Optional[float] = None

    def exact_mids(self) -> tuple[list[int], list[int]]:
        if self.num is None:
            m = self.mats
            if m is None:
                m = product_convergent_matrices(*self.cylinders)
            self.num, self.den = _midpoints(
                m[:, 1, 0].tolist(), m[:, 1, 1].tolist(),
                m[:, 0, 0].tolist(), m[:, 0, 1].tolist())
        return self.num, self.den


def _cascade_atoms(leaves: list[_Leaf], weight, **source) -> _Atoms:
    num, den = _midpoints([lf.pn for lf in leaves], [lf.pp for lf in leaves],
                          [lf.q for lf in leaves], [lf.qp for lf in leaves])
    return _Atoms(weight=weight,
                  mids=np.array([n / d for n, d in zip(num, den)]),
                  cascade=True, chains=[lf.chain for lf in leaves],
                  num=num, den=den, **source)


def _atoms(measure: Measure, depth: int, samples: Optional[int] = None,
           seed: int = 0, budget: int = CYLINDER_BUDGET) -> _Atoms:
    """Every depth-level cylinder (samples None) or seeded sample paths."""
    if samples is not None and samples < 1:
        raise PreconditionViolated("samples must be >= 1")
    if isinstance(measure, LambdaMeasure):
        if samples is None:
            leaves = _lambda_leaves(measure, depth, budget)
            return _cascade_atoms(
                leaves, np.array([float(lf.mass) for lf in leaves]),
                widths=np.array([1 / (lf.q * (lf.q + lf.qp))
                                 for lf in leaves]))
        return _cascade_atoms(
            _lambda_sample_leaves(measure, samples, depth, seed),
            1.0 / samples, samples=samples,
            width_ceiling=_width_ceiling(measure, depth))
    if samples is None:
        mats = product_convergent_matrices(measure, depth, budget)
        mids, widths = cylinder_geometry(mats)
        weight = float(measure.atom)**depth
        # roundings between the float terms and the true bound
        # pi |xi| sum s^-depth / (q (q + q')), each worth at most a
        # factor 1 / (1 - u): n - 1 in the sum, 5 within any one width,
        # depth + 2 in the weight, 1 each in pi and float(xi), 4 products
        steps = (len(widths) - 1) + 5 + (depth + 2) + 2 + 4
        # the matrices (32 B a cylinder) are dropped here; the rare exact
        # fold enumerates them again
        return _Atoms(weight=weight, mids=mids, cascade=False,
                      widths=widths, cylinders=(measure, depth, budget),
                      mass_width=weight * float(widths.sum())
                      * _inflation(steps))
    mats = _nu_sample_matrices(measure, samples, depth, seed)
    mids, _ = cylinder_geometry(mats)
    return _Atoms(weight=1.0 / samples, mids=mids, cascade=False,
                  samples=samples,
                  width_ceiling=_width_ceiling(measure, depth), mats=mats)


# ------------------------------------------- fold, evaluator, error model


def _fold(atoms: _Atoms, xi) -> np.ndarray:
    """Fractional part of xi * midpoint for every atom, xi > 0.

    An int or Fraction xi = a / b folds exactly on cascade atoms, and on
    nu atoms from EXACT_FOLD_THRESHOLD up: (a num) mod (b den) is one
    integer reduction, and dividing by b den rounds once. Otherwise the
    fold is a float product minus its floor: for a nonnegative float
    that difference is exact, so it equals % 1.0 bit for bit.
    """
    if isinstance(xi, (int, Fraction)) and (
            atoms.cascade or xi >= EXACT_FOLD_THRESHOLD):
        a, b = xi.numerator, xi.denominator
        num, den = atoms.exact_mids()
        return np.array([(a * n) % (b * d) / (b * d)
                         for n, d in zip(num, den)])
    phases = float(xi) * atoms.mids
    phases -= np.floor(phases)
    return phases


def _evaluate(atoms: _Atoms, xi, keep: Optional[np.ndarray] = None) -> complex:
    """Sum of weight * e(xi mid) over the atoms, or over those keep marks.

    Cascade atoms are summed term by term with math.fsum; nu atoms, up
    to millions of them, in one numpy sum of exp(i 2 pi phase), built
    and exponentiated in one complex buffer.
    """
    if xi < 0:
        return _evaluate(atoms, -xi, keep).conjugate()
    if xi == 0 and keep is None:
        return complex(1.0)
    phases, weight = _fold(atoms, xi), atoms.weight
    if keep is not None:
        phases = phases[keep]
        if not np.isscalar(weight):
            weight = weight[keep]
    if not atoms.cascade:
        terms = np.zeros(len(phases), dtype=np.complex128)
        np.multiply(phases, TWO_PI, out=terms.imag)
        del phases
        return complex(weight * np.exp(terms, out=terms).sum())
    angles = (TWO_PI * phases).tolist()
    weights = weight.tolist() if not np.isscalar(weight) \
        else [weight] * len(angles)
    return complex(
        math.fsum(w * math.cos(a) for w, a in zip(weights, angles)),
        math.fsum(w * math.sin(a) for w, a in zip(weights, angles)))


# summing mass * width as exact rationals is quadratic in the leaf count
# (denominators share no structure), so the error integral is accumulated
# in floats and inflated to stay an upper bound
_FLOAT_SLACK = 1.0 + 1e-9


def _inflation(steps: int) -> float:
    """A float >= 1 + gamma_steps = 1 / (1 - steps u), u = 2^-53.

    Higham's gamma bounds the relative error of that many roundings:
    (1 - u)^-steps <= 1 + gamma_steps.
    """
    return math.nextafter(float(Fraction(2**53, 2**53 - steps)), math.inf)


def _error(atoms: _Atoms, xi, keep: Optional[np.ndarray] = None) -> float:
    """Midpoint-rule error bound of _evaluate.

    Cylinders: pi |xi| * sum of mass * width, with the float sum
    inflated to an upper bound. Samples: 3 / sqrt(n) + pi |xi| * width
    ceiling.
    """
    x = abs(xi)
    if atoms.samples is not None:
        cap = atoms.width_ceiling
        geo = float(x * cap) if isinstance(x, (int, Fraction)) \
            else x * float(cap)
        return 3.0 / math.sqrt(atoms.samples) + math.pi * geo
    mass_width = atoms.mass_width
    if mass_width is None:
        weight, widths = atoms.weight, atoms.widths
        if keep is not None:
            weight, widths = weight[keep], widths[keep]
        mass_width = math.fsum(weight * widths) * _FLOAT_SLACK
    return math.pi * float(x) * mass_width


def _estimate(atoms: _Atoms, xi, depth: int,
              keep: Optional[np.ndarray] = None) -> FourierEstimate:
    return FourierEstimate(
        xi=xi, value=_evaluate(atoms, xi, keep),
        err_bound=_error(atoms, xi, keep),
        method="cylinder" if atoms.samples is None else "montecarlo",
        depth=depth, samples=atoms.samples)


# ---------------------------------------------- single-frequency methods


def fourier_cylinder_sum(measure: Measure, xi, depth: int,
                         budget: int = CYLINDER_BUDGET) -> FourierEstimate:
    """Exact-decomposition estimate: sum of mass * e(xi mid) per cylinder.

    err_bound = sum of mass * pi |xi| width. At xi = 0 the value is the
    total mass exactly and the bound is zero.
    """
    return _estimate(_atoms(measure, depth, budget=budget), xi, depth)


def fourier_monte_carlo(measure: Measure, xi, samples: int, depth: int,
                        seed: int = 0) -> FourierEstimate:
    """Sampled estimate: mean of e(xi mid) over drawn depth-level paths.

    err_bound = 3 / sqrt(samples) + pi |xi| * (worst cylinder width at
    the depth); deterministic in the seed.
    """
    return _estimate(_atoms(measure, depth, samples, seed), xi, depth)


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
        digest = hashlib.sha256(
            json.dumps(self.config, sort_keys=True,
                       separators=(",", ":")).encode()
        )
        return digest.hexdigest()[:16]

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

    def write_csv(self, path: str) -> None:
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            fh.write(self.serialize_csv())
        os.replace(tmp, path)


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
        "xi": [f"{float(x):.17g}" for x in xi_list],
    }


def decay_scan(measure: Measure, xi_list: Sequence, method: str, depth: int,
               *, samples: int = 20000, seed: int = 0,
               alpha=ALPHA_DEFAULT,
               budget: int = CYLINDER_BUDGET) -> DecayTable:
    """Per-frequency estimates with the typical/exceptional decomposition.

    One cylinder enumeration (or one sample draw) is shared by all
    frequencies, so a fixed seed gives a byte-reproducible table. For a
    plain product measure there is no exceptional part: n_index = 0 and
    exc_tv = 0 on every row.
    """
    if method not in ("cylinder", "montecarlo"):
        raise PreconditionViolated(f"unknown method {method!r}")
    xs = list(xi_list)
    if any(xs[k] >= xs[k + 1] for k in range(len(xs) - 1)):
        raise PreconditionViolated("xi_list must be strictly ascending")

    atoms = _atoms(measure, depth,
                   samples if method == "montecarlo" else None, seed, budget)
    rows = []
    for xi in xs:
        full = _estimate(atoms, xi, depth)
        split = None
        if atoms.cascade and abs(xi) > 1:
            try:
                split = split_typ_exc(measure, abs(xi), alpha)
            except PreconditionViolated:
                pass
        if split is None:
            rows.append(DecayRow(xi=xi, full=full, typ=full, n_index=0,
                                 exc_tv=Fraction(0)))
            continue
        keep = np.array([not split.is_exceptional(c) for c in atoms.chains])
        rows.append(DecayRow(xi=xi, full=full,
                             typ=_estimate(atoms, xi, depth, keep),
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
