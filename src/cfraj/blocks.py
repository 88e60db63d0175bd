"""Uniform block measures on continuant windows.

The measure lives on p-tuples of partial quotients over {1..N} whose
block continuant K (all p entries, no head-drop) satisfies
|log K - sigma| <= eps * sigma. Atoms are uniform. Window membership is
certified exactly: integer power comparisons when sigma is anchored as
log(m)/k, interval arithmetic otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product
from typing import Optional, Sequence, Union

import numpy as np

from .errors import (
    AtomTooHeavy,
    BudgetExceeded,
    EmptyWindow,
    NotInSupport,
    PreconditionViolated,
)
from .numeric import cert_ln_ge, cert_ln_le, ln_fraction, ln_int
from .pool import ordered_map
from .words import Word, continuant, continuant_pair

DEFAULT_ENUM_BUDGET = 10**7

Block = tuple[int, ...]


@dataclass(frozen=True)
class NuMeasure:
    n_bound: int
    p: int
    sigma: float
    eps_window: Fraction
    support: tuple[Block, ...]
    beta_achieved: float
    sigma_anchor: Optional[tuple[int, int]] = None

    @property
    def atom(self) -> Fraction:
        return Fraction(1, len(self.support))

    def __post_init__(self):
        object.__setattr__(self, "_index", {b: i for i, b in enumerate(self.support)})

    def block_index(self, block: Block) -> int:
        idx = self._index.get(tuple(block))
        if idx is None:
            raise NotInSupport(f"block {block} not in support", index=-1)
        return idx

    def __contains__(self, block) -> bool:
        return tuple(block) in self._index

    def to_json_doc(self) -> dict:
        doc = {
            "N": self.n_bound,
            "p": self.p,
            "sigma": self.sigma,
            "eps_window": f"{self.eps_window.numerator}/{self.eps_window.denominator}",
            "support": [list(b) for b in self.support],
            "beta_achieved": self.beta_achieved,
        }
        # the window is certified against the anchor, not the float sigma
        if self.sigma_anchor is not None:
            doc["sigma_anchor"] = list(self.sigma_anchor)
        return doc

    def serialize(self) -> str:
        return json.dumps(self.to_json_doc(), sort_keys=True)

    @classmethod
    def from_json_doc(cls, doc: dict) -> "NuMeasure":
        support = tuple(tuple(int(d) for d in b) for b in doc["support"])
        anchor = doc.get("sigma_anchor")
        return cls(
            n_bound=int(doc["N"]),
            p=int(doc["p"]),
            sigma=float(doc["sigma"]),
            eps_window=Fraction(doc["eps_window"]),
            support=support,
            beta_achieved=float(doc["beta_achieved"]),
            sigma_anchor=None if anchor is None
            else (int(anchor[0]), int(anchor[1])),
        )


def _window_bounds(sigma: float, eps: Fraction,
                   anchor: Optional[tuple[int, int]]) -> tuple[Fraction, Fraction]:
    if anchor is not None:
        m, k = anchor
        # symbolic sigma = ln(m)/k; bounds returned only for float prefilter
        s = math.log(m) / k
    else:
        s = sigma
    s_frac = Fraction(s)
    return (1 - eps) * s_frac, (1 + eps) * s_frac


def _certify_in_window(k_val: int, sigma: float, eps: Fraction,
                       anchor: Optional[tuple[int, int]]) -> bool:
    """Exact decision of |ln K - sigma| <= eps * sigma."""
    if anchor is not None:
        m, kk = anchor
        a, b = eps.numerator, eps.denominator
        # ln K >= (1 - a/b) ln(m)/kk   <=>   K^(kk b) >= m^(b - a)
        lhs = k_val ** (kk * b)
        return m ** (b - a) <= lhs <= m ** (b + a)
    lo, hi = _window_bounds(sigma, eps, None)
    return cert_ln_ge(k_val, lo) and cert_ln_le(k_val, hi)


def _continuant_grids(n_bound: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of shape (N,)*p holding K and K-minus-last for all tuples."""
    digits = np.arange(1, n_bound + 1, dtype=np.int64)
    q = digits.copy()
    qp = np.ones(n_bound, dtype=np.int64)
    for _ in range(p - 1):
        d = digits.reshape((1,) * q.ndim + (-1,))
        q_new = d * q[..., None] + qp[..., None]
        qp = np.broadcast_to(q[..., None], q_new.shape).copy()
        q = q_new
    return q, qp


def build_nu(n_bound: int, p: int, sigma: Optional[float], eps_window,
             *, sigma_anchor: Optional[tuple[int, int]] = None,
             budget: int = DEFAULT_ENUM_BUDGET) -> NuMeasure:
    """Uniform measure on the p-tuples inside the continuant window.

    sigma_anchor = (m, k) pins sigma = log(m)/k symbolically, making the
    window test a pure integer comparison. Without an anchor the float
    sigma is taken at its exact binary value and certified by interval
    arithmetic.
    """
    eps = Fraction(eps_window)
    if n_bound < 2 or p < 1:
        raise PreconditionViolated("need N >= 2 and p >= 1")
    if not (0 < eps < 1):
        raise PreconditionViolated("eps_window must be in (0, 1)")
    if sigma_anchor is not None:
        sigma = math.log(sigma_anchor[0]) / sigma_anchor[1]
    if sigma is None or sigma <= 0:
        raise PreconditionViolated("sigma must be positive")
    if n_bound**p > budget:
        raise BudgetExceeded(
            f"N^p = {n_bound}^{p} exceeds the enumeration budget {budget}"
        )

    k_grid, _ = _continuant_grids(n_bound, p)
    flat = k_grid.reshape(-1)
    lo, hi = _window_bounds(sigma, eps, sigma_anchor)
    logs = np.log(flat.astype(np.float64))
    mask = (logs >= float(lo) - 1e-9) & (logs <= float(hi) + 1e-9)
    candidates = np.nonzero(mask)[0]

    strides = [n_bound ** (p - 1 - j) for j in range(p)]
    support = []
    for idx in candidates:
        k_val = int(flat[idx])
        if not _certify_in_window(k_val, sigma, eps, sigma_anchor):
            continue
        rem = int(idx)
        tup = []
        for s in strides:
            tup.append(rem // s + 1)
            rem %= s
        support.append(tuple(tup))
    if not support:
        raise EmptyWindow(
            f"no {p}-tuple over [1,{n_bound}] has log-continuant within "
            f"{float(eps):.4g} of {sigma:.6g}"
        )
    support.sort()
    beta = ln_int(len(support)) / sigma
    return NuMeasure(
        n_bound=n_bound,
        p=p,
        sigma=sigma,
        eps_window=eps,
        support=tuple(support),
        beta_achieved=beta,
        sigma_anchor=sigma_anchor,
    )


def verify_window(nu: NuMeasure) -> bool:
    """Re-certify every support atom from scratch (not trusted from build)."""
    for block in nu.support:
        if not _certify_in_window(
            continuant(block), nu.sigma, nu.eps_window, nu.sigma_anchor
        ):
            return False
    return True


def median_log_continuant(n_bound: int, p: int, weighting: str = "lebesgue",
                          budget: int = DEFAULT_ENUM_BUDGET) -> tuple[float, tuple[int, int]]:
    """Median of the block log-continuant, with its integer anchor.

    "lebesgue" weights each tuple by its cylinder width (the probability
    that a uniformly random real starts with those partial quotients);
    "uniform" counts tuples equally. Returns (sigma, (K_med, 1)) so the
    window can be certified exactly.
    """
    if n_bound**p > budget:
        raise BudgetExceeded("enumeration budget exceeded")
    k_grid, kp_grid = _continuant_grids(n_bound, p)
    k = k_grid.reshape(-1).astype(np.float64)
    if weighting == "lebesgue":
        kp = kp_grid.reshape(-1).astype(np.float64)
        w = 1.0 / (k * (k + kp))
    elif weighting == "uniform":
        w = np.ones_like(k)
    else:
        raise PreconditionViolated(f"unknown weighting {weighting!r}")
    order = np.argsort(k, kind="stable")
    cum = np.cumsum(w[order])
    total = cum[-1]
    pos = int(np.searchsorted(cum, total / 2.0))
    k_med = int(k[order[min(pos, len(k) - 1)]])
    return math.log(k_med), (k_med, 1)


@dataclass(frozen=True)
class TopHalfSplit:
    level: int
    count: int
    mass: Fraction
    members: Optional[tuple[tuple[Block, ...], ...]]
    support_size: int

    def contains(self, blocks: Sequence[Block], nu: NuMeasure) -> bool:
        """Lexicographic rank test against the greedy cutoff."""
        if len(blocks) != self.level:
            raise PreconditionViolated(
                f"expected {self.level} blocks, got {len(blocks)}"
            )
        rank = 0
        for b in blocks:
            rank = rank * self.support_size + nu.block_index(b)
        return rank < self.count


def greedy_half(masses: Sequence[Fraction]) -> tuple[int, Fraction]:
    """Accumulate in the given order until mass >= 1/2 - max_atom/2.

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


MATERIALIZE_LIMIT = 100_000


def top_half_split(nu: NuMeasure, j: int) -> TopHalfSplit:
    """Deterministic near-half subset of the j-fold product support.

    Equal atoms collapse the greedy scan to a closed-form count
    ceil((s^j - 1)/2), evaluated in exact big-integer arithmetic, so
    the split is available at levels where s^j is astronomically large.
    Members are materialized only for small products.
    """
    if j < 1:
        raise PreconditionViolated("level must be >= 1")
    s = len(nu.support)
    if s == 1:
        raise AtomTooHeavy("single-atom measure: product atom is 1 > 1/2")
    total = s**j
    count = (total - 1) // 2 + (1 if (total - 1) % 2 else 0)
    mass = Fraction(count, total)
    members = None
    if total <= MATERIALIZE_LIMIT:
        members = tuple(
            tup for _, tup in zip(range(count), iter_product(nu.support, repeat=j))
        )
    return TopHalfSplit(
        level=j, count=count, mass=mass, members=members, support_size=s
    )


def product_mass(nu: NuMeasure, blocks: Sequence[Block]) -> Fraction:
    for i, b in enumerate(blocks):
        if tuple(b) not in nu:
            raise NotInSupport(f"block {tuple(b)} at index {i} not in support", i)
    return nu.atom ** len(blocks)


def blocks_to_word(blocks: Sequence[Block]) -> Word:
    digits: list[int] = []
    for b in blocks:
        digits.extend(b)
    return Word(0, tuple(digits))


def qnu_exponent_check(nu: NuMeasure, blocks: Sequence[Block]) -> float:
    """The float ratio log(product mass) / log q for the zero-head
    concatenation.

    Negative for every nonempty in-support list; a profile check passes
    when the ratio is at most -beta_prime.
    """
    if not blocks:
        raise PreconditionViolated("blocks must be nonempty")
    mass = product_mass(nu, blocks)
    q = continuant_pair(blocks_to_word(blocks)).q
    return ln_fraction(mass) / ln_int(q)


@dataclass(frozen=True)
class FrostmanScan:
    depth: int
    widths: tuple[float, ...]
    omega: tuple[float, ...]
    fitted_exponent: float


def _block_matrices(nu: NuMeasure, depth: int) -> np.ndarray:
    """int64 convergent matrix of each support block, in support order.

    Block b is the product of [[d, 1], [1, 0]] over its digits d, formed
    in Python ints. Raises BudgetExceeded unless every product of depth
    of them fits in int64.
    """
    rows = []
    for b in nu.support:
        q, qp, pn, pp = 1, 0, 0, 1
        for d in b:
            q, qp, pn, pp = d * q + qp, q, d * pn + pp, pn
        rows.append((q, qp, pn, pp))
    # entries of a product of nonnegative 2x2 matrices are bounded by
    # prod(row sums); keep everything inside int64
    row_sum_max = max(max(q + qp, pn + pp) for q, qp, pn, pp in rows)
    if row_sum_max**depth >= 2**62:
        raise BudgetExceeded(
            f"depth-{depth} continuants would overflow 64-bit integers"
        )
    return np.array(rows, dtype=np.int64).reshape(-1, 2, 2)


def _product(left: tuple, right: tuple) -> tuple:
    """Entries (q, q', p, p') of left @ right, each side a 2x2 matrix
    [[q, q'], [p, p']] given as its four entries in that order.

    The entries are int64 arrays, and numpy broadcasting pairs them up:
    every left matrix with every right one for (P, 1) against (s,)
    entries, row by row for equal shapes. Within the int64 guard of
    _block_matrices each entry is the exact integer np.matmul computes.
    """
    q, qp, pn, pp = left
    a, b, c, d = right
    return q * a + qp * c, q * b + qp * d, pn * a + pp * c, pn * b + pp * d


def _entries(mats: np.ndarray) -> tuple:
    """The four entries (q, q', p, p') of a (n, 2, 2) stack, as arrays."""
    return tuple(mats.reshape(-1, 4).T)


def _ascending_tables(nu: NuMeasure, mats: np.ndarray, depth: int) -> list:
    """Per-level block tables whose C-order product lists the depth-level
    cylinders in ascending order along [0, 1].

    The cylinder of blocks b_1 ... b_depth lies in T(I_b) at every
    level j, where b = b_j, I_b is the cylinder of block b and
    T(t) = (p + p' t) / (q + q' t) is the map of b_1 ... b_(j - 1):
    monotone, with the sign of (-1)^(p (j - 1)), one sign change per
    digit. The I_b are disjoint, so cylinders that share their first
    j - 1 blocks ascend with b_j when level j lists the blocks in the
    order of the I_b along [0, 1] if p (j - 1) is even, and in the
    reverse order if it is odd. The I_b are ordered by their exact
    Fraction midpoints, so the order never depends on rounding.
    """
    mids = [Fraction(2 * pn * q + pn * qp + pp * q, 2 * q * (q + qp))
            for q, qp, pn, pp in mats.reshape(-1, 4).tolist()]
    order = sorted(range(len(mids)), key=mids.__getitem__)
    up = _entries(mats[order])
    down = _entries(mats[order[::-1]])
    return [down if nu.p * j % 2 else up for j in range(depth)]


def _prefix_entries(nu: NuMeasure, depth: int, budget: int,
                    ascending: bool = False) -> tuple:
    """(entries of the depth - 1 level matrices, entries of the last
    level's block table).

    Each level takes its blocks from a table: the support in support
    order (C order), or with ascending the tables of _ascending_tables.
    The depth - 1 level has s^(depth - 1) matrices, the product of the
    first depth - 1 tables in C order (the identity at depth 1);
    depth-level row a * s + b is prefix a times entry b of the last
    table.
    """
    s = len(nu.support)
    if s**depth > budget:
        raise BudgetExceeded(f"{s}^{depth} cylinders exceed budget {budget}")
    mats = _block_matrices(nu, depth)
    tables = (_ascending_tables(nu, mats, depth) if ascending
              else [_entries(mats)] * depth)
    prefix = _entries(np.eye(2, dtype=np.int64))
    for table in tables[:-1]:
        prefix = tuple(e.reshape(-1) for e in
                       _product([e[:, None] for e in prefix], table))
    return prefix, tables[-1]


# rows per chunk of the streamed enumeration; bounds its temporaries
_STREAM_CHUNK = 1 << 15


def _stream_bounds(n: int) -> list[tuple[int, int]]:
    """(lo, hi) of consecutive chunks of _STREAM_CHUNK rows out of n."""
    return [(lo, min(lo + _STREAM_CHUNK, n))
            for lo in range(0, n, _STREAM_CHUNK)]


def _entry_rows(prefix: tuple, base: tuple, lo: int, hi: int) -> tuple:
    """Entries of rows lo to hi of the depth-level matrices, from
    _prefix_entries' two factors: the prefix rows the range spans times
    every block, cut to [lo, hi)."""
    s = len(base[0])
    first, last = lo // s, -(-hi // s)
    rows = slice(lo - first * s, hi - first * s)
    cols = _product([e[first:last, None] for e in prefix], base)
    return tuple(c.reshape(-1)[rows] for c in cols)


def product_convergent_matrices(nu: NuMeasure, depth: int,
                                budget: int = DEFAULT_ENUM_BUDGET) -> np.ndarray:
    """[[q, q'], [p, p']] for every depth-level word, head 0, C order.

    Row order matches lexicographic order over support-block sequences:
    row a * s + b is (row a of the depth - 1 level) @ block b.
    """
    prefix, base = _prefix_entries(nu, depth, budget)
    mats = np.empty((len(prefix[0]) * len(base[0]), 4), dtype=np.int64)
    for lo, hi in _stream_bounds(len(mats)):
        for k, col in enumerate(_entry_rows(prefix, base, lo, hi)):
            mats[lo:hi, k] = col
    return mats.reshape(-1, 2, 2)


def _geometry(q, qp, pn, pp, widths: bool = True) -> tuple:
    """(midpoints, widths or None) as floats from convergent entries.

    With q, q', p, p' the entries as floats, every row is
    mid = (2 p q + p q' + p' q) / (2 q (q + q')) and
    width = 1 / (q (q + q')), evaluated in that order.
    """
    q, qp, pn, pp = (e.astype(np.float64) for e in (q, qp, pn, pp))
    mids = (2 * pn * q + pn * qp + pp * q) / (2 * q * (q + qp))
    return mids, (1.0 / (q * (q + qp)) if widths else None)


# rows per slice of cylinder_geometry; bounds its float temporaries
_GEOMETRY_CHUNK = 1 << 14


def cylinder_geometry(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(midpoints, widths) as float arrays from convergent matrices.

    Every row is _geometry's expression. The rows are filled in slices
    of _GEOMETRY_CHUNK, which changes no bit of the result and keeps the
    temporaries to one slice.
    """
    n = len(mats)
    entries = _entries(mats)
    mids = np.empty(n, dtype=np.float64)
    widths = np.empty(n, dtype=np.float64)
    for lo in range(0, n, _GEOMETRY_CHUNK):
        hi = min(lo + _GEOMETRY_CHUNK, n)
        mids[lo:hi], widths[lo:hi] = _geometry(*(e[lo:hi] for e in entries))
    return mids, widths


# sliding_max_mass searches every _WINDOW_STRIDE-th start first
_WINDOW_STRIDE = 64


def sliding_max_mass(mids_sorted: np.ndarray,
                     atom_mass: Union[float, np.ndarray],
                     widths: Sequence[float]) -> list[float]:
    """Max captured mass of a width-u window, per width.

    atom_mass is one float for equal atoms, or one float per atom, in
    the order of mids_sorted. A window captures an atom when the atom's
    midpoint lies inside it; left edges at atom midpoints suffice for
    the max. With right(i) the number of midpoints <= mids[i] + u, the
    window from start i holds the atoms i to right(i) - 1, and right is
    nondecreasing in i. With C the cumulative mass (the atom count for
    equal atoms, else the float cumulative sum), start i captures
    C[right(i)] - C[i]. C is nondecreasing, as rounded addition of
    nonnegative floats is monotone, and so is rounded subtraction in
    each argument; so every start in [s, t) captures at most
    C[right(t)] - C[s], where t = s + _WINDOW_STRIDE (right(n) = n).
    The starts s are searched first; only the strides whose bound
    exceeds the best sampled mass are searched in full. The maximum is
    exact: equal to the largest C[right(i)] - C[i] over all i, and an
    atom count is multiplied by the equal atom_mass once. The widths are
    searched independently, on every core (pool.ordered_map).
    """
    n = len(mids_sorted)
    if np.ndim(atom_mass):
        csum = np.concatenate(([0.0], np.cumsum(atom_mass)))
        mass, scale = csum.__getitem__, 1.0
    else:
        mass, scale = (lambda idx: idx), atom_mass
    starts = np.arange(0, n, _WINDOW_STRIDE)
    offsets = np.arange(_WINDOW_STRIDE)

    def search(u) -> float:
        u = float(u)
        right = np.searchsorted(mids_sorted, mids_sorted[starts] + u,
                                side="right")
        best = (mass(right) - mass(starts)).max()
        cap = mass(np.append(right[1:], n)) - mass(starts)
        open_starts = starts[cap > best]
        if len(open_starts):
            idx = (open_starts[:, None] + offsets).reshape(-1)
            idx = idx[idx < n]
            right = np.searchsorted(mids_sorted, mids_sorted[idx] + u,
                                    side="right")
            best = max(best, (mass(right) - mass(idx)).max())
        return float(best) * scale

    return ordered_map(search, widths)


def frostman_scan(nu: NuMeasure, depth: int, widths: Sequence[float],
                  budget: int = DEFAULT_ENUM_BUDGET) -> FrostmanScan:
    """Ball-mass growth scan of the depth-level product pushforward.

    Every width must be a finite float above 0. The cylinder midpoints
    are streamed into one array, a chunk of _STREAM_CHUNK rows at a time
    on every core (pool.ordered_map); no convergent matrix stack is
    built. The cylinders are enumerated in ascending order along [0, 1]
    (_prefix_entries with ascending, whose tables reverse the block
    order at the levels where the prefix map is decreasing), so their
    exact midpoints ascend. Each chunk checks its own float midpoints
    with one vectorised >= on its worker, and the caller checks the
    seams between chunks. Only if a check fails, which can happen only
    once cylinder widths reach the float spacing (for the measure on
    the digits {2, 3}, first at depth 16), are the midpoints sorted in
    place. Each midpoint is cylinder_geometry's, bit for bit, as the
    integer entries are the same, so the multiset of floats is that of
    the C-order enumeration. A nondecreasing array is fixed by its
    multiset, so the array searched equals
    np.sort(cylinder_geometry(product_convergent_matrices(...))[0]) bit
    for bit, whichever way it was ordered.
    """
    if depth < 1:
        raise PreconditionViolated("depth must be >= 1")
    widths_f = tuple(float(u) for u in widths)
    if not all(math.isfinite(u) and u > 0 for u in widths_f):
        raise PreconditionViolated("widths must be finite floats above 0")
    prefix, base = _prefix_entries(nu, depth, budget, ascending=True)
    mids = np.empty(len(prefix[0]) * len(base[0]), dtype=np.float64)

    def fill(bound: tuple[int, int]) -> bool:
        lo, hi = bound
        chunk = mids[lo:hi]
        chunk[:] = _geometry(*_entry_rows(prefix, base, lo, hi),
                             widths=False)[0]
        return bool((chunk[1:] >= chunk[:-1]).all())

    bounds = _stream_bounds(len(mids))
    seams = np.array([lo for lo, _ in bounds[1:]], dtype=np.intp)
    if not (all(ordered_map(fill, bounds))
            and (mids[seams] >= mids[seams - 1]).all()):
        mids.sort()
    atom = 1.0 / float(len(nu.support)) ** depth
    omega = sliding_max_mass(mids, atom, widths_f)
    log_u = np.log(np.array(widths_f))
    log_o = np.log(np.array(omega))
    fitted = float(np.polyfit(log_u, log_o, 1)[0]) if len(widths_f) >= 2 else float("nan")
    return FrostmanScan(
        depth=depth, widths=widths_f, omega=tuple(omega), fitted_exponent=fitted
    )


def frostman_ceiling(nu: NuMeasure) -> tuple[float, float]:
    """(log s / (2 log q_max), log s / (2 mean log q)) over the support.

    s is the support size and q a support block's continuant. The
    cylinder of k copies of the largest-q block has mass s^-k and, as
    continuants are supermultiplicative, width at most q_max^-2k. So a
    window of that width holds mass at least width^c, c the first
    value, and no bound omega(u) <= C u^alpha valid at every scale has
    alpha above c. The second value is the same ratio at the mean
    log q: the exponent of a typical cylinder.
    """
    ln_s = ln_int(len(nu.support))
    ln_q = [ln_int(continuant(b)) for b in nu.support]
    return ln_s / (2 * max(ln_q)), ln_s / (2 * math.fsum(ln_q) / len(ln_q))
