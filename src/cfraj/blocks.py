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
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import (
    AtomTooHeavy,
    BudgetExceeded,
    EmptyWindow,
    NotInSupport,
    PreconditionViolated,
)
from .numeric import (cert_ln_ge, cert_ln_le, ipow, iroot_ceil,
                      iroot_floor, ln_fraction, ln_int)
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
        return self._atom

    def __post_init__(self):
        if not self.support:
            raise PreconditionViolated("support must not be empty")
        object.__setattr__(self, "_index", {b: i for i, b in enumerate(self.support)})
        object.__setattr__(self, "_atom", Fraction(1, len(self.support)))

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


def _window_bounds(sigma: float, eps: Fraction) -> tuple[Fraction, Fraction]:
    """(1 - eps) sigma and (1 + eps) sigma, sigma at its exact binary value."""
    s_frac = Fraction(sigma)
    return (1 - eps) * s_frac, (1 + eps) * s_frac


def _certify_in_window(k_val: int, sigma: float, eps: Fraction,
                       anchor: Optional[tuple[int, int]]) -> bool:
    """Exact decision of |ln K - sigma| <= eps * sigma.

    Anchored, each power is checked against the digit budget before it
    is formed (numeric.ipow): an eps with a large denominator, such as
    a float's 2^54, raises Overflow at once.
    """
    if anchor is not None:
        m, kk = anchor
        a, b = eps.numerator, eps.denominator
        # ln K >= (1 - a/b) ln(m)/kk   <=>   K^(kk b) >= m^(b - a)
        lhs = ipow(k_val, kk * b, "window test")
        return (ipow(m, b - a, "window test") <= lhs
                <= ipow(m, b + a, "window test"))
    lo, hi = _window_bounds(sigma, eps)
    return cert_ln_ge(k_val, lo) and cert_ln_le(k_val, hi)


_INT64_MAX = 2**63 - 1


def _last_true(pred, bound: Fraction) -> int:
    """Largest K in [0, 2^63 - 1] with pred(K), for pred true up to
    some K and false after, walked from the float guess exp(bound)."""
    k = min(int(math.exp(min(float(bound), 44.0))), _INT64_MAX)
    while k and not pred(k):
        k -= 1
    while k < _INT64_MAX and pred(k + 1):
        k += 1
    return k


def _window_ends(sigma: float, eps: Fraction,
                 anchor: Optional[tuple[int, int]]) -> tuple[int, int]:
    """(K_lo, K_hi) in int64: 1 <= K < 2^63 is in the window exactly
    when K_lo <= K <= K_hi.

    Anchored at ln(m)/k with eps = a/b, the window is m^(b - a) <=
    K^(k b) <= m^(b + a) (_certify_in_window), so the ends are integer
    roots; either power past the digit budget raises Overflow before it
    is formed (numeric.ipow). Otherwise ln K >= lo and ln K <= hi are
    monotone in K: certified comparisons near exp(lo) and exp(hi) find
    the ends.
    """
    if anchor is not None:
        m, k = anchor
        a, b = eps.numerator, eps.denominator
        k_lo = iroot_ceil(ipow(m, b - a, "window end"), k * b)
        k_hi = iroot_floor(ipow(m, b + a, "window end"), k * b)
    else:
        lo, hi = _window_bounds(sigma, eps)
        k_lo = _last_true(lambda n: not cert_ln_ge(n, lo), lo) + 1
        k_hi = _last_true(lambda n: cert_ln_le(n, hi), hi)
    k_hi = min(k_hi, _INT64_MAX)
    return (k_lo, k_hi) if k_lo <= k_hi else (1, 0)


def _anchored_sigma(anchor: tuple[int, int]) -> float:
    """sigma = log(m) / k of the anchor (m, k), once m >= 1 and k >= 1."""
    m, k = anchor
    if m < 1 or k < 1:
        raise PreconditionViolated(
            f"sigma anchor log({m})/{k} needs m >= 1 and k >= 1")
    return math.log(m) / k


def _continuant_grids(n_bound: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Arrays of shape (N,)*p holding K and K-minus-last for all tuples.

    K-minus-last is K of the first p - 1 entries, which does not depend
    on the last one: a read-only broadcast view of the grid before, with
    no copy.
    """
    digits = np.arange(1, n_bound + 1, dtype=np.int64)
    q = digits.copy()
    qp = np.ones(n_bound, dtype=np.int64)
    for _ in range(p - 1):
        d = digits.reshape((1,) * q.ndim + (-1,))
        q_new = d * q[..., None] + qp[..., None]
        qp = np.broadcast_to(q[..., None], q_new.shape)
        q = q_new
    return q, qp


def build_nu(n_bound: int, p: int, sigma: Optional[float], eps_window,
             *, sigma_anchor: Optional[tuple[int, int]] = None,
             budget: int = DEFAULT_ENUM_BUDGET) -> NuMeasure:
    """Uniform measure on the p-tuples inside the continuant window.

    sigma_anchor = (m, k) pins sigma = log(m)/k symbolically, making the
    window test a pure integer comparison. Without an anchor the float
    sigma is taken at its exact binary value and certified by interval
    arithmetic. Either way the window is an integer range of continuants
    (_window_ends), found once, and the support is every tuple whose
    continuant lies in it.
    """
    eps = Fraction(eps_window)
    if n_bound < 2 or p < 1:
        raise PreconditionViolated("need N >= 2 and p >= 1")
    if not (0 < eps < 1):
        raise PreconditionViolated("eps_window must be in (0, 1)")
    if sigma_anchor is not None:
        sigma = _anchored_sigma(sigma_anchor)
    if sigma is None or sigma <= 0:
        raise PreconditionViolated("sigma must be positive")
    if n_bound**p > budget:
        raise BudgetExceeded(
            f"N^p = {n_bound}^{p} exceeds the enumeration budget {budget}"
        )

    k_lo, k_hi = _window_ends(sigma, eps, sigma_anchor)
    k_grid = _continuant_grids(n_bound, p)[0]
    # argwhere lists the tuples in C order, which is lexicographic
    support = [tuple(t) for t in
               (np.argwhere((k_grid >= k_lo) & (k_grid <= k_hi)) + 1).tolist()]
    if not support:
        raise EmptyWindow(
            f"no {p}-tuple over [1,{n_bound}] has log-continuant within "
            f"{float(eps):.4g} of {sigma:.6g}"
        )
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

    The tuples are ordered by K, ties in flat (C-order) index, with one
    sort of the int64 keys (K << bits) | index, bits the width of the
    largest index. The keys are distinct and order the pairs (K, index)
    lexicographically, so the sorted keys give the permutation of a
    stable argsort of K as floats, whatever sort numpy runs: the float
    conversion is exact, as K < 2^53. K(a_1..a_p) <= (N + 1)^p, so the
    keys fit when bits + bit_length((N + 1)^p) <= 63; BudgetExceeded is
    raised before enumerating otherwise. Under the default budget the
    widest case, N = 2 and p = 23, needs 60 bits. The weights are the
    same floats, gathered in the same order, so the cumulative sum and
    its search are unchanged.
    """
    n = n_bound**p
    if n > budget:
        raise BudgetExceeded("enumeration budget exceeded")
    bits = (n - 1).bit_length()
    if bits + ((n_bound + 1)**p).bit_length() > 63:
        raise BudgetExceeded(
            f"sort keys of {n_bound}^{p} continuants exceed 63 bits")
    if weighting not in ("lebesgue", "uniform"):
        raise PreconditionViolated(f"unknown weighting {weighting!r}")
    k_grid, kp_grid = _continuant_grids(n_bound, p)
    keys = k_grid.reshape(-1)
    w = np.empty(n, dtype=np.float64)
    np.copyto(w.reshape(k_grid.shape), kp_grid)
    del kp_grid
    if weighting == "lebesgue":
        # 1 / (k (k + k')) with the same roundings, in place
        k = keys.astype(np.float64)
        w += k
        w *= k
        del k
        np.divide(1.0, w, out=w)
    else:
        w[:] = 1.0
    keys <<= bits
    keys |= np.arange(n, dtype=np.int64)
    keys.sort()
    cum = w[keys & ((1 << bits) - 1)]
    del w
    np.cumsum(cum, out=cum)
    pos = int(np.searchsorted(cum, cum[-1] / 2.0))
    k_med = int(keys[min(pos, n - 1)] >> bits)
    return math.log(k_med), (k_med, 1)


@dataclass(frozen=True)
class TopHalfSplit:
    level: int
    count: int
    mass: Fraction
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


def top_half_split(nu: NuMeasure, j: int) -> TopHalfSplit:
    """Deterministic near-half subset of the j-fold product support.

    Equal atoms collapse the greedy scan to a closed-form count
    ceil((s^j - 1)/2), evaluated in exact big-integer arithmetic, so
    the split is available at levels where s^j is astronomically large.
    """
    if j < 1:
        raise PreconditionViolated("level must be >= 1")
    s = len(nu.support)
    if s == 1:
        raise AtomTooHeavy("single-atom measure: product atom is 1 > 1/2")
    total = s**j
    count = (total - 1) // 2 + (1 if (total - 1) % 2 else 0)
    mass = Fraction(count, total)
    return TopHalfSplit(level=j, count=count, mass=mass, support_size=s)


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


def _stream_bounds(n: int, first: int = 0) -> list[tuple[int, int]]:
    """(lo, hi) of consecutive chunks of _STREAM_CHUNK rows, from row
    first up to row n."""
    return [(lo, min(lo + _STREAM_CHUNK, n))
            for lo in range(first, n, _STREAM_CHUNK)]


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


def _coefficients(base: tuple) -> tuple[list, list, list]:
    """(u, v, w) of every block [[a, b], [c, d]] of base, as Python
    ints: u = 2 a (a + b), v = 2 a c + a d + b c, w = 2 c (c + d)."""
    a, b, c, d = (e.tolist() for e in base)
    return ([2 * x * (x + y) for x, y in zip(a, b)],
            [2 * x * z + x * t + y * z for x, y, z, t in zip(a, b, c, d)],
            [2 * z * (z + t) for z, t in zip(c, d)])


def _den_bound(prefix: tuple, coefficients: tuple) -> int:
    """Q^2 max u + 2 Q Q' max v + Q'^2 max w, in Python ints, with Q and
    Q' the largest prefix entries q and q' and u, v, w the blocks'
    _coefficients: at least the denominator 2 q (q + q') of every
    depth-level row (see _leaf_geometry)."""
    q, qp = (int(e.max()) for e in prefix[:2])
    u, v, w = (max(c) for c in coefficients)
    return q * q * u + 2 * q * qp * v + qp * qp * w


class _LeafGeometry:
    """The float midpoints and widths of _prefix_entries' depth-level
    rows: rows(lo, hi, out, widths) for a range of rows, at(idx) for any
    rows, each row equal to _geometry(*_entry_rows(prefix, base, ...))
    bit for bit.

    Row a * s + b is the prefix [[Q, Q'], [P, P']] times the block
    [[a, b], [c, d]]. With the block's coefficients u, v, w
    (_coefficients), _geometry's numerator and denominator are two
    bilinear forms in prefix features and block coefficients:

        num = (P Q) u + (P Q' + P' Q) v + (P' Q') w,
        den = 2 q (q + q') = Q^2 u + (2 Q Q') v + Q'^2 w,

    so the rows of a range come from two (k, 3) x (3, s) products, k the
    prefixes the range spans, whose features are formed from the prefix
    slice; then mid = num / den and width = 2 / den. The products are
    formed by np.einsum, which calls no BLAS: a BLAS matmul is faster
    here, but its first call touches buffers that stay in the process's
    memory. at gathers each row's prefix features and block
    coefficients and forms the same integers row by row.

    Every feature, coefficient and term is a nonnegative integer;
    u, v, w >= 1, as a block's a and c are at least 1; and num <= den,
    as every midpoint lies in [0, 1]. So when _den_bound, computed once
    here, is below 2^53, every feature, product and partial sum is an
    exact float, in any summation order, with or without FMA, and so
    are _geometry's integers: both divide the same two integers, each
    rounding once, and 2 / den = 1 / (q (q + q')) exactly. Otherwise
    both evaluate _geometry on the rows' convergent entries, which are
    the same int64 integers however they are formed.
    """

    def __init__(self, prefix: tuple, base: tuple):
        self.prefix, self.base = prefix, base
        self.s = len(base[0])
        coefficients = _coefficients(base)
        self.exact = _den_bound(prefix, coefficients) < 2**53
        self.coefficients = np.array(coefficients, dtype=np.float64)

    def __call__(self, lo: int, hi: int, out: Optional[np.ndarray] = None,
                 widths: bool = True) -> Optional[np.ndarray]:
        """Writes the midpoints of rows lo to hi to out, unless out is
        None, and returns their widths, or None without widths. Without
        out, only the denominators are formed (within 2^53)."""
        if not self.exact:
            mids, found = _geometry(*_entry_rows(self.prefix, self.base,
                                                 lo, hi), widths)
            if out is not None:
                out[:] = mids
            return found
        s = self.s
        first, last = lo // s, -(-hi // s)
        cut = slice(lo - first * s, hi - first * s)
        q, qp = (e[first:last].astype(np.float64) for e in self.prefix[:2])
        den = self._products(cut, q * q, 2 * q * qp, qp * qp)
        if out is not None:
            pn, pp = (e[first:last].astype(np.float64)
                      for e in self.prefix[2:])
            np.divide(self._products(cut, pn * q, pn * qp + pp * q, pp * qp),
                      den, out=out)
        return np.divide(2.0, den) if widths else None

    def _products(self, cut: slice, *features: np.ndarray) -> np.ndarray:
        """The (k, 3) x (3, s) product of the prefixes' three features
        and the blocks' coefficients, flattened in row order and cut."""
        return np.einsum("ai,ib->ab", np.stack(features, axis=1),
                         self.coefficients).reshape(-1)[cut]

    def at(self, idx: np.ndarray) -> np.ndarray:
        """The midpoints of the rows idx, an int array."""
        a, b = np.divmod(idx, self.s)
        if not self.exact:
            return _geometry(*_product(tuple(e[a] for e in self.prefix),
                                       tuple(e[b] for e in self.base)),
                             widths=False)[0]
        u, v, w = self.coefficients[:, b]
        q, qp, pn, pp = (e[a].astype(np.float64) for e in self.prefix)
        num = (pn * q) * u + (pn * qp + pp * q) * v + (pp * qp) * w
        return num / ((q * q) * u + (2 * q * qp) * v + (qp * qp) * w)


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


# chunks of _STREAM_CHUNK rows in one batch of a streamed Frostman scan
_BATCH_CHUNKS = 4


def _stride_refinement(rows: _LeafGeometry, n: int, u: float,
                       right: np.ndarray, open_strides: np.ndarray) -> int:
    """max of right(i) - i over the rows i of the open strides, where
    right(i) counts the ascending midpoints M[j] <= M[i] + u and right[k]
    is right(k * _WINDOW_STRIDE).

    As M[i] + u is nondecreasing in i, right(i) for i in stride k lies
    between right[k] and the next stride start's count (n after the
    last stride): every row below right[k] is <= M[i] + u, and every row
    from the next count on is above it. Each right(i) is bisected in
    that range, M[j] <= M[i] + u sending it above j and M[j] > M[i] + u
    to at most j, every query of a group of open strides (at most
    _STREAM_CHUNK rows) at once, each step forming the midpoints it
    tests by row index (rows.at).
    """
    ends = np.append(right[1:], n)
    group = max(1, _STREAM_CHUNK // _WINDOW_STRIDE)
    best = 0
    for g in range(0, len(open_strides), group):
        ks = open_strides[g:g + group]
        first = ks * _WINDOW_STRIDE
        lengths = np.minimum(first + _WINDOW_STRIDE, n) - first
        idx = np.repeat(first - (np.cumsum(lengths) - lengths),
                        lengths) + np.arange(lengths.sum())
        queries = rows.at(idx) + u
        lo, hi = np.repeat(right[ks], lengths), np.repeat(ends[ks], lengths)
        live = np.flatnonzero(lo < hi)
        while len(live):
            mid = lo[live] + (hi[live] - lo[live]) // 2
            below = rows.at(mid) <= queries[live]
            lo[live[below]] = mid[below] + 1
            hi[live[~below]] = mid[~below]
            live = live[lo[live] < hi[live]]
        best = max(best, int((lo - idx).max()))
    return best


def _fill_ascending(rows: _LeafGeometry, lo: int, out: np.ndarray,
                    apply: Callable) -> bool:
    """Writes the midpoints of rows lo to lo + len(out) to out, a chunk
    of _STREAM_CHUNK rows at a time, and tells whether they are
    nondecreasing: each chunk checks its own rows with one vectorised >=,
    and the caller the seams between chunks. The chunks go through
    apply: pool.ordered_map forms them on every core, and map in turn
    on the calling thread, stopping at the first chunk that descends."""
    bounds = _stream_bounds(lo + len(out), lo)

    def fill(bound: tuple[int, int]) -> bool:
        chunk = out[bound[0] - lo:bound[1] - lo]
        rows(*bound, chunk, widths=False)
        return bool((chunk[1:] >= chunk[:-1]).all())

    seams = np.array([a - lo for a, _ in bounds[1:]], dtype=np.intp)
    return all(apply(fill, bounds)) and bool(
        (out[seams] >= out[seams - 1]).all())


def _streamed_max_mass(rows: _LeafGeometry, n: int, atom: float,
                       widths: Sequence[float]) -> Optional[list[float]]:
    """sliding_max_mass(M, atom, widths) of the midpoints M that rows
    forms in row order, streamed in batches of _BATCH_CHUNKS chunks, each
    batch on any core (pool.ordered_map); None, and no result, if M
    descends anywhere, within a batch or across the seam of two.

    With right(i) the count of midpoints <= M[i] + u, each width keeps
    right(k * _WINDOW_STRIDE) for every stride start. The stride starts'
    midpoints (the heads) and each batch's last midpoint are formed
    first, by row index (rows.at), bit for bit the rows the batches
    form. At width u the query of start k is heads[k] + u, and batch b
    settles the queries k in [cut[b - 1], cut[b]), where cut[b] counts
    the queries below batch b's last midpoint (np.searchsorted) and
    cut[-1] = 0. Each batch fills its rows, a chunk at a time on its
    own thread (_fill_ascending with map: no map inside a map), checks
    that they ascend and that its first is at least the last midpoint
    of the batch before, and writes, per width, the counts of the
    queries it settles into their slice of right: its first row index
    plus each query's position in the batch. The batches' slices are
    disjoint, so they need no lock.

    If M never descends, the heads and queries ascend, and each count is
    right(start): every row before batch b is at most batch b - 1's last
    midpoint, which is at most a query it settles, and every row after
    it is at least its own last midpoint, which is above the query. The
    queries left from the last cut on, at least the last midpoint, count
    n. These are the counts sliding_max_mass takes by searchsorted over
    all of M at the stride starts. The caps and open strides follow as
    there, and _stride_refinement finds the best start in each open
    stride (the widths on any core); so the maximum is the same integer,
    multiplied by atom once. If M descends, the cuts may fall in any
    order: a slice whose end is below its start is empty, and a batch
    that starts after one has found the descent is skipped.
    """
    k_all = -(-n // _WINDOW_STRIDE)
    heads = np.empty(k_all, dtype=np.float64)
    # _STREAM_CHUNK heads at a time, which bounds rows.at's temporaries
    for lo, hi in _stream_bounds(k_all):
        heads[lo:hi] = rows.at(np.arange(lo, hi) * _WINDOW_STRIDE)
    step = _STREAM_CHUNK * _BATCH_CHUNKS
    batches = [(lo, min(lo + step, n)) for lo in range(0, n, step)]
    lasts = rows.at(np.array([hi - 1 for _, hi in batches]))
    cuts = [np.concatenate(([0], np.searchsorted(heads + u, lasts)))
            for u in widths]
    # counts up to n, in 4 bytes each while n fits
    count = np.int32 if n < 2**31 else np.int64
    right = [np.full(k_all, n, dtype=count) for _ in widths]
    descended = []

    def settle(b: int) -> None:
        if descended:
            return
        lo, hi = batches[b]
        batch = np.empty(hi - lo, dtype=np.float64)
        if not (_fill_ascending(rows, lo, batch, map)
                and (b == 0 or batch[0] >= lasts[b - 1])):
            descended.append(b)
            return
        for j, u in enumerate(widths):
            k0, k1 = cuts[j][b:b + 2]
            right[j][k0:k1] = lo + np.searchsorted(batch, heads[k0:k1] + u,
                                                   side="right")

    ordered_map(settle, range(len(batches)))
    if descended:
        return None

    def best_mass(j: int) -> float:
        starts = np.arange(0, n, _WINDOW_STRIDE, dtype=count)
        gain = right[j] - starts
        best = int(gain.max())
        # the caps, in place: the next start's count minus the start
        np.subtract(right[j][1:], starts[:-1], out=gain[:-1])
        gain[-1] = n - starts[-1]
        open_strides = np.flatnonzero(gain > best)
        if len(open_strides):
            best = max(best, _stride_refinement(rows, n, widths[j], right[j],
                                                open_strides))
        return float(best) * atom

    return ordered_map(best_mass, range(len(widths)))


def frostman_scan(nu: NuMeasure, depth: int, widths: Sequence[float],
                  budget: int = DEFAULT_ENUM_BUDGET) -> FrostmanScan:
    """Ball-mass growth scan of the depth-level product pushforward.

    Every width must be a finite float above 0. The cylinders are
    enumerated in ascending order along [0, 1] (_prefix_entries with
    ascending, whose tables reverse the block order at the levels where
    the prefix map is decreasing), so their exact midpoints ascend. Their
    float midpoints come from _LeafGeometry's bilinear forms, a chunk of
    _STREAM_CHUNK rows at a time: two (k, 3) x (3, s) products of
    prefix features and block coefficients, exact integers in floats
    while _den_bound is below 2^53 (checked once), and _geometry of the
    convergent entries past it. More cylinders than one batch
    (_BATCH_CHUNKS chunks) are streamed through the search
    (_streamed_max_mass), a batch on each core, which holds no array of
    one float per cylinder: per width, one count per _WINDOW_STRIDE-th
    cylinder, and one batch per core. At most one batch of cylinders is
    held in one array, its chunks formed on every core, and searched
    (sliding_max_mass).

    Each midpoint is cylinder_geometry's, bit for bit, as the integers
    divided are the same, so the multiset of floats is that of the
    C-order enumeration, and a nondecreasing array is fixed by its
    multiset: a stream that never descends is
    np.sort(cylinder_geometry(product_convergent_matrices(...))[0]) bit
    for bit, and either search returns sliding_max_mass of it. Only if
    the stream descends, which can happen only once cylinder widths
    reach the float spacing (for the measure on the digits {2, 3}, first
    at depth 16), are the midpoints held in one array whatever their
    number, sorted in place and searched; the sorted array is the same.
    """
    if depth < 1:
        raise PreconditionViolated("depth must be >= 1")
    widths_f = tuple(float(u) for u in widths)
    if not all(math.isfinite(u) and u > 0 for u in widths_f):
        raise PreconditionViolated("widths must be finite floats above 0")
    prefix, base = _prefix_entries(nu, depth, budget, ascending=True)
    rows = _LeafGeometry(prefix, base)
    n = len(prefix[0]) * len(base[0])
    atom = 1.0 / float(len(nu.support)) ** depth
    omega = None
    if n > _STREAM_CHUNK * _BATCH_CHUNKS:
        omega = _streamed_max_mass(rows, n, atom, widths_f)
    if omega is None:
        mids = np.empty(n, dtype=np.float64)
        if not _fill_ascending(rows, 0, mids, ordered_map):
            mids.sort()
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
