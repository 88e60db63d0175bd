"""The branching mass distribution over digit paths.

Paths consume support blocks of the driving measure. Stage labels form
a binary tree: every path starts with label 1; a path carrying label n
is tested when it reaches block index i_n, refining the label to 2n
(its typical segment since the parent's run ranks in the top half) or
2n+1, after which a forced run of r_n blocks is inserted whose digits
are each the minimum admissible digit for the word so far. Labels with
no scheduled stage are carried unchanged to the horizon.

All masses are exact rationals: a typical block multiplies the cylinder
mass by the uniform atom, a forced block passes the parent mass through
untouched (off-run blocks get zero).
"""

from __future__ import annotations

import math
import random
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .blocks import Block, NuMeasure, TopHalfSplit, top_half_split
from .errors import (
    BudgetExceeded,
    DepthExceeded,
    OutOfRange,
    PreconditionViolated,
)
from .numeric import guard_int, ln_fraction, ln_int
from .profiles import Profile, get_profile
from .rules import AssignmentRule, rho_value
from .schedule import Schedule, weight

ALPHA_DEFAULT = Fraction(50, 358)


@dataclass(frozen=True)
class LambdaMeasure:
    """Immutable built measure: driving nu, schedule, and stage splits."""

    nu: NuMeasure
    schedule: Schedule
    horizon: int

    def __post_init__(self):
        if self.schedule.p != self.nu.p:
            raise PreconditionViolated("schedule and measure disagree on p")
        if self.schedule.sigma != self.nu.sigma:
            raise PreconditionViolated("schedule and measure disagree on sigma")
        if self.horizon < 1:
            raise PreconditionViolated("horizon must be >= 1")
        if len(self.nu.support) < 2:
            raise PreconditionViolated("need at least two support atoms to split")
        seg, splits = {}, {}
        for n in range(1, self.schedule.depth + 1):
            if n == 1:
                g = self.schedule.i[0]
            else:
                parent = n // 2
                g = self.schedule.i[n - 1] - (
                    self.schedule.i[parent - 1] + self.schedule.r[parent - 1]
                )
            seg[n] = g
            splits[n] = top_half_split(self.nu, g)
        object.__setattr__(self, "_segments", seg)
        object.__setattr__(self, "_splits", splits)

    @property
    def rule(self) -> AssignmentRule:
        return self.schedule.rule

    def segment_length(self, n: int) -> int:
        """Typical blocks accumulated by a label-n path before stage n."""
        g = self._segments.get(n)
        if g is None:
            raise DepthExceeded(f"no stage {n} in a depth-{self.schedule.depth} schedule")
        return g

    def stage_split(self, n: int) -> TopHalfSplit:
        s = self._splits.get(n)
        if s is None:
            raise DepthExceeded(f"no stage {n} in a depth-{self.schedule.depth} schedule")
        return s

    def stage_fraction(self, n: int) -> Fraction:
        """t_n: the top-half mass governing the 2n / 2n+1 refinement."""
        return self.stage_split(n).mass

    def config_doc(self) -> dict:
        return {
            "nu": self.nu.to_json_doc(),
            "schedule": self.schedule.to_json_doc(),
            "rule": self.rule.to_json(),
            "profile": self.schedule.profile,
            "horizon": self.horizon,
        }


def build_lambda(nu: NuMeasure, schedule: Schedule, horizon: int) -> LambdaMeasure:
    return LambdaMeasure(nu=nu, schedule=schedule, horizon=horizon)


@dataclass(frozen=True)
class PathState:
    """Walker verdict for a block prefix."""

    valid: bool
    mass: Fraction
    chain: tuple[int, ...]
    label: int
    typical_count: int
    q: int
    q_prev: int
    digit_sum: int

    def in_stage_set(self, lm: LambdaMeasure, n: int, length: int) -> bool:
        """Did the length-i_n truncation carry label n?"""
        if not 1 <= n <= lm.schedule.depth:
            return False
        return n in self.chain and length >= lm.schedule.i[n - 1]


def classify(lm: LambdaMeasure, blocks: Sequence[Block]) -> PathState:
    """Single deterministic walk: label chain, exact mass, continuants.

    Invalid prefixes (off-support typical block, or a forced position
    not matching the forced digit) come back with mass 0 and the chain
    accumulated so far.
    """
    if len(blocks) > lm.horizon:
        raise DepthExceeded(f"prefix length {len(blocks)} beyond horizon {lm.horizon}")
    nu, sch = lm.nu, lm.schedule
    p, depth = sch.p, sch.depth
    s = len(nu.support)
    atom = nu.atom
    index_of = nu._index.get

    label, chain = 1, [1]
    seg_rank = 0
    typical = 0
    q, qp = 1, 0
    dsum = 0

    def dead(cur_label):
        return PathState(False, Fraction(0), tuple(chain), cur_label,
                         typical, q, qp, dsum)

    b = 0
    while b < len(blocks):
        if label <= depth and b == sch.i[label - 1]:
            split = lm.stage_split(label)
            child = 2 * label + (0 if seg_rank < split.count else 1)
            chain.append(child)
            run_end = b + sch.r[label - 1]
            label = child
            while b < run_end and b < len(blocks):
                blk = tuple(blocks[b])
                for j in range(p):
                    d = rho_value(lm.rule, q, dsum)
                    if blk[j] != d:
                        return dead(label)
                    q, qp = d * q + qp, q
                    dsum += d
                guard_int(q, "forced-run continuant")
                b += 1
            if b < run_end:
                break
            seg_rank = 0
            continue
        blk = tuple(blocks[b])
        idx = index_of(blk)
        if idx is None:
            return dead(label)
        seg_rank = seg_rank * s + idx
        typical += 1
        for d in blk:
            q, qp = d * q + qp, q
            dsum += d
        b += 1
    return PathState(True, atom**typical, tuple(chain), label, typical,
                     q, qp, dsum)


def cylinder_mass(lm: LambdaMeasure, prefix: Sequence[Block]) -> Fraction:
    """Exact mass of the cylinder of paths extending the prefix."""
    return classify(lm, prefix).mass


def xn_mass(lm: LambdaMeasure, n: int) -> Fraction:
    """Exact mass of the set of paths whose label chain passes through n.

    Recursion down n's ancestor line: each left turn multiplies by the
    stage fraction t, each right turn by 1 - t. Defined for labels whose
    parent has a scheduled stage, i.e. n <= 2 * depth + 1.
    """
    depth = lm.schedule.depth
    if n < 1:
        raise PreconditionViolated("labels start at 1")
    if n > 2 * depth + 1:
        raise DepthExceeded(f"label {n} needs a stage beyond depth {depth}")
    mass = Fraction(1)
    a = 1
    for bit in bin(n)[3:]:
        t = lm.stage_fraction(a)
        mass *= t if bit == "0" else 1 - t
        a = 2 * a + (1 if bit == "1" else 0)
    return mass


def sample_path(lm: LambdaMeasure, depth: int, seed: int) -> list[Block]:
    """Draw one path to the given block depth; deterministic in the seed.

    Typical block indices are exactly the values
    random.Random(seed).randrange(len(lm.nu.support)) returns, one per
    typical block in path order; forced blocks draw nothing.
    """
    stream = _IndexStream(random.Random(seed), len(lm.nu.support), depth)
    return _sample_with_chain(lm, depth, stream)[0]


# the most 32-bit words one refill of an _IndexStream draws (64 KiB)
_STREAM_CHUNK = 1 << 14


class _IndexStream:
    """The values rng.randrange(s) would return, drawn in bulk.

    randrange(s) takes getrandbits(k), k = s.bit_length(), and draws again
    while the result is >= s. For k <= 32, getrandbits(k) is the top k bits
    of the generator's next 32-bit word, and getrandbits(32 m) is the next
    m words with the first in the least significant place. So the words of
    one bulk draw, shifted right by 32 - k and filtered to those below s,
    are the draws randrange would accept, in the same order.

    The stream reads ahead of what it hands out, so its owner must make no
    other use of rng. blocks bounds the indices the owner will take; each
    refill draws the words expected to cover the rest, at most
    _STREAM_CHUNK.
    """

    def __init__(self, rng: random.Random, s: int, blocks: int):
        if s >= 2**32:
            raise PreconditionViolated(f"{s} atoms exceed a 32-bit draw")
        self._rng, self._s, self._k = rng, s, s.bit_length()
        self._left = blocks
        self._buf: list[int] = []
        self._pos = 0

    def take(self, n: int) -> list[int]:
        """The next n indices."""
        while len(self._buf) - self._pos < n:
            self._refill(n)
        out = self._buf[self._pos:self._pos + n]
        self._pos += n
        self._left -= n
        return out

    def _refill(self, n: int) -> None:
        want = max(self._left, n) - (len(self._buf) - self._pos)
        m = min(_STREAM_CHUNK, -(-(want << self._k) // self._s))
        # sys.byteorder with native uint32 reads word i at bytes 4i..4i+3
        # on either byte order
        raw = self._rng.getrandbits(32 * m).to_bytes(4 * m, sys.byteorder)
        words = np.frombuffer(raw, dtype=np.uint32) >> (32 - self._k)
        self._buf = (self._buf[self._pos:]
                     + words[words < self._s].tolist())
        self._pos = 0


def _sample_with_chain(lm: LambdaMeasure, depth: int, stream: _IndexStream
                       ) -> tuple[list[Block], tuple[int, ...],
                                  int, int, int, int]:
    """Sampling core shared with the Monte Carlo estimators.

    Returns the blocks, the label chain and the path's convergent columns
    pn, pp, q, qp. Each typical segment takes its block indices from the
    stream in one call.
    """
    if depth > lm.horizon:
        raise DepthExceeded(f"depth {depth} beyond horizon {lm.horizon}")
    nu, sch = lm.nu, lm.schedule
    p, sdepth = sch.p, sch.depth
    support = nu.support
    s = len(support)

    out: list[Block] = []
    label, chain = 1, [1]
    seg_rank = 0
    q, qp, pn, pp = 1, 0, 0, 1
    dsum = 0
    b = 0
    while b < depth:
        stage = sch.i[label - 1] if label <= sdepth else None
        if b == stage:
            split = lm.stage_split(label)
            child = 2 * label + (0 if seg_rank < split.count else 1)
            chain.append(child)
            run_end = b + sch.r[label - 1]
            label = child
            while b < run_end and b < depth:
                digits = []
                for _ in range(p):
                    d = rho_value(lm.rule, q, dsum)
                    digits.append(d)
                    q, qp = d * q + qp, q
                    pn, pp = d * pn + pp, pn
                    dsum += d
                guard_int(q, "forced-run continuant")
                out.append(tuple(digits))
                b += 1
            if b < run_end:
                break
            seg_rank = 0
            continue
        stop = depth if stage is None else min(stage, depth)
        idxs = stream.take(stop - b)
        for idx in idxs:
            blk = support[idx]
            out.append(blk)
            for d in blk:
                q, qp = d * q + qp, q
                pn, pp = d * pn + pp, pn
                dsum += d
        if stop == stage:
            # the segment's rank settles the next stage's split
            for idx in idxs:
                seg_rank = seg_rank * s + idx
        b = stop
    return out, tuple(chain), pn, pp, q, qp


def scale_index(lm: LambdaMeasure, xi, alpha=ALPHA_DEFAULT) -> tuple[int, int]:
    """(i, n): i = floor(alpha log xi / sigma), n with i in [i_n, i_{n+1}).

    Values of i below i_1 clamp to the first stage; i past the horizon
    is out of range.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise PreconditionViolated("alpha must be positive")
    if isinstance(xi, (int, Fraction)):
        if xi <= 1:
            raise PreconditionViolated("xi must exceed 1")
        ln_xi = ln_fraction(Fraction(xi))
    else:
        if not xi > 1:
            raise PreconditionViolated("xi must exceed 1")
        ln_xi = math.log(xi)
    i_val = math.floor(float(alpha) * ln_xi / lm.schedule.sigma)
    if i_val > lm.horizon:
        raise OutOfRange(f"scale index {i_val} beyond horizon {lm.horizon}")
    n = max(bisect_right(lm.schedule.i, i_val), 1)
    return i_val, n


@dataclass(frozen=True)
class TypExcSplit:
    """Exceptional-label set near a scale, with its exact total mass."""

    n_index: int
    i_value: int
    exc_labels: frozenset[int]
    exc_mass: Fraction
    typ_mass: Fraction

    def is_exceptional(self, chain: Sequence[int]) -> bool:
        return bool(self.exc_labels.intersection(chain))


def _drop_dominated(labels: set[int]) -> set[int]:
    """Remove labels having a strict ancestor in the set (their paths
    are already counted by the ancestor)."""
    keep = set()
    for m in labels:
        a = m >> 1
        while a >= 1 and a not in labels:
            a >>= 1
        if a < 1:
            keep.add(m)
    return keep


def split_typ_exc(lm: LambdaMeasure, xi, alpha=ALPHA_DEFAULT) -> TypExcSplit:
    """Cut the measure at the scale of xi: labels n-1, n, n+1 are
    exceptional; everything else is the typical remainder."""
    i_val, n = scale_index(lm, xi, alpha)
    raw = {m for m in (n - 1, n, n + 1) if m >= 1}
    labels = _drop_dominated(raw)
    exc = sum((xn_mass(lm, m) for m in labels), Fraction(0))
    return TypExcSplit(
        n_index=n,
        i_value=i_val,
        exc_labels=frozenset(labels),
        exc_mass=exc,
        typ_mass=1 - exc,
    )


@dataclass(frozen=True)
class Lemma2Report:
    ok: bool
    window_margin: float
    mass_margin: float
    i_value: int
    n_index: int
    chain: tuple[int, ...]

    def __bool__(self) -> bool:
        return self.ok


def lemma2_check(lm: LambdaMeasure, prefix: Sequence[Block],
                 profile="desk", *, beta_prime: Optional[Fraction] = None) -> Lemma2Report:
    """Window and mass-decay margins for a typical prefix.

    The prefix must avoid the stage sets of the two labels at its own
    scale (n - 1 and n, where len(prefix) lands in [i_n, i_{n+1})); the
    check then asserts |log q - i sigma| <= eps i sigma and
    log mass <= -beta' i sigma with profile constants.
    """
    state = classify(lm, prefix)
    if not state.valid or state.mass == 0:
        raise PreconditionViolated("prefix carries no mass")
    length = len(prefix)
    sigma = lm.schedule.sigma
    n = max(bisect_right(lm.schedule.i, length), 1)
    for m in (n - 1, n):
        if m >= 1 and state.in_stage_set(lm, m, length):
            raise PreconditionViolated(
                f"prefix lies in the stage-{m} exceptional set"
            )
    prof = profile if isinstance(profile, Profile) else get_profile(
        profile, beta_prime=beta_prime
    )
    target = length * sigma
    window_margin = float(prof.lemma_eps) * target - abs(ln_int(state.q) - target)
    mass_margin = -float(prof.lemma_beta) * target - ln_fraction(state.mass)
    return Lemma2Report(
        ok=window_margin >= 0 and mass_margin >= 0,
        window_margin=window_margin,
        mass_margin=mass_margin,
        i_value=length,
        n_index=n,
        chain=state.chain,
    )


def max_phi_over_stage(nu: NuMeasure, sch: Schedule, rule: AssignmentRule,
                       n: int, budget: int = 10**6) -> int:
    """Exhaustive max of the post-run continuant over stage-n prefixes.

    Walks every path whose labels stay on n's ancestor line up to block
    i_n, then appends the p * r_n forced digits and takes the largest
    resulting continuant. Only viable at toy sizes; guarded by a node
    budget.
    """
    if not 1 <= n <= sch.depth:
        raise PreconditionViolated(f"stage {n} outside schedule depth {sch.depth}")
    ancestors = {n >> k for k in range(n.bit_length())}
    s = len(nu.support)
    p = sch.p
    i_n = sch.i[n - 1]
    run_blocks = sum(sch.r[m - 1] for m in ancestors if m != n)
    typ = i_n - run_blocks
    if typ < 0 or s**typ > budget:
        raise BudgetExceeded(f"{s}^{typ} stage-{n} paths exceed budget {budget}")

    lm = LambdaMeasure(nu=nu, schedule=sch, horizon=max(i_n + sch.r[n - 1], 1))
    best = 0

    def advance_run(label: int, b: int, q: int, qp: int, dsum: int):
        run_end = b + sch.r[label - 1]
        while b < run_end:
            for _ in range(p):
                d = rho_value(rule, q, dsum)
                q, qp = d * q + qp, q
                dsum += d
            b += 1
        return b, q, qp, dsum

    def walk(b, label, seg_rank, q, qp, dsum):
        nonlocal best
        if label <= sch.depth and b == sch.i[label - 1]:
            if label == n:
                _, phi, _, _ = advance_run(n, b, q, qp, dsum)
                best = max(best, phi)
                return
            split = lm.stage_split(label)
            child = 2 * label + (0 if seg_rank < split.count else 1)
            if child not in ancestors:
                return
            b, q, qp, dsum = advance_run(label, b, q, qp, dsum)
            walk(b, child, 0, q, qp, dsum)
            return
        for idx in range(s):
            blk = nu.support[idx]
            q2, qp2, d2 = q, qp, dsum
            for d in blk:
                q2, qp2 = d * q2 + qp2, q2
                d2 += d
            walk(b + 1, label, seg_rank * s + idx, q2, qp2, d2)

    walk(0, 1, 0, 1, 0, 0)
    if best == 0:
        raise PreconditionViolated(f"no path reaches stage {n}")
    return best


def weight_ratio_bound(lm: LambdaMeasure, n: int) -> Fraction:
    """|xn_mass / w_n - 1| as an exact rational."""
    ratio = xn_mass(lm, n) / weight(n)
    return abs(ratio - 1)
