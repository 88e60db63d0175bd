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
from dataclasses import dataclass, replace
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
CYLINDER_BUDGET = 10**6


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


# ------------------------------------------------------------ transition
#
# Every walker crosses a stage the same way: a label-n path is tested at
# block i_n (_stage_block), then refines to a child and appends the forced
# run (_cross_stage). _walk follows one path; _lambda_leaves branches over
# every typical block.


def _stage_block(sch: Schedule, label: int) -> Optional[int]:
    """Block index at which a label-`label` path is tested; None for a
    label with no scheduled stage."""
    return sch.i[label - 1] if label <= len(sch.i) else None


def _cross_stage(lm: LambdaMeasure, label: int, seg_rank: int, room: int,
                 q: int, qp: int, pn: int, pp: int, dsum: int,
                 given: Optional[Sequence[Block]] = None,
                 at: int = 0) -> tuple:
    """The transition at label's stage of a path at the word with columns
    (q, qp), (pn, pp) and digit sum dsum.

    The path refines to 2 label when its typical segment since the
    parent's run (of rank seg_rank among the segments of its length) lies
    in the stage's top half, else to 2 label + 1. It then takes the r_label
    blocks of the forced run, at most room of them: each digit is the
    rule's least admissible digit for the word so far, and each block's
    continuant is guarded. With given, the run stops before the first of
    given[at], given[at + 1], ... whose length is not p or whose digits
    differ from the forced ones.

    Returns (child, the child's stage block, whether no block differed,
    the run's blocks, q, qp, pn, pp, dsum after them).
    """
    sch, rule = lm.schedule, lm.rule
    split = lm._splits[label]
    child = 2 * label + (0 if seg_rank < split.count else 1)
    stage = _stage_block(sch, child)
    run: list[Block] = []
    for k in range(min(sch.r[label - 1], room)):
        start = q, qp, pn, pp, dsum
        want = None if given is None else given[at + k]
        if want is not None and len(want) != sch.p:
            return (child, stage, False, run, *start)
        digits = []
        for j in range(sch.p):
            d = rho_value(rule, q, dsum)
            if want is not None and want[j] != d:
                return (child, stage, False, run, *start)
            digits.append(d)
            q, qp = d * q + qp, q
            pn, pp = d * pn + pp, pn
            dsum += d
        guard_int(q, "forced-run continuant")
        run.append(tuple(digits))
    return child, stage, True, run, q, qp, pn, pp, dsum


def _walk(lm: LambdaMeasure, depth: int,
          stream: Optional[_IndexStream] = None,
          given: Optional[Sequence[Block]] = None) -> tuple:
    """The linear walk: one path of depth blocks.

    Each typical segment (the blocks up to the next stage or depth) takes
    its block indices in one call: from stream, or from the blocks of the
    given path through nu's index. The walk of a given path ends, invalid,
    before its first off-support typical block or its first forced block
    that differs from the forced digits, with the state of the blocks
    before it. A path ending at a stage's block index keeps its label
    unrefined.

    Returns (valid, blocks, chain, label, typical, pn, pp, q, qp, dsum):
    the blocks walked, the label chain and last label, the typical block
    count, the convergent columns and the digit sum.
    """
    if depth > lm.horizon:
        raise DepthExceeded(f"depth {depth} beyond horizon {lm.horizon}")
    nu, sch = lm.nu, lm.schedule
    support = nu.support
    s = len(support)
    index_of = nu._index.get

    out: list[Block] = []
    label, chain, stage = 1, [1], _stage_block(sch, 1)
    seg_rank = typical = 0
    q, qp, pn, pp = 1, 0, 0, 1
    dsum = 0
    b = 0
    valid = True
    while b < depth:
        if b == stage:
            label, stage, valid, run, q, qp, pn, pp, dsum = _cross_stage(
                lm, label, seg_rank, depth - b, q, qp, pn, pp, dsum, given, b)
            chain.append(label)
            seg_rank = 0
            out += run
            b += len(run)
            if not valid:
                break
            continue
        stop = depth if stage is None else min(stage, depth)
        if given is None:
            idxs = stream.take(stop - b)
        else:
            idxs = []
            for blk in given[b:stop]:
                idx = index_of(tuple(blk))
                if idx is None:
                    break
                idxs.append(idx)
        for idx in idxs:
            blk = support[idx]
            out.append(blk)
            for d in blk:
                q, qp = d * q + qp, q
                pn, pp = d * pn + pp, pn
                dsum += d
        k = len(idxs)
        typical += k
        b += k
        if b < stop:
            valid = False
            break
        if stop == stage:
            # the segment's rank settles the next stage's split
            for idx in idxs:
                seg_rank = seg_rank * s + idx
    return valid, out, tuple(chain), label, typical, pn, pp, q, qp, dsum


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
                   budget: int = CYLINDER_BUDGET,
                   labels: Optional[set[int]] = None) -> list[_Leaf]:
    """Every positive-mass depth-block prefix, in lexicographic order.

    With labels, only the prefixes whose every label lies in labels.
    """
    if depth < 1:
        raise PreconditionViolated("depth must be >= 1")
    if depth > lm.horizon:
        raise DepthExceeded(f"depth {depth} beyond horizon {lm.horizon}")
    nu, sch = lm.nu, lm.schedule
    support = nu.support
    s = len(support)
    # a leaf's mass is atom^(typical blocks); forced blocks pass it through
    masses = [nu.atom**k for k in range(depth + 1)]
    out: list[_Leaf] = []

    def walk(b, label, stage, chain, seg_rank, typical, q, qp, pn, pp, dsum):
        if b == depth:
            if len(out) >= budget:
                raise BudgetExceeded(f"cylinder count exceeds budget {budget}")
            out.append(_Leaf(masses[typical], pn, pp, q, qp, chain))
            return
        if b == stage:
            child, stage, _, run, q, qp, pn, pp, dsum = _cross_stage(
                lm, label, seg_rank, depth - b, q, qp, pn, pp, dsum)
            if labels is None or child in labels:
                walk(b + len(run), child, stage, chain + (child,), 0,
                     typical, q, qp, pn, pp, dsum)
            return
        for idx, blk in enumerate(support):
            q2, qp2, pn2, pp2, d2 = q, qp, pn, pp, dsum
            for d in blk:
                q2, qp2 = d * q2 + qp2, q2
                pn2, pp2 = d * pn2 + pp2, pn2
                d2 += d
            walk(b + 1, label, stage, chain, seg_rank * s + idx,
                 typical + 1, q2, qp2, pn2, pp2, d2)

    walk(0, 1, _stage_block(sch, 1), (1,), 0, 0, 1, 0, 0, 1, 0)
    return out


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

    Invalid prefixes (off-support typical block, or a forced block that is
    not p long or not the forced digits) come back with mass 0, the chain
    accumulated so far, and the continuants and digit sum of the longest
    valid block prefix.
    """
    if len(blocks) > lm.horizon:
        raise DepthExceeded(f"prefix length {len(blocks)} beyond horizon {lm.horizon}")
    valid, _, chain, label, typical, _, _, q, qp, dsum = _walk(
        lm, len(blocks), given=blocks)
    mass = lm.nu.atom**typical if valid else Fraction(0)
    return PathState(valid, mass, chain, label, typical, q, qp, dsum)


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
    return _walk(lm, depth, stream)[1]


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

    Enumerates, under rule, every path whose labels stay on n's ancestor
    line up to block i_n, each with its stage-n child and its r_n forced
    blocks, and takes the largest resulting continuant. Only viable at toy
    sizes; guarded by a node budget.
    """
    if not 1 <= n <= sch.depth:
        raise PreconditionViolated(f"stage {n} outside schedule depth {sch.depth}")
    ancestors = {n >> k for k in range(n.bit_length())}
    s = len(nu.support)
    i_n = sch.i[n - 1]
    run_blocks = sum(sch.r[m - 1] for m in ancestors if m != n)
    typ = i_n - run_blocks
    if typ < 0 or s**typ > budget:
        raise BudgetExceeded(f"{s}^{typ} stage-{n} paths exceed budget {budget}")

    lm = LambdaMeasure(nu=nu, schedule=replace(sch, rule=rule),
                       horizon=i_n + sch.r[n - 1])
    leaves = _lambda_leaves(lm, lm.horizon, budget,
                            labels=ancestors | {2 * n, 2 * n + 1})
    if not leaves:
        raise PreconditionViolated(f"no path reaches stage {n}")
    return max(lf.q for lf in leaves)


def weight_ratio_bound(lm: LambdaMeasure, n: int) -> Fraction:
    """|xn_mass / w_n - 1| as an exact rational."""
    ratio = xn_mass(lm, n) / weight(n)
    return abs(ratio - 1)
