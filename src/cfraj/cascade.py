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
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .blocks import Block, NuMeasure, TopHalfSplit, top_half_split
from .errors import (
    BudgetExceeded,
    CfrajError,
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
        sch, splits = self.schedule, {}
        for n in range(1, sch.depth + 1):
            # label n's segment runs from the end of its parent's run
            b = sch.i[n // 2 - 1] + sch.r[n // 2 - 1] if n > 1 else 0
            splits[n] = top_half_split(self.nu, sch.i[n - 1] - b)
        object.__setattr__(self, "_splits", splits)

    @property
    def rule(self) -> AssignmentRule:
        return self.schedule.rule

    def segment_length(self, n: int) -> int:
        """Typical blocks accumulated by a label-n path before stage n."""
        return self.stage_split(n).level

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


# ---------------------------------------------------------------- layout
#
# One layout serves both walks: _segment places each label's typical
# segment and forced run. A label-n path is tested at block i_n, refines
# to 2n (its segment since the parent's run ranks below the split's
# count) or 2n + 1, and takes the forced run. _walk follows one given or
# drawn path (classify, sample_path) segment by segment, without the
# numerators p, p', which none of its callers reads; the columnar engine
# below takes every path set (cylinders, Monte Carlo draws, stage
# maxima) label by label, on the tree _label_tree builds from _segment.


def _segment(lm: LambdaMeasure, depth: int, label: int, b: int) -> tuple:
    """(g, run, kids) of a label-`label` path from block b on a
    depth-block path: its typical segment of g blocks; for a label tested
    before depth, the run forced blocks its children take and its
    children, the top half's first; else 0 and None.
    """
    sch = lm.schedule
    stage = sch.i[label - 1] if label <= sch.depth else depth
    if stage >= depth:
        return depth - b, 0, None
    return (stage - b, min(sch.r[label - 1], depth - stage),
            (2 * label, 2 * label + 1))


def _walk(lm: LambdaMeasure, depth: int,
          indices: Optional[Sequence[int]] = None,
          given: Optional[Sequence[Block]] = None) -> tuple:
    """The linear walk: one path of depth blocks, segment by segment.

    Each typical segment takes its block indices in one slice: the next
    ones of indices, or those of the blocks of the given path through
    nu's index. Its rank settles the label's child, and each block of the
    forced run after it takes the rule's least admissible digits for the
    word so far, its continuant guarded. The walk of a given path ends,
    invalid, before its first off-support typical block or its first
    forced block that is not p long or differs from the forced digits,
    with the state of the blocks before it. A path ending at a stage's
    block index keeps its label unrefined.

    Returns (valid, blocks, chain, label, typical, q, qp, dsum): the
    blocks walked, the label chain and last label, the typical block
    count, the continuants q, q' and the digit sum.
    """
    if depth > lm.horizon:
        raise DepthExceeded(f"depth {depth} beyond horizon {lm.horizon}")
    nu, p, rule = lm.nu, lm.schedule.p, lm.rule
    support, index_of = nu.support, nu._index.get
    s = len(support)

    out: list[Block] = []
    label, chain = 1, [1]
    q, qp, dsum, typical, b = 1, 0, 0, 0, 0
    valid = True
    while valid:
        g, run, kids = _segment(lm, depth, label, b)
        if given is None:
            idxs = indices[typical:typical + g]
        else:
            idxs = []
            for blk in given[b:b + g]:
                idx = index_of(tuple(blk))
                if idx is None:
                    break
                idxs.append(idx)
        for idx in idxs:
            blk = support[idx]
            out.append(blk)
            for d in blk:
                q, qp = d * q + qp, q
                dsum += d
        typical += len(idxs)
        b += len(idxs)
        valid = len(idxs) == g
        if not valid or kids is None:
            break
        rank = 0
        for idx in idxs:
            rank = rank * s + idx
        label = kids[rank >= lm._splits[label].count]
        chain.append(label)
        for _ in range(run):
            want = None if given is None else given[b]
            if want is not None and len(want) != p:
                valid = False
                break
            start, digits = (q, qp, dsum), []
            for j in range(p):
                d = rho_value(rule, q, dsum)
                if want is not None and want[j] != d:
                    valid = False
                    break
                digits.append(d)
                q, qp = d * q + qp, q
                dsum += d
            if not valid:
                q, qp, dsum = start
                break
            guard_int(q, "forced-run continuant")
            out.append(tuple(digits))
            b += 1
    return valid, out, tuple(chain), label, typical, q, qp, dsum


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
    valid, _, chain, label, typical, q, qp, dsum = _walk(
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
    if depth < 0:
        raise PreconditionViolated("depth must be >= 0")
    indices = _draw_indices(random.Random(seed), len(lm.nu.support), depth)
    return _walk(lm, depth, indices.tolist())[1]


# the most 32-bit words one read of _draw_indices takes (64 KiB)
_STREAM_CHUNK = 1 << 14


def _draw_indices(rng: random.Random, s: int, n: int) -> np.ndarray:
    """At least n of the values rng.randrange(s) would return next, in order.

    randrange(s) takes getrandbits(k), k = s.bit_length(), and draws again
    while the result is >= s. For k <= 32, getrandbits(k) is the top k bits
    of the generator's next 32-bit word, and getrandbits(32 m) is the next
    m words with the first in the least significant place. So the words of
    one bulk draw, shifted right by 32 - k and filtered to those below s,
    are the draws randrange would accept, in the same order.

    Each read takes the words expected to cover what is still missing, at
    most _STREAM_CHUNK, and every value the words read give is returned:
    consecutive calls on one rng continue one randrange stream, as long as
    rng has no other use. The dtype is the narrowest unsigned one that
    holds s - 1.
    """
    if s >= 2**32:
        raise PreconditionViolated(f"{s} atoms exceed a 32-bit draw")
    k = s.bit_length()
    dtype = np.min_scalar_type(s - 1)
    parts, got = [], 0
    while got < n:
        m = min(_STREAM_CHUNK, -(-((n - got) << k) // s))
        # sys.byteorder with native uint32 reads word i at bytes 4i..4i+3
        # on either byte order
        raw = rng.getrandbits(32 * m).to_bytes(4 * m, sys.byteorder)
        words = np.frombuffer(raw, dtype=np.uint32) >> (32 - k)
        parts.append(words[words < s].astype(dtype))
        got += len(parts[-1])
    return np.concatenate(parts) if parts else np.empty(0, dtype)


# -------------------------------------------------------- columnar engine


@dataclass(frozen=True)
class _Columns:
    """Paths as columns: each distinct path's convergent entries q, qp,
    pn, pp (object arrays of Python ints) and typical block count;
    inverse, each path's distinct one (None when all are distinct);
    chain_ids, each distinct path's index into the distinct label
    chains, in first-seen order."""

    q: np.ndarray
    qp: np.ndarray
    pn: np.ndarray
    pp: np.ndarray
    chains: list[tuple[int, ...]]
    chain_ids: np.ndarray
    typical: np.ndarray
    inverse: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.q)

    def weights(self, atom: Fraction) -> np.ndarray:
        """Each distinct path's cylinder mass atom**typical, rounded once."""
        most = int(self.typical.max(initial=0))
        return np.array([float(atom**k) for k in range(most + 1)])[
            self.typical]


# int64 columns hold values below this, so every product and sum formed
# on the way to a value below it fits in int64 too
_INT64_LIMIT = 2**62


def _index_dtype(s: int) -> np.dtype:
    """Big-endian and the narrowest unsigned dtype that holds s - 1."""
    return np.dtype(np.min_scalar_type(s - 1)).newbyteorder(">")


def _sample_columns(lm: LambdaMeasure, samples: int, depth: int,
                    seed: int) -> _Columns:
    """samples paths of depth blocks from one random.Random(seed): path k
    is the one _walk takes on the indices after those of paths 0 .. k - 1
    in the generator's randrange stream, as a loop of _walk calls on one
    shared stream draws it."""
    tree = _label_tree(lm, depth)
    return _columns(lm, depth, tree, *_draw_chains(
        tree, samples, random.Random(seed), len(lm.nu.support)))


def _lambda_leaves(lm: LambdaMeasure, depth: int,
                   budget: int = CYLINDER_BUDGET,
                   labels: Optional[set[int]] = None) -> _Columns:
    """Every positive-mass depth-block prefix, in lexicographic order;
    with labels, only those whose every label lies in labels. More than
    budget of them raise BudgetExceeded before any is computed."""
    if depth < 1:
        raise PreconditionViolated("depth must be >= 1")
    tree = _label_tree(lm, depth)
    return _columns(lm, depth, tree,
                    *_enumerate_chains(lm, tree, budget, labels))


def _columns(lm: LambdaMeasure, depth: int, tree: dict, starts: np.ndarray,
             finals: list[int], inverse: Optional[np.ndarray],
             idx: np.ndarray) -> _Columns:
    """Pass B: the columns of the paths that Pass A (_draw_chains or
    _enumerate_chains) gives as their typical indices' starts in idx and
    their last labels, finals.

    It runs down the label tree: the paths at one label share their
    segment's block positions, so it takes each typical segment
    (_typical_blocks) and forced run (_forced_run) for all of them at
    once. Columns stay int64 while every value in them is below
    _INT64_LIMIT and hold Python ints after. When a path is over the
    digit budget or needs a forced digit the rule cannot give, the paths
    are walked again one by one and the first one's error is raised, as
    a loop of _walk calls would raise it.
    """
    n, p = len(starts), lm.schedule.p
    blocks = _BlockTables(lm.nu)
    last = np.array(finals)
    levels = np.array([f.bit_length() for f in finals])
    typical = np.array([tree[f][0] + tree[f][1] for f in finals], dtype=int)
    out = [np.empty(n, dtype=object) for _ in range(4)]
    one, zero = np.ones(n, np.int64), np.zeros(n, np.int64)
    # (label, the rows of the paths at it, their columns at its segment)
    stack = [(1, np.arange(n), [one, zero, zero, one, zero])] if n else []
    try:
        while stack:
            label, rows, cols = stack.pop()
            t, g, cut, run, kids = tree[label]
            cols = _typical_blocks(cols, idx, starts[rows] + t, g, blocks)
            if cut is None:
                for column, values in zip(out, cols):
                    column[rows] = values
                continue
            # each path's label after this stage: its last label's
            # ancestor one level below this one
            after = last[rows] >> (levels[rows] - label.bit_length() - 1)
            for child in kids:
                sel = after == child
                if sel.any():
                    stack.append((child, rows[sel], _forced_run(
                        [c[sel] for c in cols], run, p, lm.rule)))
    except CfrajError:
        indices = idx.tolist()
        try:
            for start, k in zip(starts.tolist(), typical.tolist()):
                _walk(lm, depth, indices[start:start + k])
        except CfrajError as first:
            raise first from None
        raise
    ids: dict[int, int] = {}
    chain_ids = np.array([ids.setdefault(f, len(ids)) for f in finals], int)
    chains = [tuple(f >> k for k in range(f.bit_length() - 1, -1, -1))
              for f in ids]
    return _Columns(*out, chains, chain_ids, typical, inverse)


def _label_tree(lm: LambdaMeasure, depth: int) -> dict:
    """Where the typical segment of each label lies on a depth-block path.

    Maps every label a path can carry to (t, g, cut, run, kids): the
    typical blocks before the label's segment, t, and _segment's g, run
    and kids. For a label tested before depth, cut is the base-s digits
    of its split's count in _index_dtype's bytes; for a label whose walk
    ends with its segment, cut is None.
    """
    if depth > lm.horizon:
        raise DepthExceeded(f"depth {depth} beyond horizon {lm.horizon}")
    s = len(lm.nu.support)
    dtype = _index_dtype(s)
    tree = {}

    def visit(label, b, t):
        g, run, kids = _segment(lm, depth, label, b)
        cut = None
        if kids is not None:
            count = lm._splits[label].count
            cut = np.array([count // s**k % s for k in range(g - 1, -1, -1)],
                           dtype).tobytes()
        tree[label] = (t, g, cut, run, kids)
        for child in kids or ():
            visit(child, b + g + run, t + g)

    visit(1, 0, 0)
    return tree


def _draw_chains(tree: dict, samples: int, rng: random.Random,
                 s: int) -> tuple:
    """Pass A: each path's start in the index stream and its last label.

    A path's labels and typical block count depend on its own indices
    only, and each path starts where the one before it ended. A stage is
    settled by comparing the segment's indices with the label's cut as
    bytes: big-endian numbers of one width compare, digit by digit, as
    their base-s values do, so the segment is in the top half exactly
    when its bytes sort below cut. A path whose indices repeat an earlier
    path's is that path again.

    It reads ahead so that the next path's indices, most at the longest,
    are always in the buffer. Returns the start and last label of each
    distinct path, in first-seen order, each path's index into them, and
    the indices read, in _index_dtype.
    """
    most = max(t + g for t, g, *_ in tree.values())
    dtype = _index_dtype(s)
    width = dtype.itemsize
    buf = bytearray()
    seen: dict[bytes, int] = {}
    starts, finals, inverse = [], [], []
    off = 0
    for k in range(samples):
        short = off + most - len(buf) // width
        if short > 0:
            want = max(short, min((samples - k) * most, _STREAM_CHUNK))
            buf += _draw_indices(rng, s, want).astype(dtype).tobytes()
        label = 1
        t, g, cut, _, kids = tree[1]
        while cut is not None:
            lo = (off + t) * width
            # kids[False], the top half's child, when the segment sorts
            # below cut
            label = kids[buf[lo:lo + g * width] >= cut]
            t, g, cut, _, kids = tree[label]
        end = off + t + g
        row = seen.setdefault(bytes(buf[off * width:end * width]), len(seen))
        if row == len(starts):
            starts.append(off)
            finals.append(label)
        inverse.append(row)
        off = end
    return (np.array(starts), finals, np.array(inverse),
            np.frombuffer(buf, dtype))


def _enumerate_chains(lm: LambdaMeasure, tree: dict, budget: int,
                      labels: Optional[set[int]]) -> tuple:
    """Pass A for every path whose labels all lie in labels (None: every
    path), in lexicographic order: _draw_chains' output, with no inverse.

    The paths are counted on the tree against budget first, then listed
    depth first: each label's typical segments in order, those ranked
    below its split's count leading to its top-half child.
    """
    s = len(lm.nu.support)
    sizes: dict[int, int] = {}
    # children carry larger labels than their parents
    for label in sorted(tree, reverse=True):
        g, kids = tree[label][1], tree[label][4]
        n = s**g if labels is None or label in labels else 0
        if n and kids is not None:
            top = lm._splits[label].count
            n = top * sizes[kids[0]] + (n - top) * sizes[kids[1]]
        sizes[label] = n
    if sizes[1] > budget:
        raise BudgetExceeded(f"{sizes[1]} cylinders exceed budget {budget}")
    starts, finals, idx = [], [], []
    stack = [(1, ())] if sizes[1] else []
    while stack:
        label, prefix = stack.pop()
        g, kids = tree[label][1], tree[label][4]
        segments = product(range(s), repeat=g)
        if kids is None:
            for segment in segments:
                starts.append(len(idx))
                finals.append(label)
                idx.extend(prefix + segment)
            continue
        top = lm._splits[label].count
        below = [(kids[rank >= top], prefix + segment)
                 for rank, segment in enumerate(segments)]
        # last in, first out: the first segment's subtree comes first
        stack += [node for node in reversed(below) if sizes[node[0]]]
    return np.array(starts, int), finals, None, np.array(idx, int)


class _BlockTables:
    """nu's support as columns: digits[e][i] is digit e of block i,
    sums[i] its digit sum; growth bounds the factor by which one block
    can raise the largest entry of a convergent matrix, the product of
    d + 1 over its digits d. The columns are int64, or Python ints when
    one block can pass _INT64_LIMIT on its own."""

    def __init__(self, nu: NuMeasure):
        support = nu.support
        self.sum_max = max(sum(blk) for blk in support)
        self.growth = max(math.prod(d + 1 for d in blk) for blk in support)
        dtype = np.int64 if self.growth < _INT64_LIMIT else object
        self.digits = [np.array([blk[e] for blk in support], dtype)
                       for e in range(nu.p)]
        self.sums = np.array([sum(blk) for blk in support], dtype)


def _typical_blocks(cols: list, idx: np.ndarray, base: np.ndarray, g: int,
                    blocks: _BlockTables) -> list:
    """cols (q, qp, pn, pp, digit sum) after g typical blocks: the block
    of support index idx[base + j] is the j-th of each path.

    q is the largest entry of a path's matrix [[q, qp], [pn, pp]], and
    each digit d raises the largest entry of a matrix by at most a factor
    d + 1, so a chunk of c blocks by at most growth^c. While the columns
    are int64, a chunk is as long as that bound keeps them below
    _INT64_LIMIT, and its digits multiply the columns directly; a chunk
    that cannot take one block moves them to Python ints first. Then a
    chunk is as long as its int64 product stays below the limit, and the
    product is folded in once.
    """
    q, qp, pn, pp, dsum = cols
    j = 0
    while j < g:
        wide = q.dtype == object
        top, total = (1, 0) if wide else (int(q.max()), int(dsum.max()))
        c = 0
        while (c < g - j and top * blocks.growth < _INT64_LIMIT
               and total + blocks.sum_max < _INT64_LIMIT):
            top *= blocks.growth
            total += blocks.sum_max
            c += 1
        if c == 0 and not wide:
            q, qp, pn, pp, dsum = (x.astype(object)
                                   for x in (q, qp, pn, pp, dsum))
            continue
        # one block past the limit on its own goes straight into the
        # Python ints
        fold = wide and c > 0
        c = max(c, 1)
        if fold:
            one, zero = np.ones(len(q), np.int64), np.zeros(len(q), np.int64)
            m00, m01, m10, m11 = one, zero, zero, one
        else:
            m00, m01, m10, m11 = q, qp, pn, pp
        added = 0
        for k in range(j, j + c):
            col = idx[base + k]
            for digit in blocks.digits:
                d = digit[col]
                m00, m01 = d * m00 + m01, m00
                m10, m11 = d * m10 + m11, m10
            added = added + blocks.sums[col]
        if fold:
            q, qp = q * m00 + qp * m10, q * m01 + qp * m11
            pn, pp = pn * m00 + pp * m10, pn * m01 + pp * m11
        else:
            q, qp, pn, pp = m00, m01, m10, m11
        dsum = dsum + added
        j += c
    return [q, qp, pn, pp, dsum]


def _forced_run(cols: list, run: int, p: int, rule: AssignmentRule) -> list:
    """cols (q, qp, pn, pp, digit sum) after a forced run of `run` blocks.

    Each digit is rho_value of its path's word so far, which reads one
    of the path's columns: the digit sum when rule.reads_digit_sum, q
    otherwise. It is computed once per distinct value of that column in
    the call, as many paths share one. The columns move to Python ints
    before a digit that could take a value past _INT64_LIMIT, and each
    block guards its largest continuant.
    """
    q, qp, pn, pp, dsum = cols
    by_sum = rule.reads_digit_sum
    rho: dict[int, int] = {}
    for _ in range(run):
        for _ in range(p):
            qs, sums = q.tolist(), dsum.tolist()
            d = [rho[k] if k in rho
                 else rho.setdefault(k, rho_value(rule, a, b))
                 for k, a, b in zip(sums if by_sum else qs, qs, sums)]
            if q.dtype != object:
                top = max(d)
                if ((top + 1) * int(q.max()) >= _INT64_LIMIT
                        or int(dsum.max()) + top >= _INT64_LIMIT):
                    q, qp, pn, pp, dsum = (x.astype(object)
                                           for x in (q, qp, pn, pp, dsum))
            d = np.array(d, dtype=q.dtype)
            q, qp = d * q + qp, q
            pn, pp = d * pn + pp, pn
            dsum = dsum + d
        guard_int(int(q.max()), "forced-run continuant")
    return [q, qp, pn, pp, dsum]


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
                       n: int, budget: int = CYLINDER_BUDGET) -> int:
    """Exhaustive max of the post-run continuant over stage-n prefixes.

    Enumerates, under rule, every path whose labels stay on n's ancestor
    line up to block i_n, each with its stage-n child and its r_n forced
    blocks, and takes the largest resulting continuant. Only viable at toy
    sizes; the paths are counted against budget before any is walked.
    """
    if not 1 <= n <= sch.depth:
        raise PreconditionViolated(f"stage {n} outside schedule depth {sch.depth}")
    ancestors = {n >> k for k in range(n.bit_length())}
    i_n = sch.i[n - 1]
    lm = LambdaMeasure(nu=nu, schedule=replace(sch, rule=rule),
                       horizon=i_n + sch.r[n - 1])
    cols = _lambda_leaves(lm, lm.horizon, budget,
                          labels=ancestors | {2 * n, 2 * n + 1})
    if not cols:
        raise PreconditionViolated(f"no path reaches stage {n}")
    return max(cols.q)


def weight_ratio_bound(lm: LambdaMeasure, n: int) -> Fraction:
    """|xn_mass / w_n - 1| as an exact rational."""
    ratio = xn_mass(lm, n) / weight(n)
    return abs(ratio - 1)
