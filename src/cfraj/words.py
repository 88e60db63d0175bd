"""Finite continued-fraction words and exact continuant arithmetic.

A word is an integer part (head, >= 0) plus a tuple of partial quotients
(tail, each >= 1). Denominator continuants follow the usual three-term
recurrence seeded (0, 1) over the tail only; the head enters numerators.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .errors import PreconditionViolated
from .numeric import guard_int, ln_int


def continuant(entries: Sequence[int]) -> int:
    """K(entries): K() = 1, K(x) = x, K_i = a_i K_{i-1} + K_{i-2}."""
    prev, cur = 0, 1
    for a in entries:
        prev, cur = cur, a * cur + prev
    return cur


def continuant_pair_of(entries: Sequence[int]) -> tuple[int, int]:
    """(K(entries), K(entries without last)) in one pass."""
    # seeded so that an empty sequence gives (1, 0)
    prev, cur = 0, 1
    for a in entries:
        prev, cur = cur, a * cur + prev
    return cur, prev


def _entry(a) -> int:
    """a as a plain int: integers of any type pass through operator.index;
    bools and everything else are rejected."""
    if isinstance(a, bool):
        raise PreconditionViolated(f"word entries must be integers, got {a!r}")
    try:
        return operator.index(a)
    except TypeError:
        raise PreconditionViolated(
            f"word entries must be integers, got {a!r}") from None


@dataclass(frozen=True)
class Word:
    head: int
    tail: tuple[int, ...] = ()

    def __post_init__(self):
        head = _entry(self.head)
        if head < 0:
            raise PreconditionViolated(f"head must be >= 0, got {head}")
        tail = tuple(_entry(a) for a in self.tail)
        for a in tail:
            if a < 1:
                raise PreconditionViolated(f"tail entries must be >= 1, got {a}")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "tail", tail)

    @property
    def length(self) -> int:
        return 1 + len(self.tail)

    @cached_property
    def _continuants(self) -> tuple[int, int, int]:
        """(K(tail), K(tail minus last), K(tail minus first)), in one pass.

        These are the entries of the product of [[a, 1], [1, 0]] over the
        tail, so an empty tail gives (1, 0, 0): the recurrence's K_{-1} = 0
        stands for both shortened words. Cached on first use; fields, eq,
        hash and the serialized form do not see it.
        """
        prev, cur = 0, 1
        prev_first, cur_first = 1, 0
        for a in self.tail:
            prev, cur = cur, a * cur + prev
            prev_first, cur_first = cur_first, a * cur_first + prev_first
        return cur, prev, cur_first

    def extend(self, digits: Iterable[int]) -> "Word":
        return Word(self.head, self.tail + tuple(digits))

    def digits(self) -> tuple[int, ...]:
        return (self.head,) + self.tail

    def serialize(self) -> str:
        return ",".join(str(d) for d in self.digits())

    @classmethod
    def parse(cls, text: str) -> "Word":
        parts = [int(tok) for tok in text.split(",") if tok.strip() != ""]
        if not parts:
            raise PreconditionViolated("empty word string")
        return cls(parts[0], tuple(parts[1:]))


@dataclass(frozen=True)
class ContinuantPair:
    q: int
    q_prev: int


@dataclass(frozen=True)
class CylinderInterval:
    lo: Fraction
    hi: Fraction
    parity: int

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def continuant_pair(w: Word) -> ContinuantPair:
    q, q_prev = continuant_pair_of(w.tail)
    guard_int(q, "continuant")
    return ContinuantPair(q, q_prev)


def _convergents(w: Word) -> tuple[int, int, int, int]:
    """(p, q, p_prev, q_prev) for the word, head included in numerators."""
    p_prev, p = 1, w.head
    q_prev, q = 0, 1
    for a in w.tail:
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, q, p_prev, q_prev


def evaluate(w: Word) -> Fraction:
    """Value of the finite continued fraction as a reduced rational."""
    p, q, _, _ = _convergents(w)
    guard_int(q, "denominator")
    return Fraction(p, q)


def cylinder_interval(w: Word) -> CylinderInterval:
    """Interval spanned by all infinite expansions extending the word.

    Endpoints are p/q and (p+p')/(q+q'); orientation flips with each
    extra partial quotient. Words with an empty tail are rejected: the
    corresponding interval is a full unit interval keyed by the head
    alone, and callers should extend the word first.
    """
    if not w.tail:
        raise PreconditionViolated(
            "cylinder_interval needs at least one partial quotient"
        )
    p, q, p_prev, q_prev = _convergents(w)
    guard_int(q, "denominator")
    a = Fraction(p, q)
    b = Fraction(p + p_prev, q + q_prev)
    parity = 1 if a < b else -1
    lo, hi = (a, b) if parity == 1 else (b, a)
    return CylinderInterval(lo, hi, parity)


def continuant_identity_check(u: Sequence[int], v: Sequence[int]) -> bool:
    """K(u~v) == K(u) K(v) + K(u minus last) K(v minus first), exactly.

    The left side is one recurrence run over u and carried on through v;
    K(u) and K(u minus last) are read where it leaves u. The same loop over
    v also runs K(v), seeded (0, 1), and K(v minus first), seeded (1, 0).

    The entries are not validated, unlike a Word's: the a01 sweep calls
    the check 780^2 = 608,400 times, and a type test per entry would cost
    more than the recurrence. Pass positive ints; float entries run the
    recurrence in float arithmetic.
    """
    if not u or not v:
        raise PreconditionViolated("both sequences must be nonempty")
    prev, cur = 0, 1
    for a in u:
        prev, cur = cur, a * cur + prev
    k_u, k_u_last = cur, prev
    v_prev, k_v, f_prev, k_v_first = 0, 1, 1, 0
    for a in v:
        prev, cur = cur, a * cur + prev
        v_prev, k_v = k_v, a * k_v + v_prev
        f_prev, k_v_first = k_v_first, a * k_v_first + f_prev
    return cur == k_u * k_v + k_u_last * k_v_first


def joining_defect(a: Word, b: Word, n_bound: int) -> float:
    """log q(a~b) - log q(a) - log q(b), guaranteed in [0, log(2(N+1))].

    The words join by concatenating a's digits with all of b's entries:
    b's head becomes an ordinary partial quotient of the joined word, so
    it must lie in [1, n_bound]. q(b) keeps the head-drop convention.
    The defect is a float, exactly 0.0 when q(a~b) = q(a) q(b) and
    positive otherwise.
    """
    if not (1 <= b.head <= n_bound):
        raise PreconditionViolated(
            f"joined first entry must be in [1, {n_bound}], got {b.head}"
        )
    k_a, k_a_last, _ = a._continuants
    k_b, _, k_b_first = b._continuants
    # K(u~v) = K(u) K(v) + K(u minus last) K(v minus first), with
    # u = a.tail and v = (b.head,) + b.tail, so K(v) = b.head K(b.tail)
    # + K(b.tail minus first) and K(v minus first) = K(b.tail)
    k_join = k_a * (b.head * k_b + k_b_first) + k_a_last * k_b
    guard_int(k_join, "joined continuant")
    # K(a~b) >= K(a) K(b) holds as an exact integer inequality, so the
    # sign is decided exactly and float rounding cannot push it negative.
    k_ab = k_a * k_b
    if k_join == k_ab:
        return 0.0
    # the log of the ratio in lowest terms; below 2^512 ln_int is math.log
    g = math.gcd(k_join, k_ab)
    log = math.log if k_join.bit_length() <= 512 else ln_int
    defect = log(k_join // g) - log(k_ab // g)
    if defect <= 0.0:
        defect = math.log1p(max(float(Fraction(k_join, k_ab) - 1), 5e-324))
    return defect
