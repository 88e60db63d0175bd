"""Exceptional-stage schedules: growth, lacunarity, and gap certificates.

A schedule fixes the block indices i_1 < i_2 < ... at which forced
digit runs of lengths r_1 <= r_2 <= ... are inserted, together with the
block length p and the log-continuant center sigma of the driving
measure. The three checks here certify the growth conditions the
downstream mass construction relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .blocks import check_sigma
from .errors import Overflow, PreconditionViolated
from .numeric import LN2
from .profiles import get_profile
from .rules import AssignmentRule, PsiFamily, _phi_log


def weight(n: int) -> Fraction:
    """w_n = 2^(-floor(log2 n)); the 2^t weights in [2^t, 2^(t+1)) sum to 1."""
    if n < 1:
        raise PreconditionViolated("weights are defined for n >= 1")
    return Fraction(1, 1 << (n.bit_length() - 1))


@dataclass(frozen=True)
class Schedule:
    """Forced-run bookkeeping: run n occupies blocks [i_n, i_n + r_n)."""

    i: tuple[int, ...]
    r: tuple[int, ...]
    p: int
    sigma: float
    rule: AssignmentRule
    profile: str = "desk"

    def __post_init__(self):
        if len(self.i) != len(self.r):
            raise PreconditionViolated("i and r must have equal length")
        if not self.i:
            raise PreconditionViolated("schedule cannot be empty")
        if self.i[0] < 1 or any(x < 1 for x in self.r):
            raise PreconditionViolated("indices and run lengths start at 1")
        if any(b < a for a, b in zip(self.r, self.r[1:])):
            raise PreconditionViolated("run lengths must be nondecreasing")
        for n in range(len(self.i) - 1):
            if self.i[n + 1] <= self.i[n] + self.r[n]:
                raise PreconditionViolated(
                    f"need i_{n + 2} > i_{n + 1} + r_{n + 1}: "
                    f"{self.i[n + 1]} <= {self.i[n]} + {self.r[n]}"
                )
        if self.p < 1:
            raise PreconditionViolated("need p >= 1")
        check_sigma(self.sigma)
        if self.profile not in ("strict", "desk"):
            raise PreconditionViolated(f"unknown profile {self.profile!r}")

    @property
    def depth(self) -> int:
        return len(self.i)

    def to_json_doc(self) -> dict:
        return {"i": list(self.i), "r": list(self.r)}

    @classmethod
    def from_json_doc(cls, doc: dict, p: int, sigma: float,
                      rule: AssignmentRule, profile: str = "desk") -> "Schedule":
        return cls(
            i=tuple(int(x) for x in doc["i"]),
            r=tuple(int(x) for x in doc["r"]),
            p=p,
            sigma=sigma,
            rule=rule,
            profile=profile,
        )


def growth_log_bound(psi: PsiFamily, p: int, r_n: int, sigma: float,
                     i_n: float) -> float:
    """log of the certified ceiling for phi_{p r_n} over stage-n prefixes.

    Composes log Phi (p r_n)-fold starting from the worst-case prefix
    continuant bound 2^(p r_n - 1) * exp(2 sigma i_n).
    """
    steps = p * r_n
    x = (steps - 1) * LN2 + 2.0 * sigma * float(i_n)
    for _ in range(steps):
        x = _phi_log(psi, x)
    return x


def make_schedule_psi(psi: PsiFamily, nu, r_list: Sequence[int], i1: int,
                      depth: int, profile: str = "desk") -> Schedule:
    """Grow a schedule for the given psi family from i_1 = i1.

    Each i_{n+1} is the least integer that is at least
    - the growth bound over sigma, growth_log_bound(psi, p, r_n, sigma,
      i_n) / sigma;
    - i_n + r_n + 1, so the schedule invariants hold;
    - for power families, the closed form
      ceil(3 (tau-1)^(p r_n) sigma i_n), in exact rational arithmetic.
    Nothing here tests the gap condition, and the result can fail it;
    check_gap_condition decides that.
    """
    if i1 < 1:
        raise PreconditionViolated("i1 must be >= 1")
    if depth < 1:
        raise PreconditionViolated("depth must be >= 1")
    if len(r_list) < depth:
        raise PreconditionViolated(f"need at least {depth} run lengths")
    r = tuple(int(x) for x in r_list[:depth])
    if any(b < a for a, b in zip(r, r[1:])):
        raise PreconditionViolated("run lengths must be nondecreasing")
    p = nu.p
    sigma = nu.sigma
    check_sigma(sigma)
    sigma_frac = Fraction(sigma)

    i: list[int] = [int(i1)]
    for n in range(1, depth):
        r_n = r[n - 1]
        i_n = i[-1]
        try:
            general = math.ceil(
                growth_log_bound(psi, p, r_n, sigma, i_n) / sigma
            )
        except (Overflow, OverflowError) as exc:
            raise Overflow(
                f"schedule growth overflowed while computing i_{n + 1}",
                iteration=n + 1,
            ) from exc
        nxt = max(general, i_n + r_n + 1)
        if psi.form == "power":
            closed = math.ceil(
                3 * (psi.tau - 1) ** (p * r_n) * sigma_frac * i_n
            )
            nxt = max(nxt, closed)
        i.append(nxt)

    rule = AssignmentRule.psi_power(psi.tau) if psi.form == "power" \
        else AssignmentRule.psi_exp()
    return Schedule(i=tuple(i), r=r, p=p, sigma=sigma, rule=rule, profile=profile)


@dataclass(frozen=True)
class SuperlacunarityReport:
    ok: bool
    n0: Optional[int]
    first_fail: Optional[int]
    ratios: tuple[Fraction, ...]

    def __bool__(self) -> bool:
        return self.ok


def check_superlacunary(s: Schedule, big_r) -> SuperlacunarityReport:
    """Does i_{n+1} / (i_n + r_n) >= R hold for all n past some n_0?

    Ratios are exact rationals. Success reports the smallest such n_0;
    failure (the final ratio already violates) reports the first bad n.
    """
    threshold = Fraction(big_r)
    ratios = tuple(
        Fraction(s.i[n + 1], s.i[n] + s.r[n]) for n in range(s.depth - 1)
    )
    bad = [n + 1 for n, q in enumerate(ratios) if q < threshold]
    if not ratios or not bad:
        return SuperlacunarityReport(True, 1, None, ratios)
    if bad[-1] == len(ratios):
        return SuperlacunarityReport(False, None, bad[0], ratios)
    return SuperlacunarityReport(True, bad[-1] + 1, None, ratios)


@dataclass(frozen=True)
class GapReport:
    ok: bool
    mode: str
    margins: tuple[float, ...]
    first_fail: Optional[int]

    def __bool__(self) -> bool:
        return self.ok


def check_gap_condition(s: Schedule, nu,
                        mode: str = "certified") -> GapReport:
    """Verify i_{n+2} - i_{n+1} >= (factor/sigma) log max phi over stage n.

    certified: the max is replaced by the composed-Phi ceiling (needs a
    psi-family rule). exhaustive: the stage-n prefix set is enumerated
    and the max taken literally (tiny configurations only).
    """
    rule = s.rule
    prof = get_profile(s.profile)
    factor = float(prof.gap_factor)
    sigma = s.sigma

    if mode == "certified":
        if rule.psi is None:
            raise PreconditionViolated(
                "certified mode needs a psi-family rule; use exhaustive"
            )
        logmax = [
            growth_log_bound(rule.psi, s.p, s.r[n], sigma, s.i[n])
            for n in range(max(s.depth - 2, 0))
        ]
    elif mode == "exhaustive":
        from .cascade import max_phi_over_stage

        logmax = [
            math.log(max_phi_over_stage(nu, s, rule, n + 1))
            for n in range(max(s.depth - 2, 0))
        ]
    else:
        raise PreconditionViolated(f"unknown mode {mode!r}")

    margins = []
    first_fail = None
    for n, lm in enumerate(logmax):
        gap = s.i[n + 2] - s.i[n + 1]
        margin = gap - (factor / sigma) * lm
        margins.append(margin)
        if margin < 0 and first_fail is None:
            first_fail = n + 1
    return GapReport(
        ok=first_fail is None,
        mode=mode,
        margins=tuple(margins),
        first_fail=first_fail,
    )
