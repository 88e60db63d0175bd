"""Digit-assignment rules and the forced-extension maps.

A rule assigns to every word a set of admissible next partial quotients.
For approximation-function rules the set is every integer at or above a
denominator-driven threshold; the sum rule admits exactly the running
digit sum. `rho` is the least admissible digit, `rho_r`/`phi_r` iterate
the forced extension, and `Phi_iter` composes the one-step denominator
growth map q -> 1/(q psi(q)) in the log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import Overflow, OutOfRange, PreconditionViolated
from .numeric import ceil_exp_over_square, digit_budget, ipow_ceil, ln_int
from .words import Word, continuant_pair


@dataclass(frozen=True)
class PsiFamily:
    """Decreasing approximation function psi.

    form "power": psi(q) = q**(-tau) with tau > 2 (tau exact Fraction).
    form "exp": psi(q) = e**(-q).
    form "table": piecewise-constant, right-continuous, no extrapolation
    outside [first q, last q].
    """

    form: str
    tau: Optional[Fraction] = None
    points: tuple[tuple[Fraction, Fraction], ...] = ()

    def __post_init__(self):
        if self.form == "power":
            if self.tau is None or self.tau <= 2:
                raise PreconditionViolated("power form needs tau > 2")
        elif self.form == "table":
            if not self.points:
                raise PreconditionViolated("table form needs points")
            qs = [p[0] for p in self.points]
            if qs != sorted(qs) or len(set(qs)) != len(qs):
                raise PreconditionViolated("table q values must be strictly increasing")
        elif self.form != "exp":
            raise PreconditionViolated(f"unknown psi form {self.form!r}")

    @classmethod
    def power(cls, tau) -> "PsiFamily":
        return cls("power", tau=Fraction(tau))

    @classmethod
    def exponential(cls) -> "PsiFamily":
        return cls("exp")

    @classmethod
    def table(cls, points) -> "PsiFamily":
        pts = tuple((Fraction(q), Fraction(v)) for q, v in points)
        return cls("table", points=pts)

    def table_value(self, q) -> Fraction:
        qf = Fraction(q)
        if qf < self.points[0][0] or qf > self.points[-1][0]:
            raise OutOfRange(f"q={q} outside table range")
        val = self.points[0][1]
        for pq, pv in self.points:
            if pq <= qf:
                val = pv
            else:
                break
        return val


def check_q2psi_nonincreasing(psi: PsiFamily, probes: Sequence[int]) -> bool:
    """q^2 psi(q) nonincreasing across the probe points (exact where possible)."""
    vals = []
    for q in sorted(probes):
        if psi.form == "power":
            # q^2 psi(q) = q^(2 - tau); compare via logs of exact powers
            vals.append((2 - psi.tau) * Fraction(ln_int(q)))
        elif psi.form == "exp":
            vals.append(Fraction(2 * ln_int(q) - q))
        else:
            v = q * q * psi.table_value(q)
            vals.append(Fraction(math.log(v.numerator) - math.log(v.denominator)))
    return all(a >= b for a, b in zip(vals, vals[1:]))


@dataclass(frozen=True)
class AssignmentRule:
    kind: str
    psi: Optional[PsiFamily] = None

    def __post_init__(self):
        if self.kind in ("psi-power", "psi-exp", "user-table"):
            if self.psi is None:
                raise PreconditionViolated(f"{self.kind} rule needs a psi family")
        elif self.kind != "sum-of-previous":
            raise PreconditionViolated(f"unknown rule kind {self.kind!r}")

    @classmethod
    def psi_power(cls, tau) -> "AssignmentRule":
        return cls("psi-power", PsiFamily.power(tau))

    @classmethod
    def psi_exp(cls) -> "AssignmentRule":
        return cls("psi-exp", PsiFamily.exponential())

    @classmethod
    def sum_of_previous(cls) -> "AssignmentRule":
        return cls("sum-of-previous")

    @classmethod
    def user_table(cls, points) -> "AssignmentRule":
        return cls("user-table", PsiFamily.table(points))

    def to_json(self) -> dict:
        if self.kind == "psi-power":
            return {"kind": "psi-power", "tau": str(self.psi.tau)}
        if self.kind == "psi-exp":
            return {"kind": "psi-exp"}
        if self.kind == "sum-of-previous":
            return {"kind": "sum-of-previous"}
        return {
            "kind": "user-table",
            "points": [[str(q), str(v)] for q, v in self.psi.points],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "AssignmentRule":
        kind = doc.get("kind")
        if kind == "psi-power":
            return cls.psi_power(Fraction(doc["tau"]))
        if kind == "psi-exp":
            return cls.psi_exp()
        if kind == "sum-of-previous":
            return cls.sum_of_previous()
        if kind == "user-table":
            return cls.user_table(
                [(Fraction(q), Fraction(v)) for q, v in doc["points"]]
            )
        raise PreconditionViolated(f"unknown rule kind {kind!r}")


def _psi_threshold_ceil(psi: PsiFamily, q: int) -> int:
    """ceil(1/(q^2 psi(q))) exactly."""
    if psi.form == "power":
        # 1/(q^2 psi) = q^(tau - 2)
        e = psi.tau - 2
        return ipow_ceil(q, e.numerator, e.denominator, "forced digit")
    if psi.form == "exp":
        return ceil_exp_over_square(q)
    v = Fraction(1, 1) / (Fraction(q) ** 2 * psi.table_value(q))
    return -((-v.numerator) // v.denominator)


def rho_value(rule: AssignmentRule, q: int, digit_sum: int) -> int:
    """rho from running word state (continuant q, sum of all entries).

    Lets long walks maintain (q, digit_sum) incrementally instead of
    recomputing the continuant from scratch at every forced digit.
    """
    if rule.kind == "sum-of-previous":
        return max(1, digit_sum)
    return max(1, _psi_threshold_ceil(rule.psi, q))


def rho(rule: AssignmentRule, w: Word) -> int:
    """Least admissible next digit, clamped below at 1."""
    return rho_value(rule, continuant_pair(w).q, sum(w.digits()))


def membership(rule: AssignmentRule, w: Word, m: int) -> bool:
    """Whether digit m is admissible after the word."""
    if m < 1:
        return False
    if rule.kind == "sum-of-previous":
        s = sum(w.digits())
        return s >= 1 and m == s
    q = continuant_pair(w).q
    return m >= _psi_threshold_ceil(rule.psi, q)


def forced_extension(rule: AssignmentRule, w: Word, r: int) -> Word:
    """Append r forced digits, each the rho of the word so far."""
    if r < 0:
        raise PreconditionViolated("r must be >= 0")
    cur = w
    for _ in range(r):
        cur = cur.extend((rho(rule, cur),))
    return cur


def rho_r(rule: AssignmentRule, w: Word, r: int) -> int:
    if r < 1:
        raise PreconditionViolated("r must be >= 1")
    cur = forced_extension(rule, w, r - 1)
    return rho(rule, cur)


def phi_r(rule: AssignmentRule, w: Word, r: int) -> int:
    """Denominator after r forced extensions."""
    if r < 1:
        raise PreconditionViolated("r must be >= 1")
    return continuant_pair(forced_extension(rule, w, r)).q


def _phi_log(psi: PsiFamily, ln_q: float) -> float:
    if psi.form == "power":
        return float(psi.tau - 1) * ln_q
    if psi.form == "exp":
        if ln_q > 700.0:
            raise Overflow(
                "growth-map iterate left float range", log_magnitude=ln_q
            )
        q = math.exp(ln_q)
        return q - ln_q
    q = math.exp(ln_q)
    v = psi.table_value(Fraction(q).limit_denominator(10**12))
    return -ln_q - (math.log(v.numerator) - math.log(v.denominator))


def Phi_iter(psi: PsiFamily, q: int, r: int) -> float:
    """log of the r-fold composition of the growth map Phi(q) = 1/(q psi(q)),
    as a float; r=0 gives log q. The tower leaves float range long before
    its log does, so the log is the value returned.
    """
    if q < 1:
        raise PreconditionViolated("q must be >= 1")
    if r < 0:
        raise PreconditionViolated("r must be >= 0")
    x = ln_int(q)
    for i in range(r):
        try:
            x = _phi_log(psi, x)
        except Overflow as exc:
            raise Overflow(
                f"growth-map tower overflowed at iteration {i + 1} of {r}",
                log_magnitude=exc.log_magnitude,
                iteration=i + 1,
            ) from exc
        if not math.isfinite(x):
            raise Overflow(
                f"growth-map tower overflowed at iteration {i + 1} of {r}",
                iteration=i + 1,
            )
    return x


def phir_bound_check(rule: AssignmentRule, w: Word, r: int) -> bool:
    """phi_r(w) <= Phi^r(2^(r-1) q(w)), decided exactly when feasible.

    Known sharpness gap: at r = 1 the ceiling slack usually breaks the
    bound (e.g. tau=4, word 0,2: phi=9 vs Phi(2)=8); it is stated for
    the induction at r >= 2. The checker reports honestly either way.
    """
    if rule.psi is None:
        raise PreconditionViolated("bound check needs a psi-based rule")
    if r < 1:
        raise PreconditionViolated("r must be >= 1")
    lhs = phi_r(rule, w, r)
    q = continuant_pair(w).q
    seed = (1 << (r - 1)) * q
    psi = rule.psi
    if psi.form == "power" and psi.tau.denominator == 1:
        # exact integer comparison while the power stays in budget
        exponent = (psi.tau.numerator - 1) ** r
        if seed.bit_length() * exponent * 0.30103 <= digit_budget():
            return lhs <= seed ** exponent
    rhs_log = Phi_iter(psi, seed, r)
    return ln_int(lhs) <= rhs_log + 1e-9


@dataclass(frozen=True)
class RunCount:
    k: int
    count: int
    positions: tuple[int, ...]


def count_k_runs(rule: AssignmentRule, w: Word, k: int) -> RunCount:
    """Starts of k consecutive admissible digits inside the word.

    Position i (1-based over the tail) starts a run when each of the
    digits at i .. i+k-1 is admissible after its preceding prefix.
    Overlapping runs all count.
    """
    if k < 1:
        raise PreconditionViolated("k must be >= 1")
    tail = w.tail
    ok = []
    for i in range(1, len(tail) + 1):
        prefix = Word(w.head, tail[: i - 1])
        ok.append(membership(rule, prefix, tail[i - 1]))
    starts = [
        i
        for i in range(1, len(tail) - k + 2)
        if all(ok[j - 1] for j in range(i, i + k))
    ]
    return RunCount(k, len(starts), tuple(starts))
