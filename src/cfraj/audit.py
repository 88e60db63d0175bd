"""Exact-rational audit of the decay-exponent bookkeeping.

The chain that turns the scale parameter alpha into a final decay
exponent is recomputed symbolically with Fractions and set against the
recorded values it is supposed to reproduce. Discrepant rows are
flagged, not failed: the audit's job is to surface them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import ALPHA_DEFAULT
from .errors import PreconditionViolated

Rat = Union[int, Fraction]

#: alpha at which the recorded column applies
REFERENCE_ALPHA = ALPHA_DEFAULT

# recorded exponents at alpha = 50/358 (source derivation's own table)
_RECORDED = {
    "deriv_sup": Fraction(244, 358),
    "l2_mass": Fraction(-99, 358),
    "sum_shared_q": Fraction(-200, 358),
    "sum_distinct_q": Fraction(-97, 358),
    "sum_diagonal": Fraction(-97, 358),
    "decay": Fraction(-1, 100),
}

ENTRY_ORDER = tuple(_RECORDED)


@dataclass(frozen=True)
class AuditRow:
    recorded: Optional[Fraction]
    recomputed: Fraction

    @property
    def flagged(self) -> bool:
        return self.recorded is not None and self.recorded != self.recomputed


@dataclass(frozen=True)
class ExponentAudit:
    alpha: Fraction
    entries: dict[str, AuditRow]

    @property
    def flags(self) -> tuple[str, ...]:
        return tuple(k for k, row in self.entries.items() if row.flagged)


def exponent_audit(alpha: Rat = REFERENCE_ALPHA) -> ExponentAudit:
    """Recompute the exponent chain at a given alpha.

    deriv_sup: growth exponent of the phase-derivative bound,
    1 - (198/100) alpha. l2_mass: max of the three pair-class
    exponents. decay: the final combination (1/10) deriv_sup +
    (3/10) l2_mass. The recorded column is only populated at the
    reference alpha; elsewhere it is None.
    """
    alpha = Fraction(alpha)
    if not 0 < alpha < Fraction(100, 328):
        raise PreconditionViolated(
            f"alpha must lie in (0, 100/328), got {alpha}"
        )
    shared = -(1 - Fraction(316, 100) * alpha)
    distinct = -(1 - Fraction(328, 100) * alpha) / 2
    diagonal = -Fraction(194, 100) * alpha
    l2_mass = max(shared, distinct, diagonal)
    deriv_sup = 1 - Fraction(198, 100) * alpha
    decay = Fraction(1, 10) * deriv_sup + Fraction(3, 10) * l2_mass
    recomputed = {
        "deriv_sup": deriv_sup,
        "l2_mass": l2_mass,
        "sum_shared_q": shared,
        "sum_distinct_q": distinct,
        "sum_diagonal": diagonal,
        "decay": decay,
    }
    recorded = _RECORDED if alpha == REFERENCE_ALPHA else {}
    entries = {
        name: AuditRow(recorded.get(name), recomputed[name])
        for name in ENTRY_ORDER
    }
    return ExponentAudit(alpha=alpha, entries=entries)


def format_audit(audit: ExponentAudit) -> str:
    """Two-column exact-rational table, one row per entry."""
    lines = [f"exponent audit at alpha = {audit.alpha}"]
    lines.append(f"{'entry':<16}{'recorded':>14}{'recomputed':>14}  flag")
    for name, row in audit.entries.items():
        rec = "-" if row.recorded is None else str(row.recorded)
        mark = "*" if row.flagged else ""
        lines.append(f"{name:<16}{rec:>14}{str(row.recomputed):>14}  {mark}")
    return "\n".join(lines)
