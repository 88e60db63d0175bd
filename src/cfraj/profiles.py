"""Constant profiles: paper-strength vs desk-scale parameter sets."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .blocks import DEFAULT_ENUM_BUDGET


@dataclass(frozen=True)
class Profile:
    name: str
    beta_prime: Fraction
    lemma_eps: Fraction
    lemma_beta_offset: Fraction
    gap_factor: int

    @property
    def lemma_beta(self) -> Fraction:
        return self.beta_prime - self.lemma_beta_offset


DESK = Profile(
    name="desk",
    beta_prime=Fraction(3, 2),
    lemma_eps=Fraction(1, 4),
    lemma_beta_offset=Fraction(2, 100),
    gap_factor=10,
)

# The strict profile keeps the source constants. It is constructed and
# checkable, but strict_feasibility below reports the block sizes it
# would demand; at enumerable sizes it is not attainable.
STRICT = Profile(
    name="strict",
    beta_prime=Fraction(198, 100),
    lemma_eps=Fraction(1, 100),
    lemma_beta_offset=Fraction(2, 100),
    gap_factor=100,
)


def get_profile(name: str, beta_prime=None) -> Profile:
    base = {"desk": DESK, "strict": STRICT}[name]
    return base if beta_prime is None else replace(
        base, beta_prime=Fraction(beta_prime))


def strict_feasibility(n_bound: int, p: int,
                       enumeration_budget: int = DEFAULT_ENUM_BUDGET) -> dict:
    """What the strict profile demands versus what is enumerable.

    The strict constants require sigma >= 10^4 * log(2(N+1)) before the
    window and mass exponents engage, while the block continuant can
    reach at most about p * log(N+1). The report quantifies the gap
    instead of hiding it.
    """
    c_n = math.log(2 * (n_bound + 1))
    required_sigma = 10_000 * c_n
    max_log_k = p * math.log(n_bound + 1)
    required_p = math.ceil(required_sigma / math.log(n_bound + 1))
    feasible_enum = n_bound**required_p <= enumeration_budget
    return {
        "c_n": c_n,
        "required_sigma": required_sigma,
        "attainable_log_continuant": max_log_k,
        "required_block_length": required_p,
        "enumeration_budget": enumeration_budget,
        "enumerable_at_required_size": feasible_enum,
        "feasible": max_log_k >= required_sigma and feasible_enum,
    }
