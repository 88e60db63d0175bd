"""lemma-sweep: 600 seeded oscillatory-lemma cases.

200 cases each of the nonstationary and stationary phase lemmas and of the
mass-vs-L2 integral inequality (depth 5 on the a08 measure). The work is
scipy ``quad``, ``PhaseFunction`` evaluation and certified grids; this is
the only workload that imports scipy. Every case must hold, and none may
raise ``CertificationFailed``.
"""

import random
from dataclasses import dataclass
from fractions import Fraction

from cfraj.blocks import NuMeasure, build_nu, verify_window
from cfraj.errors import CertificationFailed, CfrajError
from cfraj.oscillatory import (
    check_integral_inequality,
    check_nonstationary,
    check_stationary,
    integral_sweep_case,
    nonstationary_sweep_case,
    stationary_sweep_case,
)

CASES = 200
DEPTH = 5


@dataclass(frozen=True)
class State:
    seed: int
    nu: NuMeasure


def setup(seed, tracer, tally) -> State:
    with tracer.span("blocks.build_nu"):
        nu = build_nu(3, 1, None, Fraction(1, 4), sigma_anchor=(6, 2))
    with tracer.span("blocks.verify_window"):
        tally.check(verify_window(nu), "a08 measure fails its window")
    return State(seed=seed, nu=nu)


def run(state: State, tracer, tally) -> None:
    sweeps = (
        ("nonstationary", nonstationary_sweep_case, check_nonstationary, {}),
        ("stationary", stationary_sweep_case, check_stationary, {}),
        ("integral", integral_sweep_case, check_integral_inequality,
         {"measure": state.nu, "depth": DEPTH}),
    )
    for lemma, make, check, extra in sweeps:
        rng = random.Random(f"{state.seed}:{lemma}")
        for k in range(CASES):
            tally.count("oscillatory.cases")
            try:
                with tracer.span(f"oscillatory.{make.__name__}"):
                    case = make(rng)
                with tracer.span(f"oscillatory.{check.__name__}"):
                    rep = check(case, **extra)
            except CfrajError as exc:
                if isinstance(exc, CertificationFailed):
                    tally.count("oscillatory.certification_failed")
                tally.check(False, f"{lemma} case {k}: {exc!r}")
                continue
            tally.check(rep.ok, f"{lemma} case {k}: {rep.lhs} exceeds "
                        f"{rep.rhs} + {rep.slack}")
