"""words-sweep: the a01 sweep of continuant identities and joining defects.

All 780 digit tuples of length 1-4 over [1, 5], paired with each other:
780^2 ``continuant_identity_check`` calls and 780^2 ``joining_defect``
calls. No other workload calls ``words``, because cascade and fourier
inline their recurrences. The calls are small and exact, so this measures
per-call overhead, such as the environment read in ``guard_int``. Spans
cover one batch, one left word against all 780 right words, so that 1.2 M
tiny calls are not each timed. The workload is deterministic; the seed is
unused.
"""

import itertools
import math
from dataclasses import dataclass

from cfraj.words import Word, continuant_identity_check, joining_defect

N_BOUND = 5
MAX_LENGTH = 4


@dataclass(frozen=True)
class State:
    tails: list
    lefts: list
    rights: list


def setup(seed, tracer, tally) -> State:
    tails = [t for n in range(1, MAX_LENGTH + 1)
             for t in itertools.product(range(1, N_BOUND + 1), repeat=n)]
    tally.check(len(tails) == 780, "tuple count")
    return State(tails=tails,
                 lefts=[Word(0, t) for t in tails],
                 rights=[Word(t[0], t[1:]) for t in tails])


def run(state: State, tracer, tally) -> None:
    tails, rights = state.tails, state.rights
    # joining_defect guarantees a value in [0, log(2 (N + 1))]
    lo, hi = -1e-12, math.log(2 * (N_BOUND + 1)) + 1e-12
    for u, left in zip(tails, state.lefts):
        with tracer.span("words.batch"):
            with tracer.span("words.continuant_identity_check",
                             calls=len(tails)):
                same = [continuant_identity_check(u, v) for v in tails]
            with tracer.span("words.joining_defect", calls=len(rights)):
                defects = [float(joining_defect(left, b, N_BOUND))
                           for b in rights]
            tally.check_many(len(same), same.count(False),
                             f"continuant identity fails for {u}")
            tally.check_many(len(defects),
                             sum(not lo <= d <= hi for d in defects),
                             f"joining defect out of range for {u}")
