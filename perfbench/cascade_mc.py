"""cascade-mc: cascade sampling and exact rational phase folding.

On the a10 cascade (2-atom nu anchored at (6, 2), 7 stages, horizon 130):
2,000 seeded ``sample_path`` draws at depth 128, each ``classify``d and its
mass checked exactly, then a Monte Carlo ``decay_scan`` at depth 128 with
8,000 samples at 40.0 and six integer frequencies of 150-200 bits. On the
a06 cascade: a depth-13 cylinder scan against a 20,000-sample Monte Carlo
scan over 2^0..2^11. This is where the sampler and the ``Fraction`` fold of
integer frequencies do their work; block enumeration is negligible.
"""

from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from cfraj.blocks import build_nu, verify_window
from cfraj.cascade import (
    LambdaMeasure,
    build_lambda,
    classify,
    sample_path,
    split_typ_exc,
)
from cfraj.errors import CfrajError
from cfraj.fourier import _lambda_leaves, decay_scan, fourier_cylinder_sum
from cfraj.rules import AssignmentRule
from cfraj.schedule import Schedule

from checker import record_scan

PATHS = 2000
PATH_DEPTH = 128
A10_SAMPLES = 8000
A06_DEPTH = 13
A06_SAMPLES = 20000
A06_XIS = [2**k for k in range(12)]
SYMMETRY_XIS = (1, 8, 2**11)


@dataclass(frozen=True)
class State:
    seed: int
    a10: LambdaMeasure
    a10_xis: list
    a06: LambdaMeasure
    a06_leaves: int


def _cascade(tracer, tally, anchor, n_bound, eps, i, r, horizon):
    with tracer.span("blocks.build_nu"):
        nu = build_nu(n_bound, 1, None, eps, sigma_anchor=anchor)
    with tracer.span("blocks.verify_window"):
        tally.check(verify_window(nu), f"measure anchored at {anchor} fails "
                    "its window")
    sch = Schedule(i=i, r=r, p=1, sigma=nu.sigma,
                   rule=AssignmentRule.sum_of_previous())
    with tracer.span("cascade.build_lambda"):
        return build_lambda(nu, sch, horizon)


def setup(seed, tracer, tally) -> State:
    a10 = _cascade(tracer, tally, (6, 2), 3, Fraction(1, 4),
                   (2, 4, 7, 11, 16, 22, 29), (1, 1, 1, 2, 2, 2, 3), 130)
    a06 = _cascade(tracer, tally, (5, 1), 5, Fraction(3, 10),
                   (2, 4, 7, 11), (1, 1, 1, 1), A06_DEPTH)
    # frequencies pinned to scale indices 16..21, all inside stage 5, as
    # exact integers of 150 to 200 bits
    with mp.workdps(80):
        ratio = mp.mpf(a10.nu.sigma) * 358 / 50
        xis = [int(mp.floor(mp.exp((i + mp.mpf(1) / 2) * ratio)))
               for i in range(16, 22)]
    # the points a cylinder scan evaluates per frequency
    leaves = len(_lambda_leaves(a06, A06_DEPTH))
    return State(seed=seed, a10=a10, a10_xis=xis, a06=a06, a06_leaves=leaves)


def check_path(tally, lm: LambdaMeasure, path, state) -> None:
    """A sampled path is valid and its mass is exactly atom^typical."""
    tally.check(
        len(path) == PATH_DEPTH and state.valid
        and state.mass == lm.nu.atom**state.typical_count,
        f"sampled path has mass {state.mass}, typical count "
        f"{state.typical_count}",
    )


def _paths(state: State, tracer, tally) -> None:
    lm = state.a10
    for k in range(state.seed * PATHS, (state.seed + 1) * PATHS):
        try:
            with tracer.span("cascade.sample_path"):
                path = sample_path(lm, PATH_DEPTH, k)
            with tracer.span("cascade.classify"):
                walked = classify(lm, path)
        except CfrajError as exc:
            tally.check(False, f"path seed {k}: {exc!r}")
            continue
        check_path(tally, lm, path, walked)


def _a10_scan(state: State, tracer, tally) -> None:
    lm = state.a10
    with tracer.span("fourier.decay_scan.montecarlo"):
        table = decay_scan(lm, [40.0] + state.a10_xis, "montecarlo",
                           PATH_DEPTH, samples=A10_SAMPLES, seed=state.seed)
    record_scan(tally, table, A10_SAMPLES, result=False)
    deep_rows = 0
    for row in table.rows:
        # |full| <= exc + |typ| holds for the measure; the estimates carry
        # 3/sqrt(n) sampling terms, so a miss is statistical
        tally.mc_check(abs(row.full.value) <= float(row.exc_tv)
                       + abs(row.typ.value) + row.full.err_bound
                       + row.typ.err_bound + 1e-12)
        with tracer.span("cascade.split_typ_exc"):
            split = split_typ_exc(lm, row.xi)
        tally.check(split.exc_mass == row.exc_tv
                    and split.n_index == row.n_index,
                    f"scan row at xi = {row.xi} disagrees with split_typ_exc")
        if row.n_index >= 2:
            deep_rows += 1
            tally.check(row.exc_tv <= Fraction(6, row.n_index - 1),
                        f"exceptional mass {row.exc_tv} at n = {row.n_index}")
    tally.check(deep_rows == len(state.a10_xis), "deep row count")


def _a06_scans(state: State, tracer, tally) -> None:
    lm, leaves = state.a06, state.a06_leaves
    with tracer.span("fourier.decay_scan.cylinder"):
        cyl = decay_scan(lm, A06_XIS, "cylinder", A06_DEPTH)
    with tracer.span("fourier.decay_scan.montecarlo"):
        mc = decay_scan(lm, A06_XIS, "montecarlo", A06_DEPTH,
                        samples=A06_SAMPLES, seed=state.seed)
    record_scan(tally, cyl, leaves, result=True)
    record_scan(tally, mc, A06_SAMPLES, result=False)
    for a, b in zip(cyl.rows, mc.rows):
        tally.mc_check(abs(a.full.value - b.full.value)
                       <= a.full.err_bound + b.full.err_bound)
    for xi in SYMMETRY_XIS:
        with tracer.span("fourier.fourier_cylinder_sum"):
            pos = fourier_cylinder_sum(lm, xi, A06_DEPTH)
        with tracer.span("fourier.fourier_cylinder_sum"):
            neg = fourier_cylinder_sum(lm, -xi, A06_DEPTH)
        tally.count("fourier.phase_evals", 2 * leaves)
        row = cyl.rows[A06_XIS.index(xi)].full
        tally.check(neg.value == pos.value.conjugate(),
                    f"conjugate symmetry fails at xi = {xi}")
        tally.check(pos.value == row.value and pos.err_bound == row.err_bound,
                    f"single-frequency sum differs from the scan at xi = {xi}")


def run(state: State, tracer, tally) -> None:
    _paths(state, tracer, tally)
    _a10_scan(state, tracer, tally)
    _a06_scans(state, tracer, tally)


def probe(state: State, tracer, tally) -> None:
    """Time the public sampler on as many draws, at the same depths, as the
    Monte Carlo scans make.

    The draws are seeded one by one, so they are not the paths the scans
    sample from their single seeded stream: the public API cannot replay it.
    """
    for lm, depth, samples in ((state.a10, PATH_DEPTH, A10_SAMPLES),
                               (state.a06, A06_DEPTH, A06_SAMPLES)):
        with tracer.span("cascade.sample_path", calls=samples):
            for k in range(samples):
                sample_path(lm, depth, k)
