"""ref-decay: the paper's headline experiment on the reference measure.

The reference block measure (N = 100, p = 3, Lebesgue-median sigma,
eps = 1/4, 190 atoms) gets a depth-3 cylinder decay scan at the oracle's 15
frequencies 2^4..2^18 and a depth-3 Frostman scan over the oracle's 12
widths, both with an enumeration budget of 10^7. The work is block
enumeration and the numpy float fold: no cascade, no exact folding and no
scipy, so sampler and integer-fold changes leave it alone. The depth-2 scans
are the checks: they must match the frozen oracle, read-only. The workload
is deterministic; the seed is unused.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from cfraj.blocks import (
    NuMeasure,
    build_nu,
    cylinder_geometry,
    frostman_scan,
    median_log_continuant,
    product_convergent_matrices,
    sliding_max_mass,
    verify_window,
)
from cfraj.fourier import decay_scan, decay_slope

from checker import record_scan

ORACLE = Path("tests/data/prerun_oracle.json")
DEPTH = 3
BUDGET = 10**7
TOL = 1e-9


@dataclass(frozen=True)
class State:
    nu: NuMeasure
    oracle: dict
    xis: list
    widths: list


def setup(seed, tracer, tally) -> State:
    with tracer.span("blocks.median_log_continuant"):
        sigma, anchor = median_log_continuant(100, 3, weighting="lebesgue")
    with tracer.span("blocks.build_nu"):
        nu = build_nu(100, 3, None, Fraction(1, 4), sigma_anchor=anchor)
    with tracer.span("blocks.verify_window"):
        tally.check(verify_window(nu), "reference measure fails its window")
    oracle = json.loads(ORACLE.read_text())
    ref = oracle["reference_measure"]
    tally.check(len(nu.support) == ref["support_size"], "support size")
    tally.check(abs(sigma - ref["sigma"]) <= 1e-12, "median sigma")
    tally.check(abs(nu.beta_achieved - ref["beta_achieved"]) <= 1e-12,
                "achieved beta")
    exp = oracle["decay_experiment"]
    return State(
        nu=nu,
        oracle=exp,
        xis=[2**k for k in exp["scan"]["xi_pows"]],
        widths=[2.0**k for k in exp["frostman"]["width_pows"]],
    )


def check_oracle_rows(tally, table, oracle: dict) -> None:
    """The depth-2 scan must reproduce the frozen rows and slope to 1e-9."""
    frozen = oracle["rows"]
    tally.check(len(table.rows) == len(frozen), "oracle row count")
    for row, want in zip(table.rows, frozen):
        tally.check(
            row.xi == 2 ** want["xi_pow"]
            and abs(abs(row.full.value) - want["abs"]) <= TOL
            and abs(row.full.err_bound - want["err"]) <= TOL,
            f"decay row at xi = 2^{want['xi_pow']} differs from the oracle",
        )
    tally.check(abs(decay_slope(table) - oracle["slope"]) <= TOL,
                "decay slope differs from the oracle")


def check_refinement(tally, shallow, deep) -> None:
    """Both depths bound the same transform, so rows agree within both bounds."""
    for a, b in zip(shallow.rows, deep.rows):
        tally.check(
            abs(a.full.value - b.full.value)
            <= a.full.err_bound + b.full.err_bound,
            f"depth-{deep.depth} row at xi = {a.xi} leaves the depth-"
            f"{shallow.depth} bound",
        )


def check_frostman(tally, shallow, deep, oracle: dict) -> None:
    frozen = oracle["frostman"]
    tally.check(abs(shallow.fitted_exponent - frozen["fitted"]) <= TOL,
                "Frostman fit differs from the oracle")
    tally.check(len(shallow.omega) == len(frozen["omega"]), "ball mass count")
    for got, want in zip(shallow.omega, frozen["omega"]):
        tally.check(abs(got - want) <= TOL, "ball mass differs from the oracle")
    # widths shrink along the scan, so captured mass may not grow
    omega = deep.omega
    tally.check(all(0 < w <= 1 for w in omega), "ball mass outside (0, 1]")
    tally.check(all(a >= b for a, b in zip(omega, omega[1:])),
                "ball mass grows as the width shrinks")


def run(state: State, tracer, tally) -> None:
    nu, oracle = state.nu, state.oracle
    with tracer.span("fourier.decay_scan.cylinder"):
        shallow = decay_scan(nu, state.xis, "cylinder", oracle["scan"]["depth"])
    with tracer.span("fourier.decay_scan.cylinder"):
        deep = decay_scan(nu, state.xis, "cylinder", DEPTH, budget=BUDGET)
    s = len(nu.support)
    record_scan(tally, shallow, s ** shallow.depth, result=False)
    record_scan(tally, deep, s**DEPTH, result=True)
    check_oracle_rows(tally, shallow, oracle)
    check_refinement(tally, shallow, deep)

    with tracer.span("blocks.frostman_scan"):
        shallow_f = frostman_scan(nu, oracle["frostman"]["depth"], state.widths)
    with tracer.span("blocks.frostman_scan"):
        deep_f = frostman_scan(nu, DEPTH, state.widths, budget=BUDGET)
    check_frostman(tally, shallow_f, deep_f, oracle)


def probe(state: State, tracer, tally) -> None:
    """Time the enumeration and ball-mass kernels that the scans run inside."""
    s = len(state.nu.support)
    for depth in sorted({state.oracle["scan"]["depth"], DEPTH}):
        with tracer.span("blocks.product_convergent_matrices"):
            mats = product_convergent_matrices(state.nu, depth, BUDGET)
        tally.count("blocks.product_convergent_matrices.cylinders", len(mats))
        tally.count("blocks.product_convergent_matrices.bytes", 32 * len(mats))
        mids = np.sort(cylinder_geometry(mats)[0])
        del mats
        with tracer.span("blocks.sliding_max_mass"):
            sliding_max_mass(mids, 1.0 / float(s) ** depth, state.widths)

