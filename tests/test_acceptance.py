"""Release gates: ten end-to-end checks, one verdict line each.

Every test pins a full configuration and asserts exact identities,
certified inequalities, or thresholds frozen by the committed oracle
run (tests/data/prerun_oracle.json, regenerated only by a deliberate
rerun of tools/prerun_oracle.py). Stated runtime ceilings are part of
the contract and asserted alongside the math. Run with

    pytest tests/test_acceptance.py -v

for the one-line-per-gate summary.
"""

import itertools
import json
import math
import os
import time
from fractions import Fraction

import mpmath as mp
import pytest

from cfraj.audit import exponent_audit, format_audit
from cfraj.blocks import (
    build_nu,
    frostman_ceiling,
    frostman_scan,
    median_log_continuant,
    top_half_split,
    verify_window,
)
from cfraj.cascade import build_lambda, classify, weight_ratio_bound, xn_mass
from cfraj.fourier import decay_scan, decay_slope, fourier_cylinder_sum
from cfraj.oscillatory import run_sweep
from cfraj.rules import AssignmentRule, PsiFamily, rho_value
from cfraj.schedule import (
    Schedule,
    check_gap_condition,
    check_superlacunary,
    make_schedule_psi,
    weight,
)
from cfraj.words import Word, continuant_identity_check, joining_defect

ORACLE_PATH = os.path.join(os.path.dirname(__file__), "data",
                           "prerun_oracle.json")


@pytest.fixture(scope="module")
def oracle():
    with open(ORACLE_PATH) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def reference_nu():
    """The 10^6-enumeration block measure every decay gate runs on."""
    sigma, anchor = median_log_continuant(100, 3, weighting="lebesgue")
    return build_nu(100, 3, None, Fraction(1, 4), sigma_anchor=anchor), sigma


@pytest.fixture(scope="module")
def pair_nu():
    # two-digit blocks, log-continuant within 30% of 2: K in {5, 7, 7, 10}
    return build_nu(3, 2, 2.0, Fraction(3, 10))


def test_a01_continuant_splitting_and_joining_sweep():
    started = time.monotonic()
    tails = []
    for length in range(1, 5):
        tails.extend(itertools.product(range(1, 6), repeat=length))
    assert len(tails) == 780

    for u in tails:
        for v in tails:
            assert continuant_identity_check(u, v)

    lefts = [Word(0, t) for t in tails]
    rights = [Word(t[0], t[1:]) for t in tails]
    hi = math.log(12)  # log(2 (N + 1)) at N = 5
    for a in lefts:
        for b in rights:
            d = float(joining_defect(a, b, 5))
            assert -1e-12 <= d <= hi + 1e-12
    assert time.monotonic() - started < 60


def test_a02_block_measure_window_and_dimension(reference_nu, oracle):
    started = time.monotonic()
    nu, sigma = reference_nu
    assert verify_window(nu)
    assert nu.atom * len(nu.support) == 1
    assert nu.beta_achieved >= 1.5

    recorded = oracle["reference_measure"]
    assert len(nu.support) == recorded["support_size"]
    assert nu.beta_achieved == pytest.approx(recorded["beta_achieved"],
                                             abs=1e-12)
    assert sigma == pytest.approx(recorded["sigma"], abs=1e-12)
    assert time.monotonic() - started < 300


def test_a03_top_half_splits_balance(reference_nu):
    nu, _ = reference_nu
    for level in (1, 2, 3):
        split = top_half_split(nu, level)
        gap = abs(split.mass - Fraction(1, 2))
        assert gap <= nu.atom**level


def _forced_block(lm, state):
    """Next block when the walker sits on a stage boundary."""
    q, qp, dsum = state.q, state.q_prev, state.digit_sum
    digits = []
    for _ in range(lm.nu.p):
        d = rho_value(lm.rule, q, dsum)
        digits.append(d)
        q, qp = d * q + qp, q
        dsum += d
    return tuple(digits)


def _assert_children_sum(lm, prefix, state, limit):
    if len(prefix) == limit:
        return 0
    sch = lm.schedule
    kids = {tuple(b) for b in lm.nu.support}
    if state.label <= sch.depth and len(prefix) == sch.i[state.label - 1]:
        kids.add(_forced_block(lm, state))
    total = Fraction(0)
    checked = 1
    for b in sorted(kids):
        st = classify(lm, prefix + [b])
        total += st.mass
        if st.valid and st.mass:
            checked += _assert_children_sum(lm, prefix + [b], st, limit)
    assert total == state.mass
    return checked


def test_a04_cascade_mass_bookkeeping(pair_nu):
    sch = make_schedule_psi(PsiFamily.power(3), pair_nu, r_list=(1, 2),
                            i1=4, depth=2)
    assert sch.i == (4, 96)
    lm = build_lambda(pair_nu, sch, horizon=99)

    assert xn_mass(lm, 1) == 1
    assert xn_mass(lm, 2) + xn_mass(lm, 3) == 1
    assert xn_mass(lm, 2) == xn_mass(lm, 4) + xn_mass(lm, 5)
    bound = Fraction(8, 2 ** sch.i[0])
    for n in range(2, 6):
        assert weight_ratio_bound(lm, n) <= bound
        assert xn_mass(lm, n) > 0

    # block tree through the first forced round: 4 typical levels, the
    # forced digits at position five, one typical level after
    nodes = _assert_children_sum(lm, [], classify(lm, []), limit=6)
    assert nodes > 500


def test_a05_schedule_growth_lacunarity_and_gap(pair_nu):
    s = make_schedule_psi(PsiFamily.power(3), pair_nu, r_list=(1, 2, 3),
                          i1=4, depth=3)
    assert s.i == (4, 96, 9216)

    lac = check_superlacunary(s, 10)
    assert lac.ok and lac.n0 == 1

    corrupted = Schedule(i=(4, 96, 400), r=s.r, p=s.p, sigma=s.sigma,
                         rule=s.rule)
    rep = check_gap_condition(corrupted, pair_nu)
    assert not rep.ok
    assert rep.margins[rep.first_fail - 1] < 0


def test_a06_fourier_estimators_cross_validate():
    started = time.monotonic()
    nu = build_nu(5, 1, None, Fraction(3, 10), sigma_anchor=(5, 1))
    sch = Schedule(i=(2, 4, 7, 11), r=(1, 1, 1, 1), p=1, sigma=nu.sigma,
                   rule=AssignmentRule.sum_of_previous())
    lm = build_lambda(nu, sch, 13)

    xis = [2**k for k in range(12)]
    cyl = decay_scan(lm, xis, "cylinder", 13)
    mc = decay_scan(lm, xis, "montecarlo", 13, samples=20000, seed=0)
    for a, b in zip(cyl.rows, mc.rows):
        assert abs(a.full.value - b.full.value) <= (
            a.full.err_bound + b.full.err_bound
        )

    zero = fourier_cylinder_sum(lm, 0, 13)
    assert zero.value == 1 + 0j and zero.err_bound == 0.0
    for xi in (1, 8, 2**11):
        pos = fourier_cylinder_sum(lm, xi, 13)
        neg = fourier_cylinder_sum(lm, -xi, 13)
        assert neg.value == pos.value.conjugate()
    assert time.monotonic() - started < 300


def test_a07_decay_trend_and_ball_growth_thresholds(reference_nu, oracle):
    nu, _ = reference_nu
    recorded = oracle["decay_experiment"]
    scan_cfg = recorded["scan"]
    assert scan_cfg["method"] == "cylinder"

    xis = [2**k for k in scan_cfg["xi_pows"]]
    table = decay_scan(nu, xis, "cylinder", scan_cfg["depth"])
    for row, frozen in zip(table.rows, recorded["rows"]):
        assert abs(row.full.value) == pytest.approx(frozen["abs"], abs=1e-9)
    slope = decay_slope(table)
    assert slope == pytest.approx(recorded["slope"], abs=1e-9)
    assert slope <= recorded["slope_threshold"]

    frost_cfg = recorded["frostman"]
    widths = [2.0**k for k in frost_cfg["width_pows"]]
    scan = frostman_scan(nu, frost_cfg["depth"], widths)
    fitted = scan.fitted_exponent
    assert fitted == pytest.approx(frost_cfg["fitted"], abs=1e-9)
    worst, mean = frostman_ceiling(nu)
    assert fitted >= recorded["frostman_threshold"], (
        f"ball-growth fitted exponent {fitted:.4f} is below the "
        f"pre-registered threshold {recorded['frostman_threshold']}; the "
        f"committed oracle run records the same value "
        f"({frost_cfg['fitted']:.4f}), so the shortfall is not a "
        f"regression; nor is it a resolution cap of the "
        f"depth-{frost_cfg['depth']} scan, since the depth-3 scan of the "
        f"same measure fits 0.6951; frostman_ceiling caps any Frostman "
        f"exponent valid at every scale at log s / (2 log q_max) = "
        f"{worst:.4f} (mean block: {mean:.4f})"
    )


def test_a08_oscillatory_lemma_sweeps():
    started = time.monotonic()
    nu = build_nu(3, 1, None, Fraction(1, 4), sigma_anchor=(6, 2))
    for lemma in ("nonstationary", "stationary"):
        rep = run_sweep(lemma, count=200)
        assert rep.cases == 200 and not rep.violations
    rep = run_sweep("integral", count=200, measure=nu, depth=5)
    assert rep.cases == 200 and not rep.violations
    assert time.monotonic() - started < 300


def test_a09_exponent_audit_reproduction():
    audit = exponent_audit()
    entries = audit.entries

    for name in ("sum_distinct_q", "sum_diagonal"):
        assert entries[name].recorded == Fraction(-97, 358)
        assert entries[name].recomputed == Fraction(-97, 358)
        assert not entries[name].flagged

    assert entries["l2_mass"].recomputed == max(
        entries["sum_shared_q"].recomputed,
        entries["sum_distinct_q"].recomputed,
        entries["sum_diagonal"].recomputed,
    )

    disputed = entries["deriv_sup"]
    assert disputed.recorded == Fraction(244, 358)
    assert disputed.recomputed == Fraction(259, 358)
    assert disputed.flagged

    # discrepancies surface as flags in the report, never as failures
    assert audit.flags == ("deriv_sup", "l2_mass", "decay")
    assert format_audit(audit).count("*") == 3


def test_a10_typical_exceptional_triangle():
    nu = build_nu(3, 1, None, Fraction(1, 4), sigma_anchor=(6, 2))
    sch = Schedule(i=(2, 4, 7, 11, 16, 22, 29), r=(1, 1, 1, 2, 2, 2, 3),
                   p=1, sigma=nu.sigma, rule=AssignmentRule.sum_of_previous())
    lm = build_lambda(nu, sch, 130)

    # frequencies pinned to scale indices 16..21 (all inside stage 5),
    # materialized as exact integers of 150 to 200 bits
    mp.mp.dps = 80
    ratio = mp.mpf(nu.sigma) * 358 / 50
    xis = [int(mp.floor(mp.exp((i + mp.mpf(1) / 2) * ratio)))
           for i in range(16, 22)]
    assert min(x.bit_length() for x in xis) > 150

    table = decay_scan(lm, [40.0] + xis, "montecarlo", 128,
                       samples=8000, seed=11)
    deep_rows = 0
    for row in table.rows:
        lhs = abs(row.full.value)
        rhs = (float(row.exc_tv) + abs(row.typ.value)
               + row.full.err_bound + row.typ.err_bound)
        assert lhs <= rhs + 1e-12
        if row.n_index >= 2:
            deep_rows += 1
            assert row.exc_tv <= Fraction(6, row.n_index - 1)
    assert deep_rows == 6
