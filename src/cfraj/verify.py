"""Invariant suites behind `cfraj verify`.

Each suite is a fast spot check of one module's contracts, returning a
SuiteReport of named pass/fail lines. The audit suite never fails on a
flagged discrepancy; surfacing it is the point. A lemma check whose
hypotheses the fixed configuration does not meet is a "reported" line:
it prints its margins, names what is unmet and always passes. Each
suite imports the modules it checks, so loading this module (the CLI's
parser reads SUITE_NAMES) loads no numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import product as iter_product
from types import SimpleNamespace

from . import SWEEP_SEED, VERIFY_CASES
from .audit import exponent_audit, format_audit
from .errors import PreconditionViolated
from .words import Word, continuant_identity_check, continuant_pair, \
    cylinder_interval, evaluate, joining_defect

SUITE_NAMES = ("cf", "nu", "lambda", "fourier", "lemmas", "audit")


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def _desk_nu():
    from .blocks import build_nu
    return build_nu(3, 1, None, Fraction(1, 4), sigma_anchor=(6, 2))


def _toy_lambda():
    from .blocks import build_nu
    from .cascade import build_lambda
    from .rules import AssignmentRule
    from .schedule import Schedule
    nu = build_nu(5, 1, None, Fraction(3, 10), sigma_anchor=(5, 1))
    sch = Schedule(i=(2, 4, 7, 11), r=(1, 1, 1, 1), p=1, sigma=nu.sigma,
                   rule=AssignmentRule.sum_of_previous())
    return build_lambda(nu, sch, horizon=13)


def suite_cf() -> SuiteReport:
    checks = []
    words = [t for ln in (1, 2, 3)
             for t in iter_product(range(1, 5), repeat=ln)]
    split_ok = all(continuant_identity_check(u, v)
                   for u in words for v in words)
    checks.append(CheckResult(
        "continuant splitting identity", split_ok,
        f"{len(words)}^2 word pairs, entries <= 4"))

    cap = math.log(2 * 5)
    lefts = [Word(0, u) for u in words]
    rights = [Word(v[0], v[1:]) for v in words[:40]]
    defects = [joining_defect(a, b, 4) for a in lefts for b in rights]
    checks.append(CheckResult(
        "joining defect in [0, log 2(N+1)]",
        all(0.0 <= d <= cap for d in defects),
        f"{len(defects)} joins, max {max(defects):.4f} vs cap {cap:.4f}"))

    geom_ok = True
    for tail in iter_product(range(1, 5), repeat=3):
        w = Word(0, tail)
        iv = cylinder_interval(w)
        pair = continuant_pair(w)
        want = Fraction(1, pair.q * (pair.q + pair.q_prev))
        if not (iv.lo <= evaluate(w) <= iv.hi and iv.width == want):
            geom_ok = False
    checks.append(CheckResult(
        "cylinder width is 1/(q(q+q'))", geom_ok, "depth-3 words"))
    return SuiteReport("cf", tuple(checks))


def suite_nu(measure=None, profile: str = "desk") -> SuiteReport:
    from .blocks import (frostman_ceiling, qnu_exponent_check,
                         top_half_split, verify_window)
    from .profiles import get_profile, strict_feasibility
    checks = []
    nu = measure if measure is not None else _desk_nu()
    checks.append(CheckResult(
        "support atoms inside window (exact)", verify_window(nu),
        f"N={nu.n_bound} p={nu.p} |S|={len(nu.support)}"))
    checks.append(CheckResult(
        "atoms sum to 1 (exact)",
        nu.atom * len(nu.support) == 1, str(nu.atom)))
    split_ok = True
    worst = Fraction(0)
    for j in (1, 2, 3):
        split = top_half_split(nu, j)
        gap = abs(split.mass - Fraction(1, 2))
        worst = max(worst, gap)
        if gap > nu.atom**j:
            split_ok = False
    checks.append(CheckResult(
        "top-half splits within one atom of 1/2", split_ok,
        f"worst gap {worst}"))
    prof = get_profile(profile)
    beta_line = f"beta_achieved={nu.beta_achieved:.4f} " \
                f"target beta'={float(prof.beta_prime):.4f}"
    checks.append(CheckResult("beta reported", True, beta_line))
    if profile == "strict":
        feas = strict_feasibility(nu.n_bound, nu.p)
        checks.append(CheckResult(
            "strict-profile feasibility reported", True,
            f"feasible={feas['feasible']} "
            f"required_p={feas['required_block_length']}"))
    beta = float(prof.beta_prime)
    ratio = qnu_exponent_check(nu, list(nu.support) * 3)
    unmet = f"; unmet: beta_achieved={nu.beta_achieved:.4f} < beta'" \
        if nu.beta_achieved < beta else ""
    checks.append(CheckResult(
        "q_nu exponent reported", True,
        f"log mass/log q={ratio:.4f} on the support 3 times "
        f"vs -beta'={-beta:.4f}{unmet}"))
    worst, mean = frostman_ceiling(nu)
    checks.append(CheckResult(
        "Frostman ceiling reported", True,
        f"log s/(2 log q_max)={worst:.4f} "
        f"log s/(2 mean log q)={mean:.4f}"))
    return SuiteReport("nu", tuple(checks))


def suite_lambda() -> SuiteReport:
    from .cascade import (build_lambda, classify, lemma2_check, sample_path,
                          split_typ_exc, weight_ratio_bound, xn_mass)
    from .rules import (AssignmentRule, PsiFamily,
                        check_q2psi_nonincreasing, count_k_runs,
                        phir_bound_check)
    from .schedule import (check_gap_condition, check_superlacunary,
                           make_schedule_psi)
    checks = []
    lm = _toy_lambda()
    root_ok = xn_mass(lm, 2) + xn_mass(lm, 3) == 1
    checks.append(CheckResult("level-1 label masses sum to 1", root_ok))
    part_ok = all(
        xn_mass(lm, n) == xn_mass(lm, 2 * n) + xn_mass(lm, 2 * n + 1)
        for n in range(2, 4))
    checks.append(CheckResult("label mass splits to children", part_ok))
    bound = Fraction(8, 2**lm.schedule.i[0])
    ratio_ok = all(weight_ratio_bound(lm, n) <= bound
                   for n in (2, 3, 4, 5, 6, 7))
    checks.append(CheckResult(
        "label mass tracks dyadic weights", ratio_ok,
        f"bound 8*2^-i1 = {bound}"))
    split = split_typ_exc(lm, 5000.0, Fraction(2))
    tv_ok = split.exc_mass <= Fraction(6, split.n_index - 1)
    checks.append(CheckResult(
        "exceptional mass under 6/(n-1)", tv_ok,
        f"n={split.n_index} exc={split.exc_mass}"))

    # the toy cascade's stages moved apart, for typical prefixes
    wide = build_lambda(lm.nu, replace(lm.schedule, i=(8, 12, 16, 48)), 52)
    beta_prime, reps = Fraction(7, 20), []
    for seed in range(16):
        try:
            reps.append(lemma2_check(wide, sample_path(wide, 52, seed),
                                     beta_prime=beta_prime))
        except PreconditionViolated:
            pass  # in a stage set: not a typical prefix
    checks.append(CheckResult(
        "lemma 2 window and mass margins", bool(reps) and all(reps),
        f"beta'={beta_prime} < beta_achieved={lm.nu.beta_achieved:.4f}, "
        f"{len(reps)} of 16 length-52 paths typical, min window "
        f"{min((r.window_margin for r in reps), default=math.nan):.2f} "
        f"min mass {min((r.mass_margin for r in reps), default=math.nan):.2f}"))

    word = Word(0, (2,))
    held = {r: phir_bound_check(AssignmentRule.psi_power(4), word, r)
            for r in (1, 2, 3)}
    checks.append(CheckResult(
        "phi_r bound from r = 2", held[2] and held[3],
        f"tau=4 word 0,2: r=2 {held[2]} r=3 {held[3]}; r=1 {held[1]} "
        f"reported, the bound is stated for r >= 2"))

    probes = range(2, 65)
    checks.append(CheckResult(
        "q^2 psi(q) nonincreasing",
        check_q2psi_nonincreasing(PsiFamily.power(3), probes)
        and check_q2psi_nonincreasing(PsiFamily.exponential(), probes),
        "tau=3 and e^-q, q = 2..64"))

    # each label of a path's chain but its last took a forced run; from
    # block 3 on, the digit sum (>= 8) exceeds every support digit (<= 5),
    # so only a forced digit equals it and is admissible
    sch, runs_ok, seen = lm.schedule, True, set()
    for seed in range(8):
        path = sample_path(lm, 13, seed)
        forced = tuple(sch.i[n - 1] + j + 1
                       for n in classify(lm, path).chain[:-1]
                       for j in range(sch.r[n - 1]))
        word = Word(0, tuple(d for blk in path for d in blk))
        runs = tuple(i for i in count_k_runs(lm.rule, word, 1).positions
                     if i > 2)
        runs_ok, seen = runs_ok and runs == forced, seen | {runs}
    checks.append(CheckResult(
        "admissible runs past block 2 are the forced blocks", runs_ok,
        f"seeds 0-7, depth 13: {' '.join(map(str, sorted(seen)))}"))

    readme = make_schedule_psi(PsiFamily.power(3),
                               SimpleNamespace(p=2, sigma=2.0),
                               (1, 2, 3), i1=4, depth=3)
    lac = check_superlacunary(readme, 10)
    checks.append(CheckResult(
        "schedule superlacunary at R = 10", lac.ok,
        f"i={readme.i} ratios "
        f"{' '.join(f'{float(q):.2f}' for q in lac.ratios)} n0={lac.n0}"))
    gap = check_gap_condition(readme, None)
    checks.append(CheckResult(
        "gap condition (certified)", gap.ok,
        f"margins {' '.join(f'{m:.1f}' for m in gap.margins)}"))
    return SuiteReport("lambda", tuple(checks))


def suite_fourier() -> SuiteReport:
    from .fourier import decay_scan, fourier_cylinder_sum, fourier_monte_carlo
    checks = []
    nu = _desk_nu()
    est0 = fourier_cylinder_sum(nu, 0, 4)
    checks.append(CheckResult(
        "transform at zero is exactly 1",
        est0.value == 1 + 0j and est0.err_bound == 0.0))
    sym_ok = True
    for xi in (3, 11):
        pos = fourier_cylinder_sum(nu, xi, 4)
        neg = fourier_cylinder_sum(nu, -xi, 4)
        if neg.value != pos.value.conjugate():
            sym_ok = False
    checks.append(CheckResult("conjugate symmetry bit-exact", sym_ok))
    agree_ok = True
    for xi in (1, 4, 16):
        cyl = fourier_cylinder_sum(nu, xi, 6)
        mc = fourier_monte_carlo(nu, xi, 4000, 6, seed=3)
        if abs(cyl.value - mc.value) > cyl.err_bound + mc.err_bound:
            agree_ok = False
    checks.append(CheckResult(
        "cylinder and sampling methods agree", agree_ok,
        "3 frequencies, depth 6"))
    lm = _toy_lambda()
    table = decay_scan(lm, [2.0, 40.0, 3000.0], "cylinder", 13,
                       alpha=Fraction(2))
    tri_ok = all(
        abs(row.full.value) <= float(row.exc_tv) + abs(row.typ.value)
        + row.full.err_bound + row.typ.err_bound + 1e-12
        for row in table.rows)
    checks.append(CheckResult("triangle decomposition row-wise", tri_ok))
    return SuiteReport("fourier", tuple(checks))


def suite_lemmas(cases: int = VERIFY_CASES,
                 seed: int = SWEEP_SEED) -> SuiteReport:
    from .oscillatory import run_sweep
    checks = []
    for lemma in ("nonstationary", "stationary", "integral"):
        kwargs = {"measure": _desk_nu(), "depth": 5} \
            if lemma == "integral" else {}
        rep = run_sweep(lemma, count=cases, seed=seed, **kwargs)
        checks.append(CheckResult(
            f"{lemma} sweep clean", rep.ok,
            f"{rep.cases} cases, worst margin {rep.worst_margin:.3e}"))
    return SuiteReport("lemmas", tuple(checks))


def suite_audit() -> SuiteReport:
    audit = exponent_audit()
    sums = [audit.entries[k].recomputed
            for k in ("sum_shared_q", "sum_distinct_q", "sum_diagonal")]
    consistent = audit.entries["l2_mass"].recomputed == max(sums)
    checks = (
        CheckResult("recomputed column internally consistent", consistent),
        CheckResult(
            "discrepancies reported, not failed", True,
            f"flagged rows: {', '.join(audit.flags) or 'none'}"),
    )
    return SuiteReport("audit", tuple(checks))


def run_suites(names, profile: str = "desk", measure=None,
               cases: int = VERIFY_CASES,
               seed: int = SWEEP_SEED) -> list[SuiteReport]:
    wanted = list(SUITE_NAMES) if "all" in names else list(names)
    for name in wanted:
        if name not in SUITE_NAMES:
            raise PreconditionViolated(f"unknown suite {name!r}")
    reports = []
    for name in wanted:
        if name == "cf":
            reports.append(suite_cf())
        elif name == "nu":
            reports.append(suite_nu(measure=measure, profile=profile))
        elif name == "lambda":
            reports.append(suite_lambda())
        elif name == "fourier":
            reports.append(suite_fourier())
        elif name == "lemmas":
            reports.append(suite_lemmas(cases=cases, seed=seed))
        elif name == "audit":
            reports.append(suite_audit())
    return reports


def format_reports(reports) -> str:
    lines = []
    for rep in reports:
        lines.append(f"[{rep.suite}] {'ok' if rep.ok else 'FAIL'}")
        for c in rep.checks:
            mark = "pass" if c.ok else "FAIL"
            suffix = f"  ({c.detail})" if c.detail else ""
            lines.append(f"  {mark}  {c.name}{suffix}")
        if rep.suite == "audit":
            lines.append(format_audit(exponent_audit()))
    return "\n".join(lines)
