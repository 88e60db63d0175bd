"""Invariant suites behind `cfraj verify`.

Each suite is a fast spot check of one module's contracts, returning a
SuiteReport of named pass/fail lines. The audit suite never fails on a
flagged discrepancy; surfacing it is the point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iter_product

from .audit import exponent_audit, format_audit
from .blocks import build_nu, top_half_split, verify_window
from .cascade import build_lambda, split_typ_exc, weight_ratio_bound, xn_mass
from .errors import PreconditionViolated
from .fourier import decay_scan, fourier_cylinder_sum, fourier_monte_carlo
from .oscillatory import run_sweep
from .profiles import get_profile, strict_feasibility
from .rules import AssignmentRule
from .schedule import Schedule, weight
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
    return build_nu(3, 1, None, Fraction(1, 4), sigma_anchor=(6, 2))


def _toy_lambda():
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
    defects = [float(joining_defect(a, b, 4)) for a in lefts for b in rights]
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
            f"required_p={feas['required_p']}"))
    return SuiteReport("nu", tuple(checks))


def suite_lambda() -> SuiteReport:
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
    return SuiteReport("lambda", tuple(checks))


def suite_fourier() -> SuiteReport:
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


def suite_lemmas(cases: int = 60, seed: int = 20260823) -> SuiteReport:
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
               cases: int = 60, seed: int = 20260823) -> list[SuiteReport]:
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
