"""Schedule growth, lacunarity, and gap-condition certificates."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cfraj.blocks import build_nu
from cfraj.errors import Overflow, PreconditionViolated
from cfraj.rules import AssignmentRule, PsiFamily
from cfraj.schedule import (
    GapReport,
    Schedule,
    check_gap_condition,
    check_superlacunary,
    growth_log_bound,
    make_schedule_psi,
    weight,
)


def nu_sigma2():
    # N=3 pairs with log K within 30% of 2: K in {5, 7, 7, 10}
    return build_nu(3, 2, 2.0, Fraction(3, 10))


def tau3_schedule():
    return make_schedule_psi(
        PsiFamily.power(3), nu_sigma2(), r_list=(1, 2, 3), i1=4, depth=3
    )


# ---------------------------------------------------------------- weights


def test_weight_values():
    assert weight(1) == 1
    assert weight(2) == weight(3) == Fraction(1, 2)
    assert all(weight(n) == Fraction(1, 4) for n in range(4, 8))
    assert weight(1000) == Fraction(1, 512)
    with pytest.raises(PreconditionViolated):
        weight(0)


def test_weight_dyadic_sums():
    for t in range(7):
        block = range(2**t, 2 ** (t + 1))
        assert sum(weight(n) for n in block) == 1


def test_weight_sandwich_small():
    for n in range(1, 200):
        w = weight(n)
        assert Fraction(1, 2 * n) <= w <= Fraction(2, n)
        assert (w <= Fraction(1, n)) == (n & (n - 1) == 0)


def weight_law_check(limit: int = 10**6) -> bool:
    """Vectorized sandwich check 1/(2n) <= w_n <= 2/n up to the limit.

    Also confirms w_n <= 1/n exactly at powers of two and that each
    dyadic block of weights sums to 1.
    """
    n = np.arange(1, limit + 1, dtype=np.int64)
    powers = 2 ** np.arange(0, int(limit).bit_length() + 1, dtype=np.int64)
    t = np.searchsorted(powers, n, side="right") - 1
    w = np.ldexp(1.0, -t)
    prod = n * w  # exact: n < 2^53 scaled by a power of two
    if not ((prod >= 1.0).all() and (prod < 2.0).all()):
        return False
    at_power = prod == 1.0
    if not (at_power == (n == powers[t])).all():
        return False
    # block sums: 2^t members, each 2^-t
    full = powers[:-1][2 * powers[:-1] <= limit + 1]
    return all(
        w[(n >= lo) & (n < 2 * lo)].sum() == 1.0 for lo in full
    )


def test_weight_law_vectorized():
    assert weight_law_check(10**6)


# ---------------------------------------------------------------- schedules


def test_schedule_invariants():
    rule = AssignmentRule.sum_of_previous()
    with pytest.raises(PreconditionViolated):
        Schedule(i=(4, 5), r=(1, 1), p=1, sigma=1.0, rule=rule)  # 5 <= 4+1
    with pytest.raises(PreconditionViolated):
        Schedule(i=(4, 96), r=(2, 1), p=1, sigma=1.0, rule=rule)  # r decreasing
    with pytest.raises(PreconditionViolated):
        Schedule(i=(4, 96), r=(1,), p=1, sigma=1.0, rule=rule)
    with pytest.raises(PreconditionViolated):
        Schedule(i=(), r=(), p=1, sigma=1.0, rule=rule)
    with pytest.raises(PreconditionViolated):
        Schedule(i=(4,), r=(1,), p=0, sigma=1.0, rule=rule)
    with pytest.raises(PreconditionViolated):
        Schedule(i=(4,), r=(1,), p=1, sigma=1.0, rule=rule, profile="loose")
    s = Schedule(i=(4, 96), r=(1, 2), p=2, sigma=2.0, rule=rule)
    assert s.depth == 2


def test_schedule_round_trip():
    s = tau3_schedule()
    doc = s.to_json_doc()
    assert doc == {"i": [4, 96, 9216], "r": [1, 2, 3]}
    back = Schedule.from_json_doc(doc, p=s.p, sigma=s.sigma, rule=s.rule)
    assert back == s


def test_make_schedule_power_closed_form():
    s = tau3_schedule()
    # i_{n+1} = ceil(3 * 2^(2 r_n) * 2 * i_n): 3*4*2*4 = 96, 3*16*2*96 = 9216
    assert s.i == (4, 96, 9216)
    assert s.r == (1, 2, 3)
    assert s.p == 2 and s.sigma == 2.0
    assert s.rule.kind == "psi-power" and s.rule.psi.tau == 3


def test_make_schedule_depth_one():
    s = make_schedule_psi(PsiFamily.power(3), nu_sigma2(), (1,), i1=4, depth=1)
    assert s.i == (4,)


def test_make_schedule_fractional_tau():
    # p=1 digits {4,5}, sigma = log 5; closed form ceil(13.5 log 5) = 22
    nu = build_nu(5, 1, None, Fraction(3, 10), sigma_anchor=(5, 1))
    assert nu.support == ((4,), (5,))
    s = make_schedule_psi(PsiFamily.power(Fraction(5, 2)), nu, (1, 1), i1=3, depth=2)
    assert s.i == (3, 22)
    assert math.ceil(13.5 * math.log(5)) == 22  # float oracle, off-boundary


def test_make_schedule_exponential():
    # p=1, sigma = 2: i_2 = ceil((e^4 - 4)/2) = 26
    nu = build_nu(7, 1, 2.0, Fraction(1, 4))
    assert nu.support == ((5,), (6,), (7,))
    s = make_schedule_psi(PsiFamily.exponential(), nu, (1, 1, 1, 1), i1=1, depth=2)
    assert s.i == (1, math.ceil((math.exp(4) - 4) / 2))
    assert s.i[1] == 26


def test_make_schedule_exponential_overflow_reports_depth():
    nu = build_nu(7, 1, 2.0, Fraction(1, 4))
    with pytest.raises(Overflow) as err:
        make_schedule_psi(PsiFamily.exponential(), nu, (1, 1, 1, 1), i1=1, depth=4)
    assert err.value.iteration == 4


@pytest.mark.parametrize("psi, nu, r_list, i1", [
    (PsiFamily.power(3), nu_sigma2(), (1, 2, 3), 4),
    (PsiFamily.power(3),
     build_nu(3, 1, None, Fraction(1, 4), sigma_anchor=(6, 2)),
     (1, 1, 1, 1), 2),
    (PsiFamily.power(Fraction(5, 2)),
     build_nu(5, 1, None, Fraction(3, 10), sigma_anchor=(5, 1)),
     (1, 1, 2), 3),
    (PsiFamily.exponential(), build_nu(7, 1, 2.0, Fraction(1, 4)),
     (1, 1), 1),
], ids=["tau3-readme", "tau3-desk", "tau5-2", "exp"])
def test_make_schedule_takes_the_least_index_over_its_three_floors(
        psi, nu, r_list, i1):
    s = make_schedule_psi(psi, nu, r_list, i1=i1, depth=len(r_list))
    assert s.i[0] == i1
    for n in range(len(r_list) - 1):
        i_n, r_n = s.i[n], s.r[n]
        floors = [math.ceil(growth_log_bound(psi, nu.p, r_n, nu.sigma, i_n)
                            / nu.sigma), i_n + r_n + 1]
        if psi.form == "power":
            floors.append(math.ceil(3 * (psi.tau - 1) ** (nu.p * r_n)
                                    * Fraction(nu.sigma) * i_n))
        assert s.i[n + 1] == max(floors)


def test_make_schedule_rejects_bad_args():
    nu = nu_sigma2()
    psi = PsiFamily.power(3)
    with pytest.raises(PreconditionViolated):
        make_schedule_psi(psi, nu, (1, 2), i1=0, depth=2)
    with pytest.raises(PreconditionViolated):
        make_schedule_psi(psi, nu, (1,), i1=4, depth=2)  # too few runs
    with pytest.raises(PreconditionViolated):
        make_schedule_psi(psi, nu, (2, 1), i1=4, depth=2)  # decreasing


# ---------------------------------------------------------------- lacunarity


def test_superlacunary_tau3():
    rep = check_superlacunary(tau3_schedule(), 10)
    assert rep.ok and bool(rep)
    assert rep.n0 == 1
    assert rep.first_fail is None
    assert rep.ratios == (Fraction(96, 5), Fraction(9216, 98))


def test_superlacunary_doubling_fails():
    rule = AssignmentRule.sum_of_previous()
    s = Schedule(i=(2, 4, 8, 16, 32, 64), r=(1,) * 6, p=1, sigma=1.0, rule=rule)
    rep = check_superlacunary(s, 3)
    assert not rep.ok and not bool(rep)
    assert rep.first_fail == 1
    assert all(q < 3 for q in rep.ratios)


def test_superlacunary_holds_from_later_stage():
    rule = AssignmentRule.sum_of_previous()
    s = Schedule(i=(4, 6, 120, 12000), r=(1, 1, 1, 1), p=1, sigma=1.0, rule=rule)
    rep = check_superlacunary(s, 3)
    assert rep.ok
    assert rep.n0 == 2


def test_superlacunary_single_entry_vacuous():
    rule = AssignmentRule.sum_of_previous()
    s = Schedule(i=(5,), r=(2,), p=1, sigma=1.0, rule=rule)
    rep = check_superlacunary(s, 100)
    assert rep.ok and rep.n0 == 1 and rep.ratios == ()


# ---------------------------------------------------------------- gaps


def test_gap_condition_certified_tau3():
    s = tau3_schedule()
    rep = check_gap_condition(s, nu_sigma2())
    assert isinstance(rep, GapReport) and rep.ok
    # L_1 = 4 (log 2 + 16); desk bound (10/2) L_1
    bound = 5.0 * 4.0 * (math.log(2) + 16.0)
    assert rep.margins[0] == pytest.approx(9120.0 - bound, rel=1e-12)


def test_gap_condition_detects_corruption():
    s = tau3_schedule()
    bad = Schedule(i=(4, 96, 400), r=s.r, p=s.p, sigma=s.sigma, rule=s.rule)
    rep = check_gap_condition(bad, nu_sigma2())
    assert not rep.ok
    assert rep.first_fail == 1
    assert rep.margins[0] < 0


def test_gap_condition_strict_profile_is_tighter():
    s = tau3_schedule()
    mid = Schedule(i=(4, 96, 3400), r=s.r, p=s.p, sigma=s.sigma, rule=s.rule)
    assert check_gap_condition(mid, nu_sigma2()).ok  # desk: bound ~334
    strict = Schedule(
        i=(4, 96, 3400), r=s.r, p=s.p, sigma=s.sigma, rule=s.rule, profile="strict"
    )
    assert not check_gap_condition(strict, nu_sigma2()).ok  # bound ~3339


def test_gap_condition_certified_needs_psi():
    rule = AssignmentRule.sum_of_previous()
    s = Schedule(i=(2, 4, 7), r=(1, 1, 1), p=1, sigma=1.0, rule=rule)
    with pytest.raises(PreconditionViolated):
        check_gap_condition(s, None, mode="certified")
    with pytest.raises(PreconditionViolated):
        check_gap_condition(s, None, mode="sideways")


def test_growth_log_bound_power_closed_form():
    psi = PsiFamily.power(3)
    # two compositions of x -> 2x on log2 + 16
    assert growth_log_bound(psi, 2, 1, 2.0, 4) == pytest.approx(
        4.0 * (math.log(2) + 16.0), rel=1e-15
    )
