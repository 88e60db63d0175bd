import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfraj.errors import Overflow, PreconditionViolated
from cfraj.rules import (
    AssignmentRule,
    Phi_iter,
    PsiFamily,
    check_q2psi_nonincreasing,
    count_k_runs,
    forced_extension,
    membership,
    phi_r,
    phir_bound_check,
    rho,
)
from cfraj.words import Word, continuant_pair


def test_rho_sum_rule():
    assert rho(AssignmentRule.sum_of_previous(), Word(0, (1, 2, 3))) == 6


def test_rho_power_rule():
    # q((0,2)) = 2; threshold = q^(tau-2) = 4 at tau=4
    assert rho(AssignmentRule.psi_power(4), Word(0, (2,))) == 4


def test_rho_clamps_to_one():
    # q = 1 for a bare head, threshold 1
    assert rho(AssignmentRule.psi_power(3), Word(0)) == 1


def test_rho_r_examples():
    # the r-th forced digit is rho of the (r - 1)-fold forced extension
    rule = AssignmentRule.sum_of_previous()
    w = Word(0, (1,))
    assert forced_extension(rule, w, 3) == Word(0, (1, 1, 2, 4))

    rule = AssignmentRule.psi_power(3)
    w = Word(0, (2,))
    assert rho(rule, w) == 2
    # the one-step extension (0,2,2) has q = 5
    assert continuant_pair(Word(0, (2, 2))).q == 5
    assert forced_extension(rule, w, 2) == Word(0, (2, 2, 5))


def test_phi_r_examples():
    assert phi_r(AssignmentRule.psi_power(4), Word(0, (2,)), 1) == 9
    # sum rule from (0,1): forced digits 1 then 2, so q(0,1,1,2) = K(1,1,2)
    assert phi_r(AssignmentRule.sum_of_previous(), Word(0, (1,)), 2) == 5


def test_phi_r_is_q_of_one_step_extension():
    rule = AssignmentRule.psi_power(3)
    w = Word(0, (3, 1))
    step = w.extend((rho(rule, w),))
    assert phi_r(rule, w, 1) == continuant_pair(step).q


def test_Phi_values():
    # one step of the growth map, read back from its log
    def phi(psi, q):
        return math.exp(Phi_iter(psi, q, 1))

    assert math.isclose(phi(PsiFamily.power(3), 10), 100.0, rel_tol=1e-12)
    expected = math.exp(5) / 5
    assert math.isclose(phi(PsiFamily.exponential(), 5), expected, rel_tol=1e-12)
    assert math.isclose(phi(PsiFamily.power(3), 1), 1.0, rel_tol=1e-12)
    with pytest.raises(PreconditionViolated):
        Phi_iter(PsiFamily.power(3), 0, 1)


def test_Phi_iter():
    assert math.isclose(math.exp(Phi_iter(PsiFamily.power(3), 10, 0)), 10.0)
    assert math.isclose(
        Phi_iter(PsiFamily.power(3), 10, 2), 4 * math.log(10), rel_tol=1e-12
    )
    x1 = math.exp(3) / 3
    expected_log = x1 - math.log(x1)
    assert math.isclose(
        Phi_iter(PsiFamily.exponential(), 3, 2), expected_log, rel_tol=1e-12
    )


def test_Phi_iter_tower_overflow_reports_iteration():
    with pytest.raises(Overflow) as exc_info:
        Phi_iter(PsiFamily.exponential(), 3, 6)
    assert exc_info.value.iteration is not None
    assert exc_info.value.iteration <= 6


def test_phir_bound_r2_example():
    # tau=3, word (0,2): phi_2 = 27, bound Phi^2(2*2) = 4^4 = 256
    rule = AssignmentRule.psi_power(3)
    assert phi_r(rule, Word(0, (2,)), 2) == 27
    assert phir_bound_check(rule, Word(0, (2,)), 2)


def test_phir_bound_r1_sharpness_gap():
    # ceiling slack at r=1: phi = 9 > Phi(2) = 8
    assert not phir_bound_check(AssignmentRule.psi_power(4), Word(0, (2,)), 1)
    # clamped degenerate case q=1 holds with equality
    assert phir_bound_check(AssignmentRule.psi_power(3), Word(0), 1)


@settings(max_examples=60)
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
    st.integers(min_value=2, max_value=3),
    st.sampled_from([3, 4]),
)
def test_phir_bound_holds_from_r2(tail, r, tau):
    rule = AssignmentRule.psi_power(tau)
    try:
        assert phir_bound_check(rule, Word(0, tuple(tail)), r)
    except Overflow:
        pass  # skipped-and-reported policy: oversize towers are not failures


@settings(max_examples=60)
@given(
    st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=5),
    st.sampled_from([Fraction(3), Fraction(4), Fraction(5, 2)]),
)
def test_rho_minimality(tail, tau):
    rule = AssignmentRule.psi_power(tau)
    w = Word(0, tuple(tail))
    r = rho(rule, w)
    if r >= 2:
        assert membership(rule, w, r)
        assert not membership(rule, w, r - 1)


@settings(max_examples=40)
@given(st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=5))
def test_power_rule_growth(tail):
    rule = AssignmentRule.psi_power(3)
    w = Word(0, tuple(tail))
    pair = continuant_pair(w)
    if pair.q >= 2:
        assert rho(rule, w) >= 2
        assert phi_r(rule, w, 1) > pair.q


def test_count_k_runs_sum_example():
    rc = count_k_runs(AssignmentRule.sum_of_previous(), Word(0, (1, 1, 2, 4, 8)), 2)
    assert rc.count == 3
    assert rc.positions == (2, 3, 4)


def test_count_k_runs_edge_cases():
    rule = AssignmentRule.sum_of_previous()
    assert count_k_runs(rule, Word(0, (1, 1)), 9).count == 0
    # no position matches its running sum here
    assert count_k_runs(rule, Word(0, (5, 2, 9)), 1).count == 0


def test_rational_tau_threshold_exact():
    # tau = 5/2: threshold = ceil(q^(1/2)); q(0,2,3) = 7 -> ceil(sqrt 7) = 3
    rule = AssignmentRule.psi_power(Fraction(5, 2))
    assert rho(rule, Word(0, (2, 3))) == 3


def test_q2psi_monotone_probe():
    assert check_q2psi_nonincreasing(PsiFamily.power(3), [2, 5, 11, 100])
    assert check_q2psi_nonincreasing(PsiFamily.exponential(), [3, 4, 10])
    # 2 log q - q rises from q = 1 to q = 2
    assert not check_q2psi_nonincreasing(PsiFamily.exponential(), [1, 2])


def test_rule_serialization_roundtrip():
    for rule in (
        AssignmentRule.psi_power(3),
        AssignmentRule.psi_power(Fraction(5, 2)),
        AssignmentRule.psi_exp(),
        AssignmentRule.sum_of_previous(),
    ):
        doc = rule.to_json()
        assert AssignmentRule.from_json(doc) == rule


def test_bad_rule_construction():
    with pytest.raises(PreconditionViolated):
        PsiFamily.power(2)
    with pytest.raises(PreconditionViolated):
        AssignmentRule("psi-power", None)


def test_float_tau_is_refused_with_its_exact_forms():
    with pytest.raises(PreconditionViolated,
                       match=r"index 2\^50 .* a Fraction or a decimal "
                             r"string such as '2\.3'"):
        AssignmentRule.psi_power(2.3)
    with pytest.raises(PreconditionViolated, match="float"):
        PsiFamily.power(3.0)
    assert AssignmentRule.psi_power("2.3").psi.tau == Fraction(23, 10)
    assert PsiFamily.power(Fraction(2.3)).tau == Fraction(2.3)


def test_sum_rule_empty_prefix_has_no_members():
    # the running sum of the bare-head word is 0: no admissible digits,
    # rho falls back to the clamp
    rule = AssignmentRule.sum_of_previous()
    assert not membership(rule, Word(0), 1)
    assert rho(rule, Word(0)) == 1
