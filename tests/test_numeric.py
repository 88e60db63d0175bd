import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from cfraj import numeric
from cfraj.blocks import build_nu
from cfraj.cascade import (_lambda_leaves, _sample_columns, build_lambda,
                           classify, max_phi_over_stage)
from cfraj.errors import Overflow
from cfraj.numeric import (ceil_exp_over_square, digit_budget, guard_int,
                           ipow, ipow_ceil)
from cfraj.rules import AssignmentRule, rho_value
from cfraj.schedule import Schedule
from cfraj.words import Word, continuant, joining_defect

from test_blocks import SmallPowers
from test_cascade import toy_lambda

SRC = Path(__file__).resolve().parents[1] / "src"


def test_guard_int_raises_past_resolved_budget(monkeypatch):
    monkeypatch.setattr(numeric, "_digit_budget", 3)
    # 9 bits are 2.7 decimal digits, 11 bits 3.3
    assert guard_int(511) == 511
    assert guard_int(-511) == -511
    with pytest.raises(Overflow, match=r"\(3 decimal digits\)"):
        guard_int(1024)
    with pytest.raises(Overflow):
        guard_int(-1024)


def test_ipow_guards_digits_before_forming_the_power(monkeypatch):
    monkeypatch.setattr(numeric, "_digit_budget", 3)
    # 7 ** 3 has at most 3 * 3 bits, 2.7 decimal digits
    assert ipow(7, 3) == 343
    with pytest.raises(Overflow, match="window end"):
        ipow(10, 3, "window end")
    # 0 and 1 have no large powers
    assert ipow(1, 2**60) == 1 and ipow(0, 2**60) == 0


def test_ipow_ceil_guards_the_power_before_its_root():
    # tau = Fraction(2.3) is a Fraction over 2^50, so the forced digit
    # q^(tau - 2) is a root of q to a power near 3.4e14: refused unformed
    rule = AssignmentRule.psi_power(Fraction(2.3))
    assert (rule.psi.tau - 2).denominator == 2**50
    with pytest.raises(Overflow, match="forced digit"):
        rho_value(rule, SmallPowers(5), 5)
    # 5^(3/2) = 11.18...
    assert ipow_ceil(SmallPowers(5), 3, 2) == 12
    assert ipow_ceil(SmallPowers(5), 3, 1) == 125


def test_joining_defect_raises_past_resolved_budget(monkeypatch):
    monkeypatch.setattr(numeric, "_digit_budget", 10)
    big = 10**6
    joining_defect(Word(0, (2, 3)), Word(1, (4,)), 5)
    with pytest.raises(Overflow, match="joined continuant"):
        joining_defect(Word(0, (big, big)), Word(big, (big,)), big)


def test_every_cascade_walker_guards_forced_runs(monkeypatch):
    lm = toy_lambda()
    monkeypatch.setattr(numeric, "_digit_budget", 2)
    # the first forced block already takes q past 99, e.g. 8 * 17 + 4
    with pytest.raises(Overflow, match="forced-run continuant"):
        _lambda_leaves(lm, 13)
    with pytest.raises(Overflow, match="forced-run continuant"):
        _sample_columns(lm, 3, 13, 0)
    with pytest.raises(Overflow, match="forced-run continuant"):
        max_phi_over_stage(lm.nu, lm.schedule, lm.rule, 1)


def test_budget_is_read_once_per_process(monkeypatch):
    monkeypatch.setattr(numeric, "_digit_budget", None)
    monkeypatch.setenv("CFRAJ_DIGIT_BUDGET", "123")
    assert digit_budget() == 123
    monkeypatch.setenv("CFRAJ_DIGIT_BUDGET", "7")
    assert digit_budget() == 123
    assert guard_int(10**100) == 10**100
    monkeypatch.delenv("CFRAJ_DIGIT_BUDGET")
    assert digit_budget() == 123
    with pytest.raises(Overflow):
        guard_int(10**130)


def test_budget_defaults_without_environment(monkeypatch):
    monkeypatch.setattr(numeric, "_digit_budget", None)
    monkeypatch.delenv("CFRAJ_DIGIT_BUDGET", raising=False)
    assert digit_budget() == numeric.DEFAULT_DIGIT_BUDGET


INVALID_BUDGET_SCRIPT = """
import os
import cfraj.cli
from cfraj.errors import Overflow
from cfraj.numeric import digit_budget, guard_int
for _ in range(2):
    try:
        guard_int(1)
    except Overflow as exc:
        print("overflow:", exc)
    else:
        print("no overflow")
os.environ["CFRAJ_DIGIT_BUDGET"] = "50"
print("budget:", digit_budget())
"""


@pytest.mark.parametrize("raw, message", [
    ("lots", "is not an integer: 'lots'"),
    ("0", "must be positive, got 0"),
])
def test_invalid_budget_raises_at_first_use(raw, message):
    env = dict(os.environ, CFRAJ_DIGIT_BUDGET=raw,
               PYTHONPATH=os.pathsep.join(
                   p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", INVALID_BUDGET_SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    # importing reads nothing; each use raises, and the failure is not kept
    assert done.stdout.splitlines() == [
        f"overflow: CFRAJ_DIGIT_BUDGET {message}",
        f"overflow: CFRAJ_DIGIT_BUDGET {message}",
        "budget: 50",
    ]


LAZY_MPMATH_SCRIPT = """
import sys
import cfraj.words
print("numpy" in sys.modules, "mpmath" in sys.modules)
import cfraj.cli
print("mpmath" in sys.modules)
from fractions import Fraction
from cfraj.errors import CertificationFailed
from cfraj.numeric import cert_ln_ge, cert_ln_le, ceil_exp_over_square
print(cert_ln_le(10, Fraction(3)), "mpmath" in sys.modules)
import mpmath
mpmath.iv.prec = 77
print(cert_ln_ge(10, Fraction(3)), cert_ln_le(10**40, Fraction(92)),
      cert_ln_ge(10**40, Fraction(92)), ceil_exp_over_square(5),
      ceil_exp_over_square(40), mpmath.iv.prec)
# within 1e-40 of ln 10: undecided at 64 bits, decided higher up
with mpmath.workdps(40):
    close = Fraction(str(mpmath.log(10)))
for compare in (cert_ln_le, cert_ln_ge):
    try:
        compare(10, close, max_prec=64)
    except CertificationFailed:
        print("undecided", mpmath.iv.prec, compare(10, close))
"""


def test_mpmath_is_imported_on_the_first_interval_comparison():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", LAZY_MPMATH_SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    # importing loads no mpmath, and no interval call leaves its
    # precision changed, also when it fails
    assert done.stdout.splitlines() == [
        "False False",
        "False",
        "True True",
        "False False True 6 147115791773138 77",
        "undecided 77 False",
        "undecided 77 True",
    ]


def exp_ceiling_oracle(q):
    """ceil(e^q / q^2) from mpmath at 400 digits."""
    import mpmath
    with mpmath.workdps(400):
        return int(mpmath.ceil(mpmath.exp(q) / (q * q)))


def test_ceil_exp_over_square_matches_the_oracle():
    # from q = 44 the value passes 53 bits
    assert [ceil_exp_over_square(q) for q in range(1, 301)] == [
        exp_ceiling_oracle(q) for q in range(1, 301)]
    assert ceil_exp_over_square(44) == 6638223199565759


def test_exp_rule_cascade_forces_the_oracle_digit():
    """Under psi(q) = e^-q each forced digit is ceil(e^q / q^2): the
    walk accepts exactly that digit, and the columnar engine's forced
    run takes it too. Every typical word here has q >= 72."""
    nu = build_nu(5, 1, None, Fraction(3, 10), sigma_anchor=(5, 1))
    sch = Schedule(i=(3, 6), r=(1, 1), p=1, sigma=nu.sigma,
                   rule=AssignmentRule.psi_exp())
    lm = build_lambda(nu, sch, 8)
    want = set()
    for typical in product(nu.support, repeat=3):
        digits = [d for (d,) in typical]
        forced = exp_ceiling_oracle(continuant(digits))
        assert forced.bit_length() > 53
        assert classify(lm, [*typical, (forced,)]).valid
        assert not classify(lm, [*typical, (forced - 1,)]).valid
        want.add(continuant(digits + [forced]))
    assert set(_lambda_leaves(lm, 4).q) == want
