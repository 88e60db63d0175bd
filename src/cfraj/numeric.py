"""Exact integer arithmetic, its digit budget, and logs of big integers.

Exact values are ints and Fractions; `guard_int` raises Overflow when one
passes the decimal-digit budget. Integer roots and powers stay exact.
Logs of integers too large for a float come as plain floats from
`ln_int`. Certified comparisons between logs of big integers and rational
thresholds go through mpmath interval arithmetic with precision
escalation.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

import mpmath

from .errors import CertificationFailed, Overflow

LN2 = math.log(2)
LN10 = math.log(10)

DEFAULT_DIGIT_BUDGET = 20_000


_digit_budget: int | None = None


def digit_budget() -> int:
    """Exact-arithmetic budget in decimal digits.

    Overridable through the CFRAJ_DIGIT_BUDGET environment variable,
    which is read on first use and kept for the rest of the process. An
    invalid value raises Overflow on every call and is not kept.
    """
    global _digit_budget
    if _digit_budget is None:
        _digit_budget = _read_digit_budget()
    return _digit_budget


def _read_digit_budget() -> int:
    raw = os.environ.get("CFRAJ_DIGIT_BUDGET")
    if raw is None:
        return DEFAULT_DIGIT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise Overflow(f"CFRAJ_DIGIT_BUDGET is not an integer: {raw!r}") from exc
    if value < 1:
        raise Overflow(f"CFRAJ_DIGIT_BUDGET must be positive, got {value}")
    return value


def ln_int(n: int) -> float:
    """Natural log of a positive integer, safe for arbitrarily large n."""
    if n <= 0:
        raise ValueError("ln_int needs a positive integer")
    bits = n.bit_length()
    if bits <= 512:
        return math.log(n)
    shift = bits - 64
    return math.log(n >> shift) + shift * LN2


def ln_fraction(x: Fraction) -> float:
    if x <= 0:
        raise ValueError("ln_fraction needs a positive value")
    return ln_int(x.numerator) - ln_int(x.denominator)


def guard_int(n: int, context: str = "value") -> int:
    """Raise Overflow when an integer exceeds the digit budget."""
    bits = n.bit_length() if n >= 0 else (-n).bit_length()
    # bits * log10(2) decimal digits
    if bits * 0.30103 > (_digit_budget or digit_budget()):
        raise Overflow(
            f"{context} exceeds the digit budget "
            f"({digit_budget()} decimal digits)",
            log_magnitude=bits * LN2,
        )
    return n


def iroot_floor(x: int, k: int) -> int:
    """floor(x ** (1/k)) for nonnegative integer x, integer k >= 1."""
    if x < 0 or k < 1:
        raise ValueError("iroot_floor needs x >= 0, k >= 1")
    if x in (0, 1) or k == 1:
        return x
    if k == 2:
        return math.isqrt(x)
    # Newton iteration starting from a bit-length based overestimate.
    guess = 1 << -(-x.bit_length() // k)
    while True:
        nxt = ((k - 1) * guess + x // guess ** (k - 1)) // k
        if nxt >= guess:
            break
        guess = nxt
    while guess ** k > x:
        guess -= 1
    return guess


def iroot_ceil(x: int, k: int) -> int:
    """Smallest n with n**k >= x."""
    f = iroot_floor(x, k)
    return f if f ** k == x else f + 1


def ipow_ceil(base: int, num: int, den: int, context: str = "power") -> int:
    """ceil(base ** (num/den)) exactly, for base >= 1 and num, den >= 1."""
    if base < 1:
        raise ValueError("ipow_ceil needs base >= 1")
    if base == 1:
        return 1
    # digit guard before forming base**num
    if base.bit_length() * num * 0.30103 > digit_budget() * max(1, den):
        raise Overflow(
            f"{context}: exponentiation would exceed the digit budget",
            log_magnitude=ln_int(base) * num / den,
        )
    power = base ** num
    if den == 1:
        return power
    return iroot_ceil(power, den)


def _iv_log(n: int, prec: int):
    old = mpmath.iv.prec
    mpmath.iv.prec = prec
    try:
        return mpmath.iv.log(mpmath.iv.mpf(n))
    finally:
        mpmath.iv.prec = old


def _iv_fraction(x: Fraction, prec: int):
    old = mpmath.iv.prec
    mpmath.iv.prec = prec
    try:
        return mpmath.iv.mpf(x.numerator) / mpmath.iv.mpf(x.denominator)
    finally:
        mpmath.iv.prec = old


def cert_ln_le(n: int, bound: Fraction, max_prec: int = 1 << 14) -> bool:
    """Certified decision of ln(n) <= bound for integer n >= 1.

    Escalates interval precision until the comparison is strict. ln of an
    integer >= 2 is irrational, so termination is guaranteed except for
    the trivial n = 1 case which is handled exactly.
    """
    if n < 1:
        raise ValueError("cert_ln_le needs n >= 1")
    if n == 1:
        return bound >= 0
    prec = max(64, n.bit_length() + 16)
    while prec <= max_prec:
        ln_iv = _iv_log(n, prec)
        b_iv = _iv_fraction(bound, prec)
        if ln_iv < b_iv:
            return True
        if ln_iv > b_iv:
            return False
        prec *= 2
    raise CertificationFailed(
        f"could not decide ln({n}) vs {bound} within precision {max_prec}"
    )


def cert_ln_ge(n: int, bound: Fraction, max_prec: int = 1 << 14) -> bool:
    if n < 1:
        raise ValueError("cert_ln_ge needs n >= 1")
    if n == 1:
        return bound <= 0
    prec = max(64, n.bit_length() + 16)
    while prec <= max_prec:
        ln_iv = _iv_log(n, prec)
        b_iv = _iv_fraction(bound, prec)
        if ln_iv > b_iv:
            return True
        if ln_iv < b_iv:
            return False
        prec *= 2
    raise CertificationFailed(
        f"could not decide ln({n}) vs {bound} within precision {max_prec}"
    )


def ceil_exp_over_square(q: int, max_prec: int = 1 << 16) -> int:
    """ceil(e**q / q**2) for integer q >= 1, certified via intervals."""
    if q < 1:
        raise ValueError("needs q >= 1")
    if q * 0.4343 > digit_budget():
        raise Overflow(
            "exp(q) exceeds the digit budget", log_magnitude=float(q)
        )
    prec = max(64, int(q * 1.5) + 32)
    while prec <= max_prec:
        old = mpmath.iv.prec
        mpmath.iv.prec = prec
        try:
            val = mpmath.iv.exp(mpmath.iv.mpf(q)) / mpmath.iv.mpf(q * q)
            lo = mpmath.mpf(val.a)
            hi = mpmath.mpf(val.b)
            cl = int(mpmath.ceil(lo))
            ch = int(mpmath.ceil(hi))
        finally:
            mpmath.iv.prec = old
        if cl == ch:
            return cl
        prec *= 2
    raise CertificationFailed(f"ceil(e^{q}/{q}^2) undecided at precision {max_prec}")
