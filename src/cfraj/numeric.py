"""Exact integer arithmetic, its digit budget, and logs of big integers.

Exact values are ints and Fractions; `guard_int` raises Overflow when one
passes the decimal-digit budget. Integer roots and powers stay exact.
Logs of integers too large for a float come as plain floats from
`ln_int`. Certified comparisons between logs of big integers and rational
thresholds go through mpmath interval arithmetic with precision
escalation. mpmath is imported on the first such comparison, in
`_interval_precision`, not with this module: importing it takes about as
long as importing the rest of the package, and most runs never compare.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from fractions import Fraction

from .errors import CertificationFailed, Overflow

LN2 = math.log(2)
LN10 = math.log(10)

DEFAULT_DIGIT_BUDGET = 20_000


_digit_budget: int | None = None


def digit_budget() -> int:
    """Exact-arithmetic budget in decimal digits.

    Overridable through the CFRAJ_DIGIT_BUDGET environment variable,
    which is read on first use and kept for the rest of the process. An
    invalid value raises Overflow on every call and is not kept. This is
    the variable's only reader; it sets no enumeration cap.
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
    bits = n.bit_length()
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


def ipow(base: int, exp: int, context: str = "power") -> int:
    """base ** exp for integers base, exp >= 0, with a digit guard first.

    base ** exp has at most bit_length(base) * exp bits, so Overflow is
    raised before the power is formed when those would pass the digit
    budget (bases 0 and 1 have no large powers).
    """
    if base > 1 and base.bit_length() * exp * 0.30103 > digit_budget():
        raise Overflow(
            f"{context}: exponentiation would exceed the digit budget",
            log_magnitude=ln_int(base) * exp,
        )
    return base ** exp


def ipow_ceil(base: int, num: int, den: int, context: str = "power") -> int:
    """ceil(base ** (num/den)) exactly, for base >= 1 and num, den >= 1,
    with ipow's digit guard on base ** num, which is formed first."""
    if base < 1:
        raise ValueError("ipow_ceil needs base >= 1")
    if base == 1:
        return 1
    return iroot_ceil(ipow(base, num, context), den)


@contextmanager
def _interval_precision(prec: int):
    """mpmath, its interval context set to prec bits and restored on exit.

    The module's only import of mpmath.
    """
    import mpmath

    old = mpmath.iv.prec
    mpmath.iv.prec = prec
    try:
        yield mpmath
    finally:
        mpmath.iv.prec = old


def _ln_below(n: int, bound: Fraction, max_prec: int) -> bool:
    """Certified decision of ln(n) < bound for integer n >= 2.

    Escalates interval precision until the comparison is strict. ln(n)
    is irrational, so it never equals the rational bound and the
    intervals separate once the precision is high enough.
    """
    prec = max(64, n.bit_length() + 16)
    while prec <= max_prec:
        with _interval_precision(prec) as mp:
            ln_iv = mp.iv.log(mp.iv.mpf(n))
            b_iv = mp.iv.mpf(bound.numerator) / mp.iv.mpf(bound.denominator)
        if ln_iv < b_iv:
            return True
        if ln_iv > b_iv:
            return False
        prec *= 2
    raise CertificationFailed(
        f"could not decide ln({n}) vs {bound} within precision {max_prec}"
    )


def cert_ln_le(n: int, bound: Fraction, max_prec: int = 1 << 14) -> bool:
    """Certified decision of ln(n) <= bound for integer n >= 1.

    n = 1 is decided exactly; otherwise see _ln_below.
    """
    if n < 1:
        raise ValueError("cert_ln_le needs n >= 1")
    if n == 1:
        return bound >= 0
    return _ln_below(n, bound, max_prec)


def cert_ln_ge(n: int, bound: Fraction, max_prec: int = 1 << 14) -> bool:
    """Certified decision of ln(n) >= bound for integer n >= 1."""
    if n < 1:
        raise ValueError("cert_ln_ge needs n >= 1")
    if n == 1:
        return bound <= 0
    return not _ln_below(n, bound, max_prec)


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
        with _interval_precision(prec) as mp:
            val = mp.iv.exp(mp.iv.mpf(q)) / mp.iv.mpf(q * q)
            cl = int(mp.ceil(mp.mpf(val.a)))
            ch = int(mp.ceil(mp.mpf(val.b)))
        if cl == ch:
            return cl
        prec *= 2
    raise CertificationFailed(f"ceil(e^{q}/{q}^2) undecided at precision {max_prec}")
