"""Working-precision plumbing shared by every numeric module.

All transcendental operations take an explicit PrecisionContext; nothing in
the package reads or mutates mpmath's global precision outside a `workprec`
block.  ComplexParam is the exact (rational real/imaginary part) container
used wherever a value must survive round-trips without rounding: parsed FORM
files, CLI arguments, exact-arithmetic identity checks.
"""

from __future__ import annotations

import functools
import re as _re
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

DEFAULT_BITS = 128
# Guard digits on top of the requested working precision.  Every kernel does
# its internal arithmetic at work_bits + GUARD_BITS and certifies against
# tolerances stated at work_bits.
GUARD_BITS = 24


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision and tolerance target threaded through all numerics.

    work_bits      binary mantissa size for intermediates (>= 64)
    tol            target absolute/relative tolerance for certified results
    max_quad_depth refinement cap for adaptive quadrature / step-halving
    """

    work_bits: int = DEFAULT_BITS
    tol: float = 1e-10
    max_quad_depth: int = 10

    def __post_init__(self):
        if self.work_bits < 64:
            raise ValueError("work_bits must be >= 64")
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_quad_depth < 1:
            raise ValueError("max_quad_depth must be >= 1")

    def workprec(self):
        """mpmath context manager entering the guarded working precision."""
        return mp.workprec(self.work_bits + GUARD_BITS)

    @property
    def eps(self) -> float:
        """Machine epsilon at the working precision."""
        return 2.0 ** (1 - self.work_bits)

    def scaled(self, factor: int = 2) -> "PrecisionContext":
        """Same tolerance budget at `factor` times the working precision."""
        return PrecisionContext(self.work_bits * factor, self.tol,
                                self.max_quad_depth)


_DEFAULT_CTX = PrecisionContext()


def default_context() -> PrecisionContext:
    return _DEFAULT_CTX


class Store:
    """The one owner of everything memoised, under explicit keys (kind, form
    digest, work_bits, *rest): never a form object (the digest is computed
    once per form) and never mpmath's global precision."""

    def __init__(self):
        self.entries: dict = {}

    def memo(self, kind: str, by_bits: bool = True):
        """Decorator: fn(x, *rest, ctx) is built once per key (kind, digest
        of the form x -- or x itself when it is not a form --,
        ctx.work_bits, *rest), inside ctx.workprec(); by_bits=False puts
        None in place of the bits for a value that does not depend on them."""
        def wrap(fn):
            @functools.wraps(fn)
            def memoised(x, *args):
                *rest, ctx = args
                key = (kind, getattr(x, "digest", x),
                       ctx.work_bits if by_bits else None, *rest)
                if key not in self.entries:
                    with ctx.workprec():
                        self.entries[key] = fn(x, *args)
                return self.entries[key]
            return memoised
        return wrap


STORE = Store()


_DECIMAL_RE = _re.compile(r"^[+-]?(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?$")


def parse_decimal(text: str) -> Fraction:
    """Exact rational value of a decimal literal (optionally with exponent)."""
    text = text.strip()
    if not _DECIMAL_RE.match(text):
        raise ValueError(f"not a decimal literal: {text!r}")
    return Fraction(text)


def format_decimal(x: Fraction) -> str:
    """Canonical decimal rendering of a Fraction with 2^a*5^b denominator.

    Inverse of parse_decimal on canonical output (no exponent, no trailing
    zeros, no leading '+').
    """
    num, den = x.numerator, x.denominator
    d = den
    two = five = 0
    while d % 2 == 0:
        d //= 2
        two += 1
    while d % 5 == 0:
        d //= 5
        five += 1
    if d != 1:
        raise ValueError(f"{x} has no finite decimal expansion")
    shift = max(two, five)
    scaled = num * 10**shift // den  # exact by construction
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    if shift == 0:
        return sign + digits
    whole, frac = digits[:-shift], digits[-shift:]
    frac = frac.rstrip("0")
    return sign + whole + ("." + frac if frac else "")


def dyadic_fraction(x) -> Fraction:
    """Exact Fraction equal to a binary float or mpf (loss-free)."""
    sign, man, exp, _ = mp.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    return Fraction(-int(man) if sign else int(man)) * Fraction(2) ** exp


@dataclass(frozen=True)
class ComplexParam:
    """A complex scalar with exact rational components.

    Conversion to working precision happens on demand via mpc(); equality and
    hashing are exact, so round-trips through serialization are loss-free.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    @classmethod
    def from_decimals(cls, re_text: str, im_text: str = "0") -> "ComplexParam":
        return cls(parse_decimal(re_text), parse_decimal(im_text))

    @classmethod
    def coerce(cls, value) -> "ComplexParam":
        if isinstance(value, ComplexParam):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(Fraction(value))
        if isinstance(value, str):
            return cls.from_decimals(value)
        if isinstance(value, complex):
            return cls(Fraction(value.real), Fraction(value.imag))
        if isinstance(value, float):
            return cls(Fraction(value))
        if isinstance(value, mp.mpf):
            return cls(dyadic_fraction(value))
        if isinstance(value, mp.mpc):
            return cls(dyadic_fraction(value.real), dyadic_fraction(value.imag))
        raise TypeError(f"cannot coerce {type(value).__name__} to ComplexParam")

    def mpc(self, ctx: PrecisionContext | None = None) -> mp.mpc:
        with (ctx or _DEFAULT_CTX).workprec():
            return self.rounded()

    def rounded(self) -> mp.mpc:
        """The value at the precision in force: inside ctx.workprec() it
        equals mpc(ctx) bit for bit, without entering a context per call."""
        return mp.mpc(mp.mpf(self.re.numerator) / self.re.denominator,
                      mp.mpf(self.im.numerator) / self.im.denominator)

    def conjugate(self) -> "ComplexParam":
        return ComplexParam(self.re, -self.im)

    @property
    def is_real(self) -> bool:
        return self.im == 0

    def __complex__(self) -> complex:
        return complex(self.re) + 1j * complex(self.im)

    # -- exact Gaussian-rational arithmetic (used by the exact test modes) --

    def __add__(self, other) -> "ComplexParam":
        o = ComplexParam.coerce(other)
        return ComplexParam(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "ComplexParam":
        return ComplexParam(-self.re, -self.im)

    def __sub__(self, other) -> "ComplexParam":
        return self + (-ComplexParam.coerce(other))

    def __rsub__(self, other) -> "ComplexParam":
        return ComplexParam.coerce(other) + (-self)

    def __mul__(self, other) -> "ComplexParam":
        o = ComplexParam.coerce(other)
        return ComplexParam(self.re * o.re - self.im * o.im,
                            self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ComplexParam":
        o = ComplexParam.coerce(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("ComplexParam division by zero")
        return ComplexParam((self.re * o.re + self.im * o.im) / n,
                            (self.im * o.re - self.re * o.im) / n)

    def __rtruediv__(self, other) -> "ComplexParam":
        return ComplexParam.coerce(other) / self

    def __bool__(self) -> bool:
        return bool(self.re or self.im)


def to_mpc(value, ctx: PrecisionContext | None = None) -> mp.mpc:
    """Coerce ints/floats/Fractions/mp numbers/ComplexParam to mpc."""
    if isinstance(value, ComplexParam):
        return value.mpc(ctx)
    if isinstance(value, Fraction):
        with (ctx or _DEFAULT_CTX).workprec():
            return mp.mpc(mp.mpf(value.numerator) / value.denominator)
    return mp.mpc(value)


def to_real(value, ctx: PrecisionContext | None = None) -> mp.mpf:
    """Coerce to a real mpf; rejects values with an imaginary part."""
    z = to_mpc(value, ctx)
    if z.imag != 0:
        raise ValueError(f"expected a real value, got {value}")
    return z.real
