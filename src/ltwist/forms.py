"""Maass newform data model, FORM file ingestion, and the coefficient engine.

A form is its level, weight, parity/eigenvalue data, nebentypus table, and
the Hecke eigenvalues lambda(p) at primes read from its FORM file; every
other coefficient is derived here by exact Hecke recurrences, one value at
a time or as a table lambda(1..X).  All numbers are exact Gaussian
rationals (ComplexParam), so serialize/parse is a true round trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import mpmath as mp

from .dirichlet import factorize, is_prime
from .errors import InvariantError, MissingPrimeError, ParseError
from .precision import (ComplexParam, PrecisionContext, default_context,
                        format_decimal, parse_decimal)

__all__ = ["Nebentypus", "MaassForm", "FormFixture", "kim_sarnak_bound",
           "parse_form", "parse_fixture", "serialize_form", "hecke_coeff",
           "prime_power_a", "dual_form"]

# Rankin-Selberg / functoriality exponent towards Ramanujan: |alpha_p|,
# |beta_p| <= p^theta with theta = 7/64, hence |lambda(p)| <= p^theta + p^-theta.
KS_THETA = Fraction(7, 64)


def kim_sarnak_bound(p: int, ctx: PrecisionContext | None = None):
    """p^(7/64) + p^(-7/64), the sharpest unconditional |lambda(p)| bound."""
    ctx = ctx or default_context()
    with ctx.workprec():
        t = mp.mpf(KS_THETA.numerator) / KS_THETA.denominator
        return mp.power(p, t) + mp.power(p, -t)


@dataclass(frozen=True)
class Nebentypus:
    """Explicit value table mod N; `table` is None for the trivial character,
    else exact values at residues 1..N-1 (zeros at non-coprime residues)."""

    modulus: int
    table: tuple | None = None

    def __post_init__(self):
        if self.table is not None and len(self.table) != self.modulus - 1:
            raise InvariantError(
                f"nebentypus table mod {self.modulus} needs "
                f"{self.modulus - 1} entries, got {len(self.table)}")

    @property
    def is_trivial(self) -> bool:
        return self.table is None

    def value(self, n: int) -> ComplexParam:
        n %= self.modulus
        if math.gcd(n, self.modulus) != 1:
            return ComplexParam(Fraction(0), Fraction(0))
        if self.table is None:
            return ComplexParam(Fraction(1), Fraction(0))
        return self.table[n - 1]

    def conjugate(self) -> "Nebentypus":
        if self.table is None:
            return self
        return Nebentypus(self.modulus,
                          tuple(v.conjugate() for v in self.table))


@dataclass(frozen=True)
class MaassForm:
    """Primitive Maass newform of weight k in {0,1} and level N.

    eps is the reflection-eigenvalue sign, eta the unimodular eigenvalue of
    the Fricke-type involution entering the functional equation, nu the
    spectral parameter, xi the nebentypus, prime_coeffs the ingested Hecke
    eigenvalues lambda(p) as sorted (p, value) pairs.  coeff_bound is the
    largest X such that lambda(n) is derivable for every n <= X.
    """

    level: int
    weight: int
    eps: int
    eta: ComplexParam
    nu: ComplexParam
    xi: Nebentypus
    prime_coeffs: tuple
    coeff_bound: int

    @cached_property
    def coeff_map(self) -> dict:
        return dict(self.prime_coeffs)

    @cached_property
    def digest(self) -> int:
        """The form's hash, computed once per object: caches key the form on
        it.  Equality stays the field-by-field dataclass comparison."""
        return hash((self.level, self.weight, self.eps, self.eta, self.nu,
                     self.xi, self.prime_coeffs, self.coeff_bound))

    def __hash__(self) -> int:
        return self.digest

    def lam(self, p: int) -> ComplexParam:
        try:
            return self.coeff_map[p]
        except KeyError:
            raise MissingPrimeError(f"lambda({p}) not ingested") from None


@dataclass(frozen=True)
class FormFixture:
    """A MaassForm plus where its numbers came from and how accurate they are."""

    form: MaassForm
    provenance: str
    prec: Fraction

    def __post_init__(self):
        if not self.provenance.strip():
            raise InvariantError("provenance must be non-empty")


def _derivable_bound(primes) -> int:
    """Largest X with every n <= X having all prime factors in `primes`."""
    have = set(primes)
    n = 2
    while n in have or not is_prime(n):
        n += 1
    return n - 1


def _validate(form: MaassForm, ctx: PrecisionContext) -> None:
    if form.weight not in (0, 1):
        raise InvariantError(f"weight must be 0 or 1, got {form.weight}")
    if form.eps not in (1, -1):
        raise InvariantError(f"eps must be +1 or -1, got {form.eps}")
    with ctx.workprec():
        if abs(abs(form.eta.mpc(ctx)) - 1) > ctx.tol:
            raise InvariantError("|eta| = 1 violated")
        nu = form.nu
        imaginary_ok = abs(nu.re) <= ctx.tol and nu.im >= -Fraction(ctx.tol)
        real_ok = (form.weight == 0 and abs(nu.im) <= ctx.tol
                   and 0 <= nu.re <= KS_THETA + Fraction(ctx.tol))
        if not (imaginary_ok or real_ok):
            raise InvariantError(
                "nu must lie on i*[0,oo) (or in (0, 7/64] for weight 0), "
                f"got {nu.re}+{nu.im}i")
        for p, lam in form.prime_coeffs:
            if abs(lam.mpc(ctx)) > kim_sarnak_bound(p, ctx) + ctx.tol:
                raise InvariantError(
                    f"|lambda({p})| exceeds the Kim-Sarnak bound "
                    f"p^(7/64)+p^(-7/64)")


# ---------------------------------------------------------------------------
# FORM file format


def _to_text(data) -> str:
    if isinstance(data, (bytes, bytearray)):
        return bytes(data).decode("utf-8")
    if hasattr(data, "read"):
        raw = data.read()
        return raw.decode("utf-8") if isinstance(raw, (bytes, bytearray)) else raw
    return data


def _parse_pair(tokens, line_no):
    if len(tokens) != 2:
        raise ParseError(line_no, "expected two decimal fields")
    try:
        return ComplexParam(parse_decimal(tokens[0]), parse_decimal(tokens[1]))
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from None


_HEADER_KEYS = ("N", "k", "eps", "eta", "nu", "xi", "prec", "provenance")


def parse_fixture(data, ctx: PrecisionContext | None = None) -> FormFixture:
    """Parse a FORM v1 file into a validated FormFixture."""
    ctx = ctx or default_context()
    lines = _to_text(data).split("\n")
    if not lines or lines[0].strip() != "FORM v1":
        raise ParseError(1, "missing 'FORM v1' header")

    fields: dict = {}
    i = 1
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if line == "coeffs":
            break
        if "=" not in line:
            raise ParseError(i, f"expected 'key = value' or 'coeffs', got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _HEADER_KEYS:
            raise ParseError(i, f"unknown key {key!r}")
        if key in fields:
            raise ParseError(i, f"duplicate key {key!r}")
        fields[key] = (value, i)
    else:
        raise ParseError(len(lines), "missing 'coeffs' section")

    for key in _HEADER_KEYS:
        if key not in fields:
            raise ParseError(i, f"missing key {key!r}")

    def take(key):
        return fields[key]

    value, ln = take("N")
    try:
        level = int(value)
    except ValueError:
        raise ParseError(ln, f"N must be an integer, got {value!r}") from None
    if level < 1:
        raise ParseError(ln, "N must be positive")

    value, ln = take("k")
    if value not in ("0", "1"):
        raise ParseError(ln, f"k must be 0 or 1, got {value!r}")
    weight = int(value)

    value, ln = take("eps")
    if value not in ("+1", "-1"):
        raise ParseError(ln, f"eps must be +1 or -1, got {value!r}")
    eps = int(value)

    value, ln = take("eta")
    eta = _parse_pair(value.split(), ln)
    value, ln = take("nu")
    nu = _parse_pair(value.split(), ln)

    value, ln = take("xi")
    if value == "trivial":
        xi = Nebentypus(level, None)
    elif value.startswith("values:"):
        tokens = value[len("values:"):].split()
        if len(tokens) != level - 1:
            raise ParseError(ln, f"xi needs {level - 1} value pairs, "
                                 f"got {len(tokens)}")
        entries = []
        for tok in tokens:
            parts = tok.split(",")
            entries.append(_parse_pair(parts, ln))
        xi = Nebentypus(level, tuple(entries))
    else:
        raise ParseError(ln, "xi must be 'trivial' or 'values: ...'")

    value, ln = take("prec")
    try:
        prec = parse_decimal(value)
    except ValueError as exc:
        raise ParseError(ln, str(exc)) from None

    provenance, _ = take("provenance")

    coeffs = []
    seen = set()
    closed = False
    while i < len(lines):
        line = lines[i].strip()
        i += 1
        if line == "end":
            closed = True
            break
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise ParseError(i, f"coefficient line must be '<p> <re> [<im>]', "
                                f"got {line!r}")
        try:
            p = int(tokens[0])
        except ValueError:
            raise ParseError(i, f"prime index must be an integer, "
                                f"got {tokens[0]!r}") from None
        if not is_prime(p):
            raise ParseError(i, f"coefficient index {p} is not prime")
        if p in seen:
            raise ParseError(i, f"duplicate coefficient for p={p}")
        seen.add(p)
        try:
            re_part = parse_decimal(tokens[1])
            im_part = parse_decimal(tokens[2]) if len(tokens) == 3 else Fraction(0)
        except ValueError as exc:
            raise ParseError(i, str(exc)) from None
        coeffs.append((p, ComplexParam(re_part, im_part)))
    if not closed:
        raise ParseError(len(lines), "missing 'end'")
    while i < len(lines):
        if lines[i].strip():
            raise ParseError(i + 1, f"trailing content after 'end': "
                                    f"{lines[i].strip()!r}")
        i += 1

    coeffs.sort()
    form = MaassForm(level=level, weight=weight, eps=eps, eta=eta, nu=nu,
                     xi=xi, prime_coeffs=tuple(coeffs),
                     coeff_bound=_derivable_bound(p for p, _ in coeffs))
    _validate(form, ctx)
    return FormFixture(form=form, provenance=provenance, prec=prec)


def parse_form(data, ctx: PrecisionContext | None = None) -> MaassForm:
    """Parse a FORM v1 file, returning just the validated MaassForm."""
    return parse_fixture(data, ctx).form


def _fmt_pair(z: ComplexParam) -> str:
    return f"{format_decimal(z.re)} {format_decimal(z.im)}"


def serialize_form(fixture: FormFixture) -> str:
    """Canonical FORM v1 text; parse_fixture(serialize_form(fx)) == fx."""
    f = fixture.form
    if f.xi.is_trivial:
        xi_text = "trivial"
    else:
        xi_text = "values: " + " ".join(
            f"{format_decimal(v.re)},{format_decimal(v.im)}" for v in f.xi.table)
    out = ["FORM v1",
           f"N = {f.level}",
           f"k = {f.weight}",
           f"eps = {'+1' if f.eps == 1 else '-1'}",
           f"eta = {_fmt_pair(f.eta)}",
           f"nu = {_fmt_pair(f.nu)}",
           f"xi = {xi_text}",
           f"prec = {format_decimal(fixture.prec)}",
           f"provenance = {fixture.provenance}",
           "coeffs"]
    for p, lam in f.prime_coeffs:
        if lam.im == 0:
            out.append(f"{p} {format_decimal(lam.re)}")
        else:
            out.append(f"{p} {format_decimal(lam.re)} {format_decimal(lam.im)}")
    out.append("end")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Coefficient engines (exact Gaussian-rational arithmetic throughout)

_ONE = ComplexParam(Fraction(1), Fraction(0))
_TWO = ComplexParam(Fraction(2), Fraction(0))


def _power_recurrence(f: MaassForm, p: int, j: int, start) -> ComplexParam:
    """u_j for j >= 1 of u_(i+1) = lambda(p) u_i - xi(p) u_(i-1) with
    u_0 = start, u_1 = lambda(p): lambda(p^j) from start 1, a(p^j) from 2."""
    lam_p = f.lam(p)
    xi_p = f.xi.value(p)
    prev, cur = start, lam_p
    for _ in range(j - 1):
        prev, cur = cur, lam_p * cur - xi_p * prev
    return cur


def hecke_coeff(f: MaassForm, n: int) -> ComplexParam:
    """lambda(n) by multiplicativity over the prime factorization of n."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    result = _ONE
    for p, j in factorize(n):
        result = result * _power_recurrence(f, p, j, _ONE)
    return result


def hecke_table(f: MaassForm, X: int) -> list:
    """Exact [None, lambda(1), ..., lambda(X)] from a smallest-prime-factor
    sieve: lambda(p^j m) = lambda(p^j) lambda(m) for p the least prime
    factor and p not dividing m, lambda(p^j) by the Hecke recurrence.
    MissingPrimeError names the least prime <= X not ingested."""
    spf = list(range(X + 1))
    for p in range(2, math.isqrt(X) + 1):
        if spf[p] == p:
            for m in range(p * p, X + 1, p):
                spf[m] = min(spf[m], p)
    lam = [None, _ONE] + [None] * (X - 1)
    for n in range(2, X + 1):
        p = spf[n]
        pj = p
        while n % (pj * p) == 0:
            pj *= p
        if pj < n:
            lam[n] = lam[pj] * lam[n // pj]
        elif pj == p:
            lam[n] = f.lam(p)
        else:
            lam[n] = lam[p] * lam[n // p] - f.xi.value(p) * lam[n // (p * p)]
    return lam


def prime_power_a(f: MaassForm, p: int, m: int) -> ComplexParam:
    """a(p^m) = alpha^m + beta^m for the Satake roots of 1 - lambda(p) X + xi(p) X^2.

    Power sums via a(p^(m+1)) = lambda(p) a(p^m) - xi(p) a(p^(m-1)), a(1) = 2.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    return _power_recurrence(f, p, m, _TWO)


def dual_form(f: MaassForm) -> MaassForm:
    """The dual: all coefficient data conjugated, N/k/eps unchanged.  Built
    once per form object, whose dual's dual is the object itself, so a warm
    call builds and hashes nothing."""
    if "dual" not in vars(f):
        dual = MaassForm(level=f.level, weight=f.weight, eps=f.eps,
                         eta=f.eta.conjugate(), nu=f.nu.conjugate(),
                         xi=f.xi.conjugate(),
                         prime_coeffs=tuple((p, lam.conjugate())
                                            for p, lam in f.prime_coeffs),
                         coeff_bound=f.coeff_bound)
        vars(f)["dual"], vars(dual)["dual"] = dual, f
    return vars(f)["dual"]
