"""Dirichlet-series layer.

Coefficient tables for L_f (lambda), -L'/L (a at prime powers) and
D_f = L_f (log L_f)'' (c), truncated series evaluation with certified
Kim-Sarnak tail bounds, additive-vs-multiplicative twist decomposition,
the principal-twist Euler identity and its pole lattice, Rankin-Selberg
averages and the exact Vandermonde solver.

Everything here lives in the half-plane of absolute convergence;
continuation into the strip is the business of the completed function.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath as mp

from .dirichlet import (DirichletCharacter, characters, factorize, is_prime,
                        root_number)
from .errors import (DegenerateError, MissingPrimeError, SingularError,
                     TailError)
from .forms import (KS_THETA, MaassForm, hecke_coeff, hecke_table,
                    least_prime_factors, prime_power_a, sieve_factorize)
from .precision import (STORE, ComplexParam, PrecisionContext,
                        default_context, to_mpc)

__all__ = ["TwistSpec", "CoeffTable", "SeriesValue", "PoleLattice",
           "PrincipalTwistReport", "RSReport", "lambda_table", "a_table",
           "c_coeffs", "c_exact_parts", "eval_series", "eval_char_series",
           "twist_decomposition", "principal_twist", "rs_average",
           "vandermonde_coeffs"]

_ZERO = ComplexParam(Fraction(0), Fraction(0))
_ONE = ComplexParam(Fraction(1), Fraction(0))


@dataclass(frozen=True)
class TwistSpec:
    """Additive twist by e-periodic cos^(j)(2 pi n alpha) against L or D."""

    alpha: Fraction
    deriv_order: int = 0
    series_kind: str = "D"

    def __post_init__(self):
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        if self.alpha == 0:
            raise ValueError("twist alpha must be non-zero")
        if self.deriv_order < 0:
            raise ValueError("deriv_order must be >= 0")
        if self.series_kind not in ("L", "D"):
            raise ValueError("series_kind must be 'L' or 'D'")


@dataclass(frozen=True, eq=False)
class CoeffTable:
    """kind in {lambda, a, c}; values maps n <= bound to coefficients.

    lambda/a tables hold exact ComplexParam entries; c tables hold working
    precision complex values (each c(n) is a rational combination of
    (log p)^2 over primes p | n).
    """

    kind: str
    values: dict
    bound: int

    def __post_init__(self):
        if self.kind not in ("lambda", "a", "c"):
            raise ValueError(f"unknown table kind {self.kind!r}")
        if self.kind == "lambda" and self.values.get(1) != _ONE:
            raise ValueError("lambda table must have value 1 at n=1")
        if self.kind == "c" and self.values.get(1, 0) != 0:
            raise ValueError("c table must vanish at n=1")


def _primes(f: MaassForm, X: int) -> list:
    """The primes p <= X: the ingested ones, up to coeff_bound, beyond
    which lambda(coeff_bound + 1) raises MissingPrimeError."""
    if X > f.coeff_bound:
        f.lam(f.coeff_bound + 1)
    return [p for p, _ in f.prime_coeffs if p <= X]


def lambda_table(f: MaassForm, X: int) -> CoeffTable:
    """Exact lambda(n) for n <= X."""
    values = dict(enumerate(hecke_table(f, X)[1:], start=1))
    return CoeffTable("lambda", values, X)


def a_table(f: MaassForm, X: int) -> CoeffTable:
    """Exact a(n) (power sums of Satake roots) at prime powers n <= X, else 0."""
    values = {n: _ZERO for n in range(1, X + 1)}
    for p in _primes(f, X):
        n, m = p, 1
        while n <= X:
            values[n] = prime_power_a(f, p, m)
            n, m = n * p, m + 1
    return CoeffTable("a", values, X)


def c_exact_parts(f: MaassForm, n: int) -> dict:
    """c(n) decomposed as sum_p parts[p] * (log p)^2, exactly.

    c(n) = sum over d | n, d > 1 of lambda(n/d) Lambda(d) a(d) log d;
    the prime-power divisor d = p^m contributes m * lambda(n/d) * a(p^m)
    in units of (log p)^2.  The cofactors n/d come one at a time from
    hecke_coeff: n may lie far past any table (p^6 needs only lambda(p)).
    """
    parts: dict = {}
    for p, mmax in factorize(n):
        total = _ZERO
        d = p
        for m in range(1, mmax + 1):
            total = total + prime_power_a(f, p, m) * hecke_coeff(f, n // d) * m
            d *= p
        parts[p] = total
    return parts


def c_coeffs(f: MaassForm, X: int,
             ctx: PrecisionContext | None = None) -> CoeffTable:
    """Numeric table of c(n), n <= X, assembled from the exact decomposition."""
    ctx = ctx or default_context()
    with ctx.workprec():
        lam = [None] + [v.rounded() for v in hecke_table(f, X)[1:]]
        values = {n: mp.mpc(0) for n in range(1, X + 1)}
        for p in _primes(f, X):
            logp2 = mp.log(p) ** 2
            d, m = p, 1
            while d <= X:
                a_d = prime_power_a(f, p, m).rounded()
                weight = m * logp2 * a_d
                for t in range(1, X // d + 1):
                    values[t * d] += weight * lam[t]
                d, m = d * p, m + 1
    return CoeffTable("c", values, X)


# ---------------------------------------------------------------------------
# Truncated evaluation with certified tails


def _power_sweep(X: int, x):
    """(n, sieve_factorize(n), n^(-x)) for n = 1..X.  n^(-x) is the product
    of p^(-j x) over the p^j exactly dividing n: mp.power runs once per
    prime p <= X, the prime powers by repeated multiplication, and nothing
    per n is kept."""
    spf = least_prime_factors(X)
    powers = {}
    for p in range(2, X + 1):
        if spf[p] == p:
            q, powers[p] = p, mp.power(p, -x)
            while q * p <= X:
                powers[q * p] = powers[q] * powers[p]
                q *= p
    for n in range(1, X + 1):
        parts = sieve_factorize(spf, n)
        yield n, parts, math.prod(powers[p ** j] for p, j in parts)


@STORE.memo("tail")
def _tail_bound(kind: str, X: int, sigma, ctx: PrecisionContext):
    """Certified bound on the truncated tail sum_{n>X} |coeff(n)| n^(-sigma).

    lambda: |lambda(n)| <= d(n) n^theta        -> zeta(u)^2 partial tail
    a:      |a(n)|      <= 2 n^theta           -> 2 zeta(u) partial tail
    c:      |c(n)| <= 2 d_3(n) (log n)^2 n^theta -> 2 (zeta^3)'' partial tail
    with u = sigma - theta, theta = 7/64: the weight is d_k(n) with k = 2,
    1, 3, times (log n)^2 for c.  The weights do not depend on sigma: d_k is
    multiplicative, d_k(p^j) = C(j + k - 1, j), and log n is the sum of
    j log p, both read off each n's factorisation.  Only zeta(u), its
    derivatives and n^(-u) (from _power_sweep) do.  Rounding in the partial
    sum, about 1e-45 absolute at the guarded precision, lies far below the
    slack of these weights, which overstate |coeff(n)| many times over.
    """
    theta = mp.mpf(KS_THETA.numerator) / KS_THETA.denominator
    u = sigma - theta
    if u <= 1:
        raise ValueError("tail bound needs Re(s) > 1 + 7/64")
    if kind == "lambda":
        full, scale, k = mp.zeta(u) ** 2, 1, 2
    elif kind == "a":
        full, scale, k = mp.zeta(u), 2, 1
    else:
        z = mp.zeta(u)
        z1 = mp.zeta(u, derivative=1)
        z2 = mp.zeta(u, derivative=2)
        full, scale, k = 3 * z ** 2 * z2 + 6 * z * z1 ** 2, 2, 3
    log_p = functools.cache(mp.log)

    def weight(parts):
        d_k = math.prod(math.comb(j + k - 1, j) for _, j in parts)
        if kind != "c":
            return d_k
        return d_k * sum(j * log_p(p) for p, j in parts) ** 2

    partial = mp.fsum(weight(parts) * power
                      for _, parts, power in _power_sweep(X, u))
    return max(scale * (full - partial), mp.mpf(0))


def trig_factor(j: int, x):
    """j-th derivative of cos evaluated at x (period 4 in j)."""
    r = j % 4
    if r == 0:
        return mp.cos(x)
    if r == 1:
        return -mp.sin(x)
    if r == 2:
        return -mp.cos(x)
    return mp.sin(x)


@dataclass(frozen=True)
class SeriesValue:
    """Truncated Dirichlet-series value plus a certified tail bound."""

    value: object
    tail_bound: object
    terms: int

    def __complex__(self):
        return complex(self.value)


def _check_halfplane(kind: str, sigma) -> None:
    if kind == "c":
        if not sigma > mp.mpf(3) / 2:
            raise ValueError("c-series evaluation requires Re(s) > 3/2")
    else:
        floor = mp.mpf(3) / 2 + mp.mpf(7) / 64
        if not sigma > floor:
            raise ValueError(
                "lambda/a-series evaluation requires Re(s) > 3/2 + 7/64")


def _sweep(table: CoeffTable, s, q: int, shapes, ctx: PrecisionContext):
    """([sum_{n<=X} coeff(n) w(n) n^(-s) for w in shapes], certified tail),
    inside ctx.workprec().  Every weight w is q-periodic, given by its
    values at the residues 0..min(q, X+1)-1.  One pass over n sums the
    terms of each residue class; each shape then weighs those class sums.
    n^(-s) comes from _power_sweep, each exact coefficient is rounded once
    at the precision in force.  TailError when the tail exceeds ctx.tol."""
    X = table.bound
    _check_halfplane(table.kind, s.real)
    tail = _tail_bound(table.kind, X, s.real, ctx)
    if tail > ctx.tol:
        raise TailError(
            f"certified tail {mp.nstr(tail, 3)} exceeds tol {ctx.tol} "
            f"at X={X}, Re(s)={mp.nstr(s.real, 6)}")
    classes = [mp.mpc(0)] * min(q, X + 1)
    for n, _, power in _power_sweep(X, s):
        coeff = table.values[n]
        if coeff:
            if isinstance(coeff, ComplexParam):
                coeff = coeff.rounded()
            classes[n % q] += coeff * power
    return [mp.fsum(w * z for w, z in zip(shape, classes))
            for shape in shapes], tail


def _trig_weights(j: int, alpha: Fraction, X: int) -> list:
    """cos^(j)(2 pi n alpha) at the residues n mod alpha's denominator."""
    a, q = alpha.numerator, alpha.denominator
    return [trig_factor(j, 2 * mp.pi * (r * a % q) / q)
            for r in range(min(q, X + 1))]


def eval_series(table: CoeffTable, s, twist: TwistSpec | None,
                ctx: PrecisionContext | None = None) -> SeriesValue:
    """sum_{n<=X} coeff(n) cos^(j)(2 pi n alpha) n^(-s), certified tail.

    Raises TailError when the certified tail bound exceeds ctx.tol.
    """
    ctx = ctx or default_context()
    if twist is not None:
        want = "lambda" if twist.series_kind == "L" else "c"
        if table.kind != want:
            raise ValueError(
                f"{twist.series_kind}-twist needs a {want!r} table, "
                f"got {table.kind!r}")
    with ctx.workprec():
        if twist is None:
            q, shape = 1, [1]
        else:
            q = twist.alpha.denominator
            shape = _trig_weights(twist.deriv_order, twist.alpha, table.bound)
        (total,), tail = _sweep(table, to_mpc(s, ctx), q, [shape], ctx)
        return SeriesValue(total, tail, table.bound)


def eval_char_series(table: CoeffTable, s, chi: DirichletCharacter,
                     ctx: PrecisionContext | None = None) -> SeriesValue:
    """Multiplicative twist sum_{n<=X} coeff(n) chi(n) n^(-s), certified tail."""
    ctx = ctx or default_context()
    with ctx.workprec():
        (total,), tail = _sweep(table, to_mpc(s, ctx), chi.modulus,
                                [chi.values(ctx)], ctx)
        return SeriesValue(total, tail, table.bound)


# ---------------------------------------------------------------------------
# Twist decomposition and the principal twist


def twist_decomposition(f: MaassForm, q: int, s,
                        ctx: PrecisionContext | None = None,
                        X: int | None = None):
    """|D(s, 1/q, cos) - [D(s) - q/(q-1) D(s,chi_0) + sqrt(q)/(q-1)
    sum over even non-principal chi of conj(eps_chi) D(s,chi)]|.

    Both sides truncate at the same X, so the residual reflects only the
    expansion of cos(2 pi n / q) into characters plus rounding.  One sweep
    over n gives all 3 + (q - 3)/2 sums.
    """
    ctx = ctx or default_context()
    if not is_prime(q) or f.level % q == 0:
        raise ValueError("q must be a prime not dividing the level")
    if X is None:
        X = min(f.coeff_bound, 2000)
    table = c_coeffs(f, X, ctx)
    with ctx.workprec():
        chars = characters(q)
        even = [chi for chi in chars[1:] if chi.parity == 1]
        shapes = [_trig_weights(0, Fraction(1, q), X), [1] * q]
        shapes += [chi.values(ctx) for chi in [chars[0]] + even]
        (lhs, plain, chi0_sum, *twisted), _ = _sweep(
            table, to_mpc(s, ctx), q, shapes, ctx)
        rhs = plain - mp.mpf(q) / (q - 1) * chi0_sum
        scale = mp.sqrt(q) / (q - 1)
        for chi, value in zip(even, twisted):
            rhs += scale * mp.conj(root_number(chi, ctx)) * value
        return abs(lhs - rhs)


@dataclass(frozen=True)
class PoleLattice:
    """Vertical lattice s = sigma0 + i (theta + 2 pi m)/log q of Euler poles."""

    sigma0: object
    theta: object
    spacing: object


@dataclass(frozen=True)
class PrincipalTwistReport:
    """Coefficientwise check of chi_0-twisting = removing the q-Euler factor."""

    q: int
    bound: int
    identity_holds: bool
    failures: tuple


def principal_twist(f: MaassForm, q: int, X: int,
                    ctx: PrecisionContext | None = None):
    """Check lambda(n) chi_0(n) = coefficients of (1 - lambda(q) q^(-s)
    + xi(q) q^(-2s)) L_f(s) for n <= X, and locate the poles the removed
    Euler factor reintroduces in D_f(s, chi_0).
    """
    ctx = ctx or default_context()
    if not is_prime(q) or f.level % q == 0:
        raise ValueError("q must be a prime not dividing the level")
    lam_q = f.lam(q)
    xi_q = f.xi.value(q)
    lam = hecke_table(f, X)
    failures = []
    for n in range(1, X + 1):
        coeff = lam[n]
        if n % q == 0:
            coeff = coeff - lam_q * lam[n // q]
        if n % (q * q) == 0:
            coeff = coeff + xi_q * lam[n // (q * q)]
        want = _ZERO if n % q == 0 else lam[n]
        if coeff != want:
            failures.append(n)
    report = PrincipalTwistReport(q, X, not failures, tuple(failures))

    # |lambda(q)| = 2 exactly <=> the Euler polynomial has a double root
    norm = lam_q.re * lam_q.re + lam_q.im * lam_q.im
    if norm == 4:
        raise DegenerateError(f"|lambda({q})| = 2: double Satake root")
    xi_norm = xi_q.re * xi_q.re + xi_q.im * xi_q.im
    lattices = None
    with ctx.workprec():
        if norm < 4 and xi_norm == 1:
            lam = lam_q.mpc(ctx)
            xi = xi_q.mpc(ctx)
            logq = mp.log(q)
            roots = mp.polyroots([xi, -lam, mp.mpf(1)], extraprec=50)
            lattices = tuple(
                PoleLattice(sigma0=-mp.log(abs(r)) / logq,
                            theta=-mp.arg(r),
                            spacing=2 * mp.pi / logq)
                for r in roots)
    return report, lattices


@dataclass(frozen=True)
class RSReport:
    """Average of |lambda(q)|^2 over primes q <= x, with small-value evidence."""

    average: object
    prime_count: int
    min_abs: object
    first_small_q: int | None

    def __float__(self):
        return float(self.average)


def rs_average(f: MaassForm, x: int,
               ctx: PrecisionContext | None = None) -> RSReport:
    """Rankin-Selberg style average (-> 1 as x grows) plus min |lambda(q)|
    and the first prime with |lambda(q)| < 2."""
    ctx = ctx or default_context()
    primes = [p for p, _ in f.prime_coeffs if p <= x]
    if not primes or primes != [p for p, least in
                                enumerate(least_prime_factors(x))
                                if p == least > 1]:
        raise MissingPrimeError(f"need all primes <= {x} ingested")
    with ctx.workprec():
        total = mp.mpf(0)
        min_abs = mp.inf
        first_small = None
        for p in primes:
            val = abs(f.lam(p).mpc(ctx))
            total += val ** 2
            if val < min_abs:
                min_abs = val
            if first_small is None and val < 2:
                first_small = p
        return RSReport(total / len(primes), len(primes), min_abs, first_small)


def vandermonde_coeffs(q_list, m0: int) -> list:
    """Exact rationals c_j with sum_j c_j q_j^(-m) = delta_{m,m0},
    m = 0..M-1, via Gaussian elimination over Q."""
    M = len(q_list)
    if len(set(q_list)) != M:
        raise ValueError("q_list entries must be distinct")
    if not 0 <= m0 < M:
        raise ValueError("m0 must lie in [0, M-1]")
    rows = [[Fraction(1, q ** m) for q in q_list] + [Fraction(int(m == m0))]
            for m in range(M)]
    for col in range(M):
        pivot = next((r for r in range(col, M) if rows[r][col] != 0), None)
        if pivot is None:
            raise SingularError("Vandermonde system is singular")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col][col]
        rows[col] = [v / lead for v in rows[col]]
        for r in range(M):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return [rows[j][M] for j in range(M)]
