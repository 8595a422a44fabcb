"""Dirichlet characters mod a prime q, Gauss sums, root numbers, and the
expansion of cos/sin(2*pi*n/q) as character combinations.

Characters are realized exactly as powers of a primitive root: chi_j(g^k) =
zeta^(j*k) with zeta = e^(2*pi*i/(q-1)); only the final complex embedding
rounds.  Prime modulus only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import mpmath as mp

from .errors import NotPrimeError, PrincipalError
from .precision import PrecisionContext, default_context

__all__ = ["DirichletCharacter", "TrigExpansion", "characters", "gauss_sum",
           "root_number", "trig_coeffs", "is_prime"]


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """[(p, j), ...] with p^j exactly dividing n >= 1, p increasing, by
    trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            j = 0
            while n % p == 0:
                n //= p
                j += 1
            out.append((p, j))
        p += 1 if p == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


def primitive_root(q: int) -> int:
    """Smallest primitive root mod prime q."""
    order = q - 1
    factors = [p for p, _ in factorize(order)]
    for g in range(2, q):
        if all(pow(g, order // p, q) != 1 for p in factors):
            return g
    raise NotPrimeError(f"no primitive root mod {q}")


@dataclass(frozen=True)
class DirichletCharacter:
    """chi_j mod prime q with chi_j(g^k) = e^(2 pi i j k / (q-1)).

    dlog maps residues 1..q-1 to discrete logs base g; the value table is
    realized at working precision on demand.
    """

    modulus: int
    index: int
    dlog: tuple = field(repr=False)

    @property
    def is_principal(self) -> bool:
        return self.index == 0

    @property
    def parity(self) -> int:
        """chi(-1): +1 for even characters, -1 for odd."""
        return -1 if self.index % 2 else 1

    @property
    def delta(self) -> int:
        """(1 - chi(-1)) / 2 in {0, 1}."""
        return self.index % 2

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(self.modulus,
                                  (-self.index) % (self.modulus - 1),
                                  self.dlog)

    def unit_angle(self, n: int) -> Fraction | None:
        """Exact angle a with chi(n) = e^(2 pi i a), or None when q | n."""
        n %= self.modulus
        if n == 0:
            return None
        order = self.modulus - 1
        return Fraction(self.index * self.dlog[n] % order, order)

    def value(self, n: int, ctx: PrecisionContext | None = None):
        ctx = ctx or default_context()
        a = self.unit_angle(n)
        with ctx.workprec():
            if a is None:
                return mp.mpc(0)
            return mp.expjpi(2 * mp.mpf(a.numerator) / a.denominator)

    def values(self, ctx: PrecisionContext | None = None) -> list:
        """Value table indexed by residue 0..q-1."""
        return [self.value(n, ctx) for n in range(self.modulus)]


def characters(q: int) -> list[DirichletCharacter]:
    """All q-1 Dirichlet characters mod prime q >= 3, principal first."""
    if not is_prime(q):
        raise NotPrimeError(f"{q} is not prime")
    if q < 3:
        raise ValueError("need q >= 3")
    g = primitive_root(q)
    dlog = [0] * q
    acc = 1
    for k in range(q - 1):
        dlog[acc] = k
        acc = acc * g % q
    dlog_t = tuple(dlog)
    return [DirichletCharacter(q, j, dlog_t) for j in range(q - 1)]


def gauss_sum(chi: DirichletCharacter, ctx: PrecisionContext | None = None):
    """tau(chi) = sum_{n mod q} chi(n) e(n/q); |tau| = sqrt(q)."""
    if chi.is_principal:
        raise PrincipalError("gauss_sum is defined here for non-principal chi")
    ctx = ctx or default_context()
    q = chi.modulus
    with ctx.workprec():
        total = mp.mpc(0)
        for n in range(1, q):
            total += chi.value(n, ctx) * mp.expjpi(2 * mp.mpf(n) / q)
        return total


def root_number(chi: DirichletCharacter, ctx: PrecisionContext | None = None):
    """epsilon_chi = tau(chi) / (i^delta sqrt(q)), unimodular."""
    if chi.is_principal:
        raise PrincipalError("root_number undefined for the principal character")
    ctx = ctx or default_context()
    with ctx.workprec():
        tau = gauss_sum(chi, ctx)
        denom = mp.sqrt(chi.modulus) * (mp.mpc(0, 1) if chi.delta else mp.mpc(1))
        return tau / denom


@dataclass(frozen=True)
class TrigExpansion:
    """cos/sin(2 pi n / q) as a combination of Dirichlet characters.

    cos: 1 - q/(q-1) * chi_0(n) + sqrt(q)/(q-1) * sum over even chi != chi_0
         of conj(eps_chi) chi(n)
    sin:     sqrt(q)/(q-1) * sum over odd chi of conj(eps_chi) chi(n)

    constant_term and principal_coeff are exact rationals; char_coeffs holds
    the sqrt(q)/(q-1) * conj(eps_chi) values at the build precision.
    """

    kind: str
    modulus: int
    constant_term: Fraction
    principal_coeff: Fraction
    char_coeffs: tuple  # ((DirichletCharacter, mpc), ...)

    def evaluate(self, n: int, ctx: PrecisionContext | None = None):
        ctx = ctx or default_context()
        with ctx.workprec():
            q = self.modulus
            total = mp.mpc(self.constant_term.numerator) / self.constant_term.denominator
            if n % q != 0:
                total += (mp.mpf(self.principal_coeff.numerator)
                          / self.principal_coeff.denominator)
            for chi, coeff in self.char_coeffs:
                total += coeff * chi.value(n, ctx)
            return total


def trig_coeffs(q: int, kind: str,
                ctx: PrecisionContext | None = None) -> TrigExpansion:
    """Character expansion of cos or sin(2 pi n / q) for prime q >= 3."""
    if kind not in ("cos", "sin"):
        raise ValueError("kind must be 'cos' or 'sin'")
    ctx = ctx or default_context()
    chars = characters(q)
    with ctx.workprec():
        scale = mp.sqrt(q) / (q - 1)
        wanted_parity = 1 if kind == "cos" else -1
        coeffs = []
        for chi in chars:
            if chi.is_principal or chi.parity != wanted_parity:
                continue
            coeffs.append((chi, scale * mp.conj(root_number(chi, ctx))))
    if kind == "cos":
        return TrigExpansion("cos", q, Fraction(1), Fraction(-q, q - 1),
                             tuple(coeffs))
    return TrigExpansion("sin", q, Fraction(0), Fraction(0), tuple(coeffs))
