"""Archimedean layer for completed twisted series.

Gamma factors and Whittaker profiles, the form evaluator and its
modularity residual, the hypergeometric twist factor G with its
functional equation and large-argument expansion, the K-Bessel/trig
Mellin pairs, the polynomial ratio factor P, the exact binomial
reduction identities, and the correction-term (A, Phi) machinery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .errors import (ConvergenceError, DegenerateError, PoleSampleError,
                     TailError)
from .forms import MaassForm, dual_form, hecke_table
from .precision import (ComplexParam, PrecisionContext, default_context,
                        to_mpc, to_real)
from .specfun import bessel_k, gamma_r, gen_binom, hyp2f1, trigamma

__all__ = [
    "GammaFactorSpec", "PFactorSpec", "gamma_factor", "v_profile",
    "eval_form", "modularity_residual", "g_hyp", "g_hyp_params",
    "h_params", "feofg_residual", "feofg_residual_params",
    "kcos_closed", "ksin_closed", "ksin_closed_as_printed",
    "k_trig_quadrature", "mellin_pair_check", "p_factor",
    "reduction_check", "g_series_coeffs", "phi_machinery",
    "digamma_xf_residual", "digamma_xf_residual_params", "a_eval",
]


# ---------------------------------------------------------------------------
# gamma factors
# ---------------------------------------------------------------------------

def _shifts(k: int, eps: int, sign: int) -> tuple[int, int]:
    """Integer shifts of the two completed-gamma factors; both lie in {0,1}."""
    return ((1 - sign * ((-1) ** k) * eps) // 2, (1 - sign * eps) // 2)


@dataclass(frozen=True)
class GammaFactorSpec:
    """Parameters of one signed archimedean factor."""
    k: int
    eps: int
    nu: ComplexParam
    sign: int

    def __post_init__(self):
        if self.k not in (0, 1):
            raise ValueError(f"weight must be 0 or 1, got {self.k}")
        if self.eps not in (-1, 1):
            raise ValueError(f"eps must be +-1, got {self.eps}")
        if self.sign not in (-1, 1):
            raise ValueError(f"sign must be +-1, got {self.sign}")
        object.__setattr__(self, "nu", ComplexParam.coerce(self.nu))

    @classmethod
    def from_form(cls, f: MaassForm, sign: int) -> "GammaFactorSpec":
        return cls(k=f.weight, eps=f.eps, nu=f.nu, sign=sign)

    @property
    def shift_pair(self) -> tuple[int, int]:
        return _shifts(self.k, self.eps, self.sign)


def gamma_factor(spec: GammaFactorSpec, s, ctx: PrecisionContext | None = None):
    """gamma^sign(s): product of two completed gamma factors with the
    shifts of `spec` and spectral displacement +-nu."""
    ctx = ctx or default_context()
    with ctx.workprec():
        return _gamma_params(spec.k, spec.eps, spec.nu.mpc(ctx), spec.sign,
                             to_mpc(s, ctx), ctx)


def _gamma_params(k, eps, nu, sign, s, ctx):
    sp, sm = _shifts(k, eps, sign)
    return gamma_r(s + sp + nu, ctx) * gamma_r(s + sm - nu, ctx)


# ---------------------------------------------------------------------------
# Whittaker profiles
# ---------------------------------------------------------------------------

def _v_params(k, eps, nu, sign, y, ctx):
    if k == 0:
        if eps != sign:
            return mp.mpc(0)
        return 4 * mp.sqrt(y) * bessel_k(nu, 2 * mp.pi * y, ctx)
    mu = nu + mp.mpf(sign * eps) / 2
    return 4 * y * bessel_k(mu, 2 * mp.pi * y, ctx)


def v_profile(f: MaassForm, sign: int, y, ctx: PrecisionContext | None = None):
    """The signed Whittaker profile V^sign(y) of the Fourier expansion."""
    if sign not in (-1, 1):
        raise ValueError("sign must be +-1")
    ctx = ctx or default_context()
    with ctx.workprec():
        y = to_real(y, ctx)
        if y <= 0:
            raise ValueError("v_profile needs y > 0")
        return _v_params(f.weight, f.eps, f.nu.mpc(ctx), sign, y, ctx)


# ---------------------------------------------------------------------------
# form evaluation
# ---------------------------------------------------------------------------

def _truncation_point(f: MaassForm, y, tol) -> int:
    """Smallest M so the certified profile tail past M is below tol/2.

    Uses |K_mu(x)| <= sqrt(pi/2x) e^-x (valid for every order our domain
    admits), |coefficient(n)| <= 2 sqrt(n) n^theta, and sums the resulting
    n q^n envelope in closed form.
    """
    q = mp.exp(-2 * mp.pi * y)
    c = 8 * max(mp.mpf(1), mp.sqrt(y))
    budget = mp.mpf(tol) / 2
    for m in range(1, f.coeff_bound + 1):
        tail = c * mp.power(q, m + 1) * ((m + 1) - m * q) / (1 - q) ** 2
        if tail <= budget:
            return m
    raise TailError(
        f"coefficient table to {f.coeff_bound} cannot certify tail <= "
        f"{float(budget):.3e} at height y={float(y):.6g}")


def eval_form(f: MaassForm, z, ctx: PrecisionContext | None = None):
    """Fourier-expansion value of the form at z = x + iy, y > 0, truncated
    with a certified K-Bessel tail bound (TailError when the coefficient
    table is too short to reach the tolerance).  The tail is below ctx.tol
    relative to the form's natural scale e^(-pi |Im nu| / 2): K_nu damps
    every term by about that factor, so |f(z)| itself is that small."""
    ctx = ctx or default_context()
    with ctx.workprec():
        z = to_mpc(z, ctx)
        x, y = mp.re(z), mp.im(z)
        if y <= 0:
            raise ValueError("eval_form needs Im z > 0")
        nu = f.nu.mpc(ctx)
        n_max = _truncation_point(
            f, y, ctx.tol * mp.exp(-mp.pi * abs(nu.imag) / 2))
        lam_table = hecke_table(f, n_max)
        total = mp.mpc(0)
        two_pi_x = 2 * mp.pi * x
        for n in range(1, n_max + 1):
            lam = lam_table[n].mpc(ctx)
            if lam == 0:
                continue
            vp = _v_params(f.weight, f.eps, nu, 1, n * y, ctx)
            vm = _v_params(f.weight, f.eps, nu, -1, n * y, ctx)
            term = mp.mpc(0)
            if vp:
                term += vp * mp.cos(two_pi_x * n)
            if vm:
                term += mp.mpc(0, 1) * vm * mp.sin(two_pi_x * n)
            total += lam / mp.sqrt(n) * term
        return total


def modularity_residual(f: MaassForm, z, ctx: PrecisionContext | None = None):
    """|f(z) - eta (i|z|/z)^k fdual(-1/(Nz))| with fdual the conjugated form."""
    ctx = ctx or default_context()
    with ctx.workprec():
        z = to_mpc(z, ctx)
        w = -1 / (f.level * z)
        left = eval_form(f, z, ctx)
        right = eval_form(dual_form(f), w, ctx)
        phase = (mp.mpc(0, 1) * abs(z) / z) ** f.weight
        return abs(left - f.eta.mpc(ctx) * phase * right)


# ---------------------------------------------------------------------------
# K-Bessel / trig Mellin pairs
# ---------------------------------------------------------------------------

def kcos_closed(lam, mu, a, b, ctx: PrecisionContext | None = None):
    """Closed form of int_0^inf x^(lam+1) K_mu(a x) cos(b x) dx/x."""
    ctx = ctx or default_context()
    with ctx.workprec():
        lam, mu = to_mpc(lam, ctx), to_mpc(mu, ctx)
        a, b = to_real(a, ctx), to_real(b, ctx)
        aa = (1 + lam + mu) / 2
        bb = (1 + lam - mu) / 2
        return (mp.power(2, lam - 1) * mp.power(a, -(lam + 1))
                * mp.gamma(aa) * mp.gamma(bb)
                * hyp2f1(aa, bb, mp.mpf(1) / 2, -(b / a) ** 2, ctx))


def ksin_closed(lam, mu, a, b, ctx: PrecisionContext | None = None):
    """Closed form of int_0^inf x^(lam+1) K_mu(a x) sin(b x) dx/x.

    Carries the a^-(lam+2) power that dimensional analysis requires; see
    ksin_closed_as_printed for the commonly reproduced variant without it,
    which is correct only at a = 1.
    """
    ctx = ctx or default_context()
    with ctx.workprec():
        lam, mu = to_mpc(lam, ctx), to_mpc(mu, ctx)
        a, b = to_real(a, ctx), to_real(b, ctx)
        aa = (2 + lam + mu) / 2
        bb = (2 + lam - mu) / 2
        return (mp.power(2, lam) * b * mp.power(a, -(lam + 2))
                * mp.gamma(aa) * mp.gamma(bb)
                * hyp2f1(aa, bb, mp.mpf(3) / 2, -(b / a) ** 2, ctx))


def ksin_closed_as_printed(lam, mu, a, b, ctx: PrecisionContext | None = None):
    """The sine pair as usually tabulated, missing the a-power prefactor."""
    ctx = ctx or default_context()
    with ctx.workprec():
        a = to_real(a, ctx)
        return ksin_closed(lam, mu, a, b, ctx) * mp.power(a, to_mpc(lam, ctx) + 2)


def k_trig_quadrature(lam, mu, a, b, kind: str,
                      ctx: PrecisionContext | None = None,
                      route: str = "kernel"):
    """Quadrature value of int_0^inf x^(lam+1) K_mu(a x) trig(b x) dx/x.

    route="kernel" swaps the integration order through the cosh integral
    representation of K (no Bessel evaluations; needs Re(lam+1) > |Re mu|).
    route="direct" integrates in x against bessel_k (valid on the full
    convergence range, slower).
    """
    if kind not in ("cos", "sin"):
        raise ValueError("kind must be 'cos' or 'sin'")
    ctx = ctx or default_context()
    with ctx.workprec():
        lam, mu = to_mpc(lam, ctx), to_mpc(mu, ctx)
        a, b = to_real(a, ctx), to_real(b, ctx)
        if a <= 0:
            raise ValueError("need a > 0")
        if kind == "sin" and b == 0:
            return mp.mpc(0)
        if route == "kernel":
            if not mp.re(lam + 1) > abs(mp.re(mu)):
                raise ConvergenceError(
                    "kernel route needs Re(lam+1) > |Re mu|; "
                    f"got lam={lam}, mu={mu}")
            g = mp.gamma(lam + 1)
            ib = mp.mpc(0, 1) * b

            def integrand(t):
                base = a * mp.cosh(t)
                pm = mp.power(base - ib, -(lam + 1))
                pp = mp.power(base + ib, -(lam + 1))
                core = (pm + pp) / 2 if kind == "cos" else (pm - pp) / (2 * mp.mpc(0, 1))
                return mp.cosh(mu * t) * g * core

            return mp.quad(integrand, [0, mp.inf])
        if route != "direct":
            raise ValueError("route must be 'kernel' or 'direct'")
        low = 2 if kind == "sin" else 1
        if not (mp.re(low + lam + mu) > 0 and mp.re(low + lam - mu) > 0):
            raise ConvergenceError(
                f"{kind} pair diverges: need Re({low}+lam+-mu) > 0")
        trig = mp.cos if kind == "cos" else mp.sin

        def integrand_x(x):
            return mp.power(x, lam) * bessel_k(mu, a * x, ctx) * trig(b * x)

        cut = max(mp.mpf(1), 4 / a)
        return mp.quad(integrand_x, [0, cut, mp.inf])


def mellin_pair_check(lambda_p, mu, a, b, kind: str,
                      ctx: PrecisionContext | None = None) -> float:
    """|quadrature - closed form| for the K-Bessel/trig Mellin pair."""
    ctx = ctx or default_context()
    with ctx.workprec():
        lam, mu = to_mpc(lambda_p, ctx), to_mpc(mu, ctx)
        a, b = to_real(a, ctx), to_real(b, ctx)
        low = 2 if kind == "sin" else 1
        if not (mp.re(low + lam + mu) > 0 and mp.re(low + lam - mu) > 0):
            raise ConvergenceError(
                f"{kind} pair outside its convergence range")
        if kind == "sin" and b == 0:
            return 0.0
        route = "kernel" if mp.re(lam + 1) > abs(mp.re(mu)) else "direct"
        quad = k_trig_quadrature(lam, mu, a, b, kind, ctx, route=route)
        closed = (kcos_closed if kind == "cos" else ksin_closed)(lam, mu, a, b, ctx)
        return float(abs(quad - closed))


# ---------------------------------------------------------------------------
# hypergeometric twist factor
# ---------------------------------------------------------------------------

def g_hyp_params(k, eps, nu, s, omega, mode: str = "closed",
                 ctx: PrecisionContext | None = None):
    """The twist factor G(s, omega) for raw parameters (k, eps, nu)."""
    ctx = ctx or default_context()
    with ctx.workprec():
        s = to_mpc(s, ctx)
        nu = to_mpc(nu, ctx)
        omega = to_real(omega, ctx)
        if mode == "closed":
            return _g_closed(k, eps, nu, s, omega, ctx)
        if mode == "quadrature":
            if not mp.re(s) > mp.mpf(1) / 2 + abs(mp.re(nu)):
                raise ConvergenceError(
                    "quadrature mode needs Re(s) > 1/2 + |Re nu|")
            return _g_quadrature(k, eps, nu, s, omega, ctx)
        raise ValueError("mode must be 'closed' or 'quadrature'")


def _g_closed(k, eps, nu, s, omega, ctx):
    w = -omega ** 2
    if k == 0:
        if eps == 1:
            pref = mp.mpc(1)
        elif omega == 0:
            return mp.mpc(0)
        else:
            pref = 2 * mp.pi * mp.mpc(0, 1) * omega
        half = mp.mpf(1 - eps) / 2
        gam = _gamma_params(0, eps, nu, 1, s, ctx)
        return pref * gam * hyp2f1((s + half + nu) / 2, (s + half - nu) / 2,
                                   1 - mp.mpf(eps) / 2, w, ctx)
    first = (_gamma_params(1, eps, nu, 1, s, ctx)
             * hyp2f1((s + mp.mpf(1 + eps) / 2 + nu) / 2,
                      (s + mp.mpf(1 - eps) / 2 - nu) / 2,
                      mp.mpf(1) / 2, w, ctx))
    if omega == 0:
        return first
    second = (2 * mp.pi * mp.mpc(0, 1) * omega
              * _gamma_params(1, eps, nu, -1, s + 1, ctx)
              * hyp2f1((s + mp.mpf(3 - eps) / 2 + nu) / 2,
                       (s + mp.mpf(3 + eps) / 2 - nu) / 2,
                       mp.mpf(3) / 2, w, ctx))
    return first + second


def _g_quadrature(k, eps, nu, s, omega, ctx):
    tp = 2 * mp.pi
    if k == 0:
        if eps == 1:
            return 4 * k_trig_quadrature(s - 1, nu, tp, tp * omega, "cos", ctx)
        return (4 * mp.mpc(0, 1)
                * k_trig_quadrature(s - 1, nu, tp, tp * omega, "sin", ctx))
    half = mp.mpf(1) / 2
    return (4 * k_trig_quadrature(s - half, nu + mp.mpf(eps) / 2,
                                  tp, tp * omega, "cos", ctx)
            + 4 * mp.mpc(0, 1)
            * k_trig_quadrature(s - half, nu - mp.mpf(eps) / 2,
                                tp, tp * omega, "sin", ctx))


def g_hyp(f: MaassForm, s, omega, mode: str = "closed",
          ctx: PrecisionContext | None = None):
    """Twist factor G_f(s, omega) of the form f."""
    ctx = ctx or default_context()
    return g_hyp_params(f.weight, f.eps, f.nu.mpc(ctx), s, omega, mode, ctx)


def h_params(k, eps, nu, s, omega, ctx: PrecisionContext | None = None):
    """Normalized twist factor H = G / gamma^+ (closed form)."""
    ctx = ctx or default_context()
    with ctx.workprec():
        s = to_mpc(s, ctx)
        nu = to_mpc(nu, ctx)
        return (_g_closed(k, eps, nu, s, to_real(omega, ctx), ctx)
                / _gamma_params(k, eps, nu, 1, s, ctx))


def feofg_residual_params(k, eps, nu, s, omega,
                          ctx: PrecisionContext | None = None) -> float:
    """|H(s,omega) - eps^(1-k) (i|omega+i|/(omega+i))^k (1+omega^2)^(1/2-s)
    H_dual(1-s,-omega)| where the dual parameters carry -nu.

    On the admissible spectral domain -nu coincides with conj(nu) whenever
    the weight is 1; for weight 0 the factor is even in nu, so the map
    nu -> -nu is the unique convention valid across the whole parameter
    space (verified against the alternative, which fails at weight 1).
    """
    ctx = ctx or default_context()
    with ctx.workprec():
        s = to_mpc(s, ctx)
        nu = to_mpc(nu, ctx)
        omega = to_real(omega, ctx)
        lhs = h_params(k, eps, nu, s, omega, ctx)
        phase = (mp.mpc(0, 1) * abs(omega + mp.mpc(0, 1))
                 / (omega + mp.mpc(0, 1))) ** k
        pref = (mp.mpf(eps) ** (1 - k) * phase
                * mp.power(1 + omega ** 2, mp.mpf(1) / 2 - s))
        rhs = pref * h_params(k, eps, -nu, 1 - s, -omega, ctx)
        return float(abs(lhs - rhs))


def feofg_residual(f: MaassForm, s, omega,
                   ctx: PrecisionContext | None = None) -> float:
    ctx = ctx or default_context()
    return feofg_residual_params(f.weight, f.eps, f.nu.mpc(ctx), s, omega, ctx)


# ---------------------------------------------------------------------------
# large-argument expansion of the twist factor
# ---------------------------------------------------------------------------

def _connection_degenerate(diff, ctx) -> bool:
    """True when diff sits at a non-positive-integer pole of Gamma."""
    n = mp.nint(mp.re(diff))
    return (abs(diff - n) < 10 * mp.mpf(ctx.tol)) and n <= 0


def g_series_coeffs(k, eps, nu, s, alpha, count: int,
                    ctx: PrecisionContext | None = None):
    """Coefficients (a_j, b_j), j < count, of the small-y expansion

        H(s, alpha/y) y^(1/2-s) = sum_j y^(j+1/2) (a_j y^nu + b_j y^-nu),

    obtained by applying the 2F1 large-argument connection formula to each
    hypergeometric term of G and dividing by gamma^+(s).  DegenerateError
    when the two connection branches merge (2 nu too close to an integer
    displacement, e.g. nu = 0 at weight 0)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    ctx = ctx or default_context()
    with ctx.workprec():
        s = to_mpc(s, ctx)
        nu = to_mpc(nu, ctx)
        alpha = to_real(alpha, ctx)
        if alpha == 0:
            raise ValueError("alpha must be nonzero")
        gam_plus = _gamma_params(k, eps, nu, 1, s, ctx)
        if k == 0:
            half = mp.mpf(1 - eps) / 2
            p = (1 - eps) // 2
            terms = [((2 * mp.pi * mp.mpc(0, 1)) ** p * gam_plus, p,
                      (s + half + nu) / 2, (s + half - nu) / 2,
                      1 - mp.mpf(eps) / 2)]
        else:
            terms = [
                (_gamma_params(1, eps, nu, 1, s, ctx), 0,
                 (s + mp.mpf(1 + eps) / 2 + nu) / 2,
                 (s + mp.mpf(1 - eps) / 2 - nu) / 2, mp.mpf(1) / 2),
                (2 * mp.pi * mp.mpc(0, 1)
                 * _gamma_params(1, eps, nu, -1, s + 1, ctx), 1,
                 (s + mp.mpf(3 - eps) / 2 + nu) / 2,
                 (s + mp.mpf(3 + eps) / 2 - nu) / 2, mp.mpf(3) / 2),
            ]
        coeff_a = [mp.mpc(0)] * count
        coeff_b = [mp.mpc(0)] * count
        alpha_sq = alpha ** 2
        for q_no_omega, p, big_a, big_b, c in terms:
            for first, second, bucket, disp in ((big_a, big_b, coeff_a, nu),
                                                (big_b, big_a, coeff_b, -nu)):
                diff = second - first
                if _connection_degenerate(diff, ctx) or \
                        _connection_degenerate(-diff, ctx):
                    raise DegenerateError(
                        f"connection branches merge: A-B = {-diff}")
                j0c = 2 * first - s - disp - p
                j0 = int(mp.nint(mp.re(j0c)))
                if abs(j0c - j0) > mp.mpf(2) ** (-ctx.work_bits // 2) or j0 < 0:
                    raise DegenerateError(
                        f"non-integral expansion offset {j0c}")
                base = (q_no_omega * mp.power(alpha, p)
                        * mp.gamma(c) * mp.gamma(diff)
                        / (mp.gamma(second) * mp.gamma(c - first))
                        * mp.power(alpha_sq, -first) / gam_plus)
                m = 0
                coef = base
                while j0 + 2 * m < count:
                    bucket[j0 + 2 * m] += coef
                    coef *= (-(first + m) * (first - c + 1 + m)
                             / ((first - second + 1 + m) * (m + 1) * alpha_sq))
                    m += 1
        return coeff_a, coeff_b


# ---------------------------------------------------------------------------
# completed-twist polynomial factor
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PFactorSpec:
    """Point and indices of the polynomial ratio factor P(s; a, m)."""
    s: ComplexParam
    a: int
    m: int

    def __post_init__(self):
        if self.a not in (0, 1):
            raise ValueError("a must be 0 or 1")
        if self.m < 0:
            raise ValueError("m must be >= 0")
        object.__setattr__(self, "s", ComplexParam.coerce(self.s))


def p_factor(pspec: PFactorSpec, f: MaassForm,
             ctx: PrecisionContext | None = None):
    """P(s; a, m): the gamma ratio collapsed to an entire polynomial via
    the downward recurrence, times the weight/parity case factor."""
    ctx = ctx or default_context()
    with ctx.workprec():
        return _p_poly(f, pspec.s.mpc(ctx), pspec.a, pspec.m, f.nu.mpc(ctx))


def _p_poly(f: MaassForm, s, a: int, m: int, nu):
    """P(s; a, m) at mpc s and nu: the gamma ratio gamma^sgn(1-s) /
    gamma^sgn(1-s-2*floor(m/2)), sgn = (-1)^a, reduced to a polynomial,
    with the weight/parity factors."""
    sign = -1 if a % 2 else 1
    if f.weight == 0 and sign == -f.eps:
        return mp.mpc(0)
    sp, sm = _shifts(f.weight, f.eps, sign)
    half_m = m // 2
    xp = 1 - s + sp + nu
    xm = 1 - s + sm - nu
    value = mp.mpc(1)
    for i in range(1, half_m + 1):
        value *= (xp - 2 * i) * (xm - 2 * i) / (2 * mp.pi) ** 2
    if f.weight == 1 and m % 2 == 1:
        value *= (s + 2 * half_m - sign * f.eps * nu) / (2 * mp.pi)
    return value


# ---------------------------------------------------------------------------
# exact binomial reduction identities
# ---------------------------------------------------------------------------

def _fbinom(x: Fraction, l: int) -> Fraction:
    return gen_binom(x, l, exact=True)


def _chu_vandermonde_holds(k: int, t: int, s: Fraction) -> bool:
    for j in range(t + 1):
        big_l = (t - j) // 2
        lhs = sum(_fbinom(j + big_l + Fraction(k, 2) - 1, big_l - l)
                  * _fbinom(Fraction(1, 2) - s - t - j, l)
                  for l in range(big_l + 1))
        rhs = _fbinom(big_l + Fraction(k - 1, 2) - s - t, big_l)
        if lhs != rhs:
            return False
    return True


def _weight0_collapse_holds(t: int, s: Fraction, nu: Fraction) -> bool:
    n, b = t // 2, t % 2
    start = s + t + b
    lhs = Fraction(0)
    for r in range(n + 1):
        prod = Fraction(1)
        for i in range(r):
            prod *= (start + 2 * i + nu) * (start + 2 * i - nu)
        lhs += (prod / math.factorial(2 * r + b)
                * _fbinom(n - r - Fraction(1, 2) - s - t, n - r))
    rhs = Fraction(1)
    for i in range(1, n + 1):
        rhs *= (1 - s - 2 * i + nu) * (1 - s - 2 * i - nu)
    return lhs == rhs / math.factorial(t)


def _weight1_collapse_holds(t: int, s: Fraction, nu: Fraction, p: int) -> bool:
    """p = (-1)^a eps; both values of p are covered by a in {0, 1}."""
    n = t // 2
    xp0 = s + t + Fraction(1 - p, 2) + nu
    xm0 = s + t + Fraction(1 + p, 2) - nu
    lhs = Fraction(0)
    for j in range(t + 1):
        odd = j % 2
        dp = (j + p * odd) // 2
        dm = (j - p * odd) // 2
        prod = Fraction(1)
        for i in range(dp):
            prod *= xp0 + 2 * i
        for i in range(dm):
            prod *= xm0 + 2 * i
        lhs += (Fraction((-1) ** j, math.factorial(j)) * prod
                * _fbinom(Fraction((t - j) // 2) - s - t, (t - j) // 2))
    sig = p if t % 2 == 0 else -p
    yp = 1 - s + Fraction(1 + sig, 2) + nu
    ym = 1 - s + Fraction(1 - sig, 2) - nu
    rhs = Fraction((-1) ** t, math.factorial(t))
    for i in range(1, n + 1):
        rhs *= (yp - 2 * i) * (ym - 2 * i)
    if t % 2 == 1:
        rhs *= s + 2 * n - sig * nu
    return lhs == rhs


def reduction_check(k: int, t: int, s: Fraction, nu: Fraction, a: int) -> bool:
    """Exact verification of the three binomial collapse identities behind
    the dual-side expansion, at a rational sample point (s, nu).

    All gamma ratios are reduced through the two-step recurrence so both
    sides become polynomials in (s, nu) with every power of 2 pi cancelled;
    equality is then literal Fraction equality.  At weight 0 the surviving
    identity is independent of a (a only selects the vanishing branch); at
    weight 1 the identity depends on a and eps only through (-1)^a eps, so
    scanning a in {0, 1} covers both parities.
    """
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    if a not in (0, 1):
        raise ValueError("a must be 0 or 1")
    s, nu = Fraction(s), Fraction(nu)
    try:
        if not _chu_vandermonde_holds(k, t, s):
            return False
        if k == 0:
            return _weight0_collapse_holds(t, s, nu)
        return _weight1_collapse_holds(t, s, nu, (-1) ** a)
    except ZeroDivisionError as exc:
        raise PoleSampleError(
            f"sample (s={s}, nu={nu}) hits a pole; resample") from exc


# ---------------------------------------------------------------------------
# correction-term machinery
# ---------------------------------------------------------------------------

_PHI_TAYLOR = (Fraction(1), Fraction(-1, 6), Fraction(7, 360),
               Fraction(-31, 15120), Fraction(127, 604800),
               Fraction(-73, 3421440))


def _phi_log(nu, u, ctx):
    """cosh(nu u) u / sinh(u/2): the correction weight in log coordinates."""
    if abs(u) < mp.mpf(2) ** (-(ctx.work_bits // 4)):
        v = u / 2
        v2 = v * v
        acc = mp.mpf(0)
        power = mp.mpf(1)
        for c in _PHI_TAYLOR:
            acc += mp.mpf(c.numerator) / c.denominator * power
            power *= v2
        return 2 * mp.cosh(nu * u) * acc
    return mp.cosh(nu * u) * u / mp.sinh(u / 2)


def phi_machinery(f: MaassForm, s, ctx: PrecisionContext | None = None) -> float:
    """|trigamma sum - quadrature| for the correction measure identity

        psi'(s+nu) + psi'(s-nu) = int_1^inf phi(x) x^(1/2-s) dx/x.
    """
    ctx = ctx or default_context()
    return _phi_residual(f.nu.mpc(ctx), s, ctx)


def _phi_residual(nu, s, ctx) -> float:
    with ctx.workprec():
        s = to_mpc(s, ctx)
        nu = to_mpc(nu, ctx)
        if not mp.re(s) > mp.mpf(1) / 2 + abs(mp.re(nu)):
            raise ConvergenceError("need Re(s) > 1/2 + |Re nu|")
        target = trigamma(s + nu, ctx) + trigamma(s - nu, ctx)
        quad = mp.quad(
            lambda u: _phi_log(nu, u, ctx) * mp.exp((mp.mpf(1) / 2 - s) * u),
            [0, mp.inf])
        return float(abs(quad - target))


def _gamma_pair_dd(k, eps, nu, s, ctx=None):
    """(d/ds)^2 log of the plus gamma pair at s with displacement nu."""
    sp, sm = _shifts(k, eps, 1)
    return (trigamma((s + sp + nu) / 2, ctx)
            + trigamma((s + sm - nu) / 2, ctx)) / 4


def digamma_xf_residual_params(k, eps, nu, s,
                               ctx: PrecisionContext | None = None) -> float:
    """Residual of the reflection identity tying the log-derivative of the
    signed gamma pair at s and its dual at 1-s to the trigamma sum minus
    the csc^2 reflection term."""
    ctx = ctx or default_context()
    with ctx.workprec():
        s = to_mpc(s, ctx)
        nu = to_mpc(nu, ctx)
        lhs = (_gamma_pair_dd(k, eps, nu, s, ctx)
               - _gamma_pair_dd(k, eps, -nu, 1 - s, ctx))
        w1 = s + mp.mpf(1 + ((-1) ** k) * eps) / 2 + nu
        w2 = s + mp.mpf(1 + eps) / 2 - nu
        xf = (mp.pi ** 2 / 4) * (1 / mp.sinpi(w1 / 2) ** 2
                                 + 1 / mp.sinpi(w2 / 2) ** 2)
        rhs = trigamma(s + nu, ctx) + trigamma(s - nu, ctx) - xf
        return float(abs(lhs - rhs))


def digamma_xf_residual(f: MaassForm, s,
                        ctx: PrecisionContext | None = None) -> float:
    ctx = ctx or default_context()
    return digamma_xf_residual_params(f.weight, f.eps, f.nu.mpc(ctx), s, ctx)


# ---------------------------------------------------------------------------
# the correction term A
# ---------------------------------------------------------------------------

def _a_series(f: MaassForm, alpha: Fraction, y, ctx,
              n_limit: int | None = None):
    """Series form of the correction term: value, tail estimate, terms used."""
    with ctx.workprec():
        y = to_real(y, ctx)
        nu = f.nu.mpc(ctx)
        limit = min(f.coeff_bound, 4000) if n_limit is None else n_limit
        lam_table = hecke_table(f, limit)
        alpha_f = mp.mpf(alpha.numerator) / alpha.denominator
        total = mp.mpc(0)
        small = 0
        floor = mp.mpf(ctx.tol) / 8
        last = mp.mpf(0)
        n_used = 0
        for n in range(1, limit + 1):
            lam = lam_table[n].mpc(ctx)
            phase = 2 * mp.pi * alpha_f * n

            def integrand(x, n=n, phase=phase):
                vp = _v_params(f.weight, f.eps, nu, 1, n * x * y, ctx)
                vm = _v_params(f.weight, f.eps, nu, -1, n * x * y, ctx)
                acc = mp.mpc(0)
                if vp:
                    acc += vp * mp.cos(phase * x)
                if vm:
                    acc += mp.mpc(0, 1) * vm * mp.sin(phase * x)
                return _phi_log(nu, mp.log(x), ctx) * acc

            term = lam / mp.sqrt(n) * mp.quad(integrand, [1, 2, mp.inf])
            total += term
            n_used = n
            last = abs(term)
            small = small + 1 if last <= floor else 0
            if small >= 3 and n >= 4:
                break
        else:
            raise ConvergenceError(
                f"series did not stabilize within {limit} terms",
                achieved=float(last))
        ratio = mp.exp(-2 * mp.pi * y)
        bound = float(last * ratio / (1 - ratio) + 3 * floor)
        return total, bound, n_used


def _a_contour(f: MaassForm, alpha: Fraction, y, ctx):
    from . import zeros as zeros_mod
    with ctx.workprec():
        y = to_real(y, ctx)
        nu = f.nu.mpc(ctx)
        omega = (mp.mpf(alpha.numerator) / alpha.denominator) / y
        half = mp.mpf(1) / 2

        def integrand(t):
            s = half + mp.mpc(0, 1) * t
            phi = trigamma(s + nu, ctx) + trigamma(s - nu, ctx)
            h = h_params(f.weight, f.eps, nu, s, omega, ctx)
            lam = zeros_mod.lambda_complete(f, s, ctx).mpc(ctx)
            return phi * h * lam * mp.power(y, half - s)

        height = 10
        value = mp.quad(integrand, [-height, height]) / (2 * mp.pi)
        while height < 40:
            extra = (mp.quad(integrand, [-height - 5, -height])
                     + mp.quad(integrand, [height, height + 5])) / (2 * mp.pi)
            value += extra
            height += 5
            if abs(extra) < mp.mpf(ctx.tol) / 8:
                return value
        raise ConvergenceError("contour tail did not shrink below tolerance")


def a_eval(f: MaassForm, z: ComplexParam, rep: str = "series",
           ctx: PrecisionContext | None = None):
    """The correction term at z = alpha + iy (alpha an exact rational),
    by its absolutely convergent series or by the critical-line contour."""
    ctx = ctx or default_context()
    z = ComplexParam.coerce(z)
    alpha, y = z.re, z.im
    if alpha == 0:
        raise ValueError("alpha must be a nonzero rational")
    if y <= 0:
        raise ValueError("need Im z > 0")
    if rep == "series":
        value, _, _ = _a_series(f, alpha, y, ctx)
        return value
    if rep == "contour":
        return _a_contour(f, alpha, y, ctx)
    raise ValueError("rep must be 'series' or 'contour'")
