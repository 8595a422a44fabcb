"""Archimedean layer: gamma factors, Whittaker profiles, the hypergeometric
twist factor and its functional equation, Mellin-pair adjudication, exact
binomial reductions, and the correction-term machinery."""

import random
from fractions import Fraction

import mpmath as mpm
import pytest
from hypothesis import given
from hypothesis import strategies as st
from mpmath import mp

from ltwist.analytic import (GammaFactorSpec, PFactorSpec, _a_series,
                             _gamma_params, _phi_log, _phi_residual, _shifts,
                             _v_params, a_eval, digamma_xf_residual,
                             digamma_xf_residual_params, eval_form,
                             feofg_residual, feofg_residual_params,
                             g_hyp, g_hyp_params, g_series_coeffs,
                             gamma_factor, h_params, k_trig_quadrature,
                             kcos_closed, ksin_closed, ksin_closed_as_printed,
                             mellin_pair_check, modularity_residual, p_factor,
                             phi_machinery, reduction_check, v_profile)
from ltwist.cli import FORM_CHECK_THRESHOLD
from ltwist.errors import (ConvergenceError, DegenerateError, PoleError,
                           TailError)
from ltwist.forms import MaassForm, Nebentypus, hecke_coeff
from ltwist.precision import ComplexParam, PrecisionContext
from ltwist.specfun import quad_mellin, trigamma

PRIMES_600 = [p for p in range(2, 600) if all(p % d for d in range(2, p))]


def make_form(k=0, eps=1, nu=("0", "1.3"), eta=1, level=1, bound=599,
              signs=False):
    """Synthetic form with deterministic pseudo-random coefficients.

    Not modular -- only the archimedean machinery cares about (k, eps, nu),
    and the coefficient values just need to satisfy the size bound."""
    coeffs = tuple(
        (p, ComplexParam.from_decimals(
            ("-" if signs and i % 3 == 1 else "") + f"0.{(37 * p) % 100:02d}"))
        for i, p in enumerate(PRIMES_600) if p <= bound)
    return MaassForm(level=level, weight=k, eps=eps,
                     eta=ComplexParam.coerce(eta),
                     nu=ComplexParam.from_decimals(*nu), xi=Nebentypus(1),
                     prime_coeffs=coeffs, coeff_bound=bound)


def gamma_r_raw(x):
    return mp.power(mp.pi, -x / 2) * mp.gamma(x / 2)


# ---------------------------------------------------------------------------
# gamma factors
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,eps,sign,pair", [
    (0, 1, 1, (0, 0)),
    (0, -1, 1, (1, 1)),
    (1, 1, 1, (1, 0)),
    (1, 1, -1, (0, 1)),
    (0, 1, -1, (1, 1)),
    (0, -1, -1, (0, 0)),
    (1, -1, 1, (0, 1)),
    (1, -1, -1, (1, 0)),
])
def test_shift_table(k, eps, sign, pair):
    assert _shifts(k, eps, sign) == pair
    assert set(pair) <= {0, 1}
    spec = GammaFactorSpec(k=k, eps=eps, nu=ComplexParam.coerce(0), sign=sign)
    assert spec.shift_pair == pair


@pytest.mark.parametrize("k,eps,sp,sm", [
    (0, 1, 0, 0),
    (0, -1, 1, 1),
    (1, 1, 1, 0),
])
def test_gamma_factor_matches_raw_product(ctx, k, eps, sp, sm):
    spec = GammaFactorSpec(k=k, eps=eps,
                           nu=ComplexParam.from_decimals("0", "0.7"), sign=1)
    with ctx.workprec():
        s = mp.mpc(2, mp.mpf("0.3"))
        nu = mp.mpc(0, mp.mpf("0.7"))
        got = gamma_factor(spec, s, ctx)
        want = gamma_r_raw(s + sp + nu) * gamma_r_raw(s + sm - nu)
        assert abs(got - want) <= 1e-20


def test_gamma_factor_real_for_real_data(ctx):
    spec = GammaFactorSpec(k=1, eps=-1, nu=ComplexParam.from_decimals("0.3"),
                           sign=1)
    val = gamma_factor(spec, mp.mpf(2), ctx)
    assert abs(mp.im(val)) == 0


def test_gamma_factor_pole(ctx):
    spec = GammaFactorSpec(k=0, eps=1, nu=ComplexParam.coerce(0), sign=1)
    with pytest.raises(PoleError):
        gamma_factor(spec, mp.mpf(0), ctx)


def test_gamma_spec_validation():
    with pytest.raises(ValueError):
        GammaFactorSpec(k=2, eps=1, nu=ComplexParam.coerce(0), sign=1)
    with pytest.raises(ValueError):
        GammaFactorSpec(k=0, eps=0, nu=ComplexParam.coerce(0), sign=1)
    with pytest.raises(ValueError):
        GammaFactorSpec(k=0, eps=1, nu=ComplexParam.coerce(0), sign=2)


@given(nre=st.fractions(min_value=-1, max_value=1, max_denominator=16),
       nim=st.fractions(min_value=-3, max_value=3, max_denominator=16),
       sre=st.fractions(min_value=Fraction(1, 2), max_value=3,
                        max_denominator=16),
       sim=st.fractions(min_value=-3, max_value=3, max_denominator=16))
def test_gamma_factor_conjugation_symmetry(ctx, nre, nim, sre, sim):
    nu = ComplexParam(nre, nim)
    s = ComplexParam(sre, sim)
    spec = GammaFactorSpec(k=1, eps=1, nu=nu, sign=1)
    spec_bar = GammaFactorSpec(k=1, eps=1, nu=nu.conjugate(), sign=1)
    with ctx.workprec():
        lhs = gamma_factor(spec_bar, s.conjugate().mpc(ctx), ctx)
        rhs = mp.conj(gamma_factor(spec, s.mpc(ctx), ctx))
        assert abs(lhs - rhs) <= 1e-20


# ---------------------------------------------------------------------------
# Whittaker profiles
# ---------------------------------------------------------------------------

def test_v_profile_zero_branch(ctx):
    f = make_form(k=0, eps=1)
    assert v_profile(f, -1, mp.mpf(1), ctx) == 0
    g = make_form(k=0, eps=-1)
    assert v_profile(g, 1, mp.mpf(1), ctx) == 0


def test_v_profile_weight0_value(ctx):
    f = make_form(k=0, eps=1, nu=("0.3",))
    got = v_profile(f, 1, mp.mpf(1), ctx)
    want = 4 * mpm.besselk(mp.mpf("0.3"), 2 * mp.pi)
    assert abs(got - want) <= 1e-15


def test_v_profile_weight1_order_shift(ctx):
    f = make_form(k=1, eps=-1, nu=("0", "1.3"))
    y = mp.mpf("0.7")
    got = v_profile(f, 1, y, ctx)
    want = 4 * y * mpm.besselk(mp.mpc(0, "1.3") - mp.mpf(1) / 2, 2 * mp.pi * y)
    assert abs(got - want) <= 1e-15
    got_minus = v_profile(f, -1, y, ctx)
    want_minus = 4 * y * mpm.besselk(mp.mpc(0, "1.3") + mp.mpf(1) / 2,
                                     2 * mp.pi * y)
    assert abs(got_minus - want_minus) <= 1e-15


def test_v_profile_validation(ctx):
    f = make_form()
    with pytest.raises(ValueError):
        v_profile(f, 2, mp.mpf(1), ctx)
    with pytest.raises(ValueError):
        v_profile(f, 1, mp.mpf(0), ctx)


@pytest.mark.parametrize("k,eps,sign", [
    (0, 1, 1), (0, -1, -1), (1, 1, 1), (1, -1, -1),
])
def test_v_profile_mellin_is_gamma_factor(ctx_loose, k, eps, sign):
    # The Mellin transform of the profile reproduces the gamma factor on
    # every nonvanishing (k, eps) class.
    nu = mp.mpc(0, "0.8")
    s = mp.mpf("1.6")
    res = quad_mellin(lambda y: _v_params(k, eps, nu, sign, y, ctx_loose),
                      s, ctx_loose)
    target = _gamma_params(k, eps, nu, sign, s, ctx_loose)
    assert abs(res.value - target) <= 1e-9


# ---------------------------------------------------------------------------
# form evaluation
# ---------------------------------------------------------------------------

def test_eval_form_even_real_on_imaginary_axis(ctx):
    f = make_form(k=0, eps=1, nu=("0", "2.3"), signs=True)
    val = eval_form(f, mp.mpc(0, "0.9"), ctx)
    assert mp.im(val) == 0
    assert abs(val) > 0


def test_eval_form_odd_vanishes_on_imaginary_axis(ctx):
    f = make_form(k=0, eps=-1, nu=("0", "2.3"))
    assert eval_form(f, mp.mpc(0, "0.9"), ctx) == 0


@pytest.mark.parametrize("k,eps", [(0, 1), (1, 1)])
def test_eval_form_against_direct_bessel_sum(ctx, k, eps):
    # Independent oracle: same Fourier data, archimedean part via mpmath's
    # Bessel-K instead of the in-tree kernel.  Tail beyond n=14 is < 1e-30
    # at this height.
    f = make_form(k=k, eps=eps, nu=("0", "1.3"), signs=True)
    z = mp.mpc("0.2", "0.8")
    x, y = mp.re(z), mp.im(z)
    nu = mp.mpc(0, "1.3")
    total = mp.mpc(0)
    for n in range(1, 15):
        lam = hecke_coeff(f, n).mpc(ctx)
        if k == 0:
            vp = 4 * mp.sqrt(n * y) * mpm.besselk(nu, 2 * mp.pi * n * y)
            vm = mp.mpf(0)
        else:
            vp = 4 * n * y * mpm.besselk(nu + mp.mpf(eps) / 2,
                                         2 * mp.pi * n * y)
            vm = 4 * n * y * mpm.besselk(nu - mp.mpf(eps) / 2,
                                         2 * mp.pi * n * y)
        total += lam / mp.sqrt(n) * (vp * mp.cos(2 * mp.pi * n * x)
                                     + mp.mpc(0, 1) * vm
                                     * mp.sin(2 * mp.pi * n * x))
    got = eval_form(f, z, ctx)
    assert abs(got - total) <= 1e-12


def test_eval_form_decay_matches_bessel_asymptotic(ctx):
    # |f(iy)| is dominated by the n=1 term; the profile ratio between
    # heights 3 and 4 collapses to e^(2 pi) after the sqrt(y) factors cancel
    # against the asymptotic 1/sqrt(2 pi y) of Bessel-K.
    f = make_form(k=0, eps=1, nu=("0.3",), signs=True)
    ratio = abs(eval_form(f, mp.mpc(0, 3), ctx) / eval_form(f, mp.mpc(0, 4), ctx))
    assert abs(ratio / mp.exp(2 * mp.pi) - 1) < 0.02


def test_eval_form_higher_precision_self_oracle(ctx):
    f = make_form(k=1, eps=-1, nu=("0", "2.3"), signs=True)
    z = mp.mpc("0.3", "0.9")
    hi = PrecisionContext(work_bits=256, tol=1e-20)
    assert abs(eval_form(f, z, ctx) - eval_form(f, z, hi)) <= ctx.tol


def test_eval_form_truncation_bound_honest(ctx):
    f = make_form(k=0, eps=1, nu=("0", "9.53"), signs=True)
    z = mp.mpc("0.41", "0.35")
    loose = PrecisionContext(work_bits=128, tol=1e-6)
    tight = PrecisionContext(work_bits=128, tol=1e-13)
    assert abs(eval_form(f, z, loose) - eval_form(f, z, tight)) <= 1e-6


def test_eval_form_tail_error(ctx):
    f = make_form(bound=59)
    with pytest.raises(TailError):
        eval_form(f, mp.mpc("0.3", "0.001"), ctx)
    with pytest.raises(ValueError):
        eval_form(f, mp.mpc("0.3", "-1"), ctx)


@pytest.mark.parametrize("z", [(0.37213004114532805, 1.1559471664719247),
                               (-0.12212635499566049, 0.6471041925222767),
                               (0.37349400780328607, 0.6813722168757734),
                               (0.3951937190871912, 1.1249138621367931)],
                         ids=str)
def test_form_check_passes_where_the_form_is_small(form_even, ctx, z):
    """Points where the even fixture is small (|f| ~ 3e-11 to 2e-10): the
    truncation must certify its tail relative to the form's natural scale
    e^(-pi |Im nu| / 2), or the relative modularity residual that `form
    check` reads is the tail itself (1.0e-4 to 4.7e-4 with an absolute
    tol/2 budget)."""
    with ctx.workprec():
        z = mp.mpc(*z)
        scale = abs(eval_form(form_even, z, ctx))
        relative = modularity_residual(form_even, z, ctx) / scale
    assert relative <= FORM_CHECK_THRESHOLD


@pytest.mark.parametrize("k,nu_parts", [(0, ("0", "1.3")), (1, ("0.6",))])
def test_modularity_residual_fixed_point(ctx, k, nu_parts):
    # z = i/sqrt(N) is fixed by the involution; a form that literally equals
    # its conjugate (real coefficients; spectral parameter either real, or
    # imaginary at weight 0 where the profile is even in it) with eta = 1
    # cancels exactly there, independent of genuine modularity.
    f = make_form(k=k, eps=1, nu=nu_parts, signs=True)
    z = mp.mpc(0, 1) / mp.sqrt(f.level)
    assert modularity_residual(f, z, ctx) <= 1e-30


def test_modularity_residual_sign_flip(ctx):
    # With eta = -1 the fixed-point residual is exactly 2|f(i)|.
    f = make_form(k=0, eps=1, nu=("0", "1.3"), eta=-1, signs=True)
    with ctx.workprec():
        z = mp.mpc(0, 1)
        res = modularity_residual(f, z, ctx)
        assert abs(res - 2 * abs(eval_form(f, z, ctx))) <= 1e-25


# ---------------------------------------------------------------------------
# Bessel-trig Mellin pairs
# ---------------------------------------------------------------------------

def test_mellin_pair_cos_b_zero(ctx):
    # b = 0 reduces to the classical Mellin transform of Bessel-K.
    with ctx.workprec():
        lam, mu, a = mp.mpf("1.3"), mp.mpc("0.2", "0.9"), mp.mpf(2)
        closed = kcos_closed(lam, mu, a, mp.mpf(0), ctx)
        want = (mp.power(2, lam - 1) * mp.power(a, -(lam + 1))
                * mp.gamma((1 + lam + mu) / 2) * mp.gamma((1 + lam - mu) / 2))
        assert abs(closed - want) <= 1e-25
    assert mellin_pair_check(mp.mpf("1.3"), mp.mpc("0.2", "0.9"), mp.mpf(2),
                             mp.mpf(0), "cos", ctx) <= 1e-9


def test_mellin_pair_sin_b_zero(ctx):
    assert mellin_pair_check(mp.mpf("1.3"), mp.mpf("0.2"), mp.mpf(2),
                             mp.mpf(0), "sin", ctx) == 0.0


@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_mellin_pair_reference_point(ctx, kind):
    r = mellin_pair_check(mp.mpf("1.3"), mp.mpc("0.2", "0.9"), mp.mpf(2),
                          mp.mpf("1.5"), kind, ctx)
    assert r <= 1e-8


@pytest.mark.parametrize("kind", ["cos", "sin"])
def test_k_trig_quadrature_routes_agree(ctx_loose, kind):
    lam, mu = mp.mpf("1.3"), mp.mpf("0.2")
    a, b = mp.mpf("1.5"), mp.mpf("0.7")
    via_kernel = k_trig_quadrature(lam, mu, a, b, kind, ctx_loose,
                                   route="kernel")
    via_bessel = k_trig_quadrature(lam, mu, a, b, kind, ctx_loose,
                                   route="direct")
    assert abs(via_kernel - via_bessel) <= 1e-12


def test_sine_pair_printed_form_adjudicated(ctx):
    # The commonly tabulated sine pair omits the a-power; quadrature decides.
    with ctx.workprec():
        lam, mu, b = mp.mpf("1.3"), mp.mpc("0.2", "0.9"), mp.mpf("1.5")
        a = mp.mpf(2)
        quad = k_trig_quadrature(lam, mu, a, b, "sin", ctx)
        corrected = ksin_closed(lam, mu, a, b, ctx)
        printed = ksin_closed_as_printed(lam, mu, a, b, ctx)
        assert abs(quad - corrected) <= 1e-8
        assert abs(quad - printed) > abs(printed) / 2
        assert abs(printed / corrected - mp.power(a, lam + 2)) <= 1e-20
        # At a = 1 the missing factor is invisible -- the two forms coincide.
        assert ksin_closed(lam, mu, mp.mpf(1), b, ctx) == \
            ksin_closed_as_printed(lam, mu, mp.mpf(1), b, ctx)


def test_mellin_pair_outside_range(ctx):
    with pytest.raises(ConvergenceError):
        mellin_pair_check(mp.mpf("-1.5"), mp.mpf("0.2"), mp.mpf(2),
                          mp.mpf(1), "cos", ctx)
    with pytest.raises(ValueError):
        k_trig_quadrature(mp.mpf(1), mp.mpf(0), mp.mpf(2), mp.mpf(1),
                          "tan", ctx)


# ---------------------------------------------------------------------------
# hypergeometric twist factor
# ---------------------------------------------------------------------------

def test_g_hyp_omega_zero_collapses_to_gamma(ctx):
    with ctx.workprec():
        s = mp.mpc("0.8", "1.7")
        for k, eps, nu in ((0, 1, mp.mpc(0, "1.3")), (1, 1, mp.mpf("0.6")),
                           (1, -1, mp.mpc(0, "2.3"))):
            g0 = g_hyp_params(k, eps, nu, s, mp.mpf(0), "closed", ctx)
            gam = _gamma_params(k, eps, nu, 1, s, ctx)
            assert abs(g0 - gam) <= 1e-25
        # odd weight-0 class: the whole factor carries omega and vanishes
        assert g_hyp_params(0, -1, mp.mpc(0, "1.3"), s, mp.mpf(0),
                            "closed", ctx) == 0


@pytest.mark.parametrize("k,eps,nu_parts", [
    (0, 1, ("0", "1.3")),
    (0, -1, ("0", "1.3")),
    (1, 1, ("0.6",)),
    (1, -1, ("0", "2.3")),
])
def test_g_hyp_closed_vs_quadrature(ctx_loose, k, eps, nu_parts):
    nu = ComplexParam.from_decimals(*nu_parts).mpc(ctx_loose)
    closed = g_hyp_params(k, eps, nu, mp.mpf(2), mp.mpf("0.3"),
                          "closed", ctx_loose)
    quad = g_hyp_params(k, eps, nu, mp.mpf(2), mp.mpf("0.3"),
                        "quadrature", ctx_loose)
    assert abs(closed - quad) <= 1e-8


def test_g_hyp_quadrature_requires_convergence(ctx):
    with pytest.raises(ConvergenceError):
        g_hyp_params(0, 1, mp.mpf("0.6"), mp.mpf("0.3"), mp.mpf("0.2"),
                     "quadrature", ctx)
    with pytest.raises(ValueError):
        g_hyp_params(0, 1, mp.mpf("0.6"), mp.mpf(2), mp.mpf("0.2"),
                     "series", ctx)


def test_g_hyp_form_wrapper_and_h(ctx):
    f = make_form(k=1, eps=-1, nu=("0", "2.3"))
    with ctx.workprec():
        s, w = mp.mpc("0.7", "0.4"), mp.mpf("0.9")
        via_form = g_hyp(f, s, w, "closed", ctx)
        via_params = g_hyp_params(1, -1, mp.mpc(0, "2.3"), s, w, "closed", ctx)
        assert abs(via_form - via_params) <= 1e-25
        h = h_params(1, -1, mp.mpc(0, "2.3"), s, w, ctx)
        gam = _gamma_params(1, -1, mp.mpc(0, "2.3"), 1, s, ctx)
        assert abs(h * gam - via_params) <= 1e-22


# ---------------------------------------------------------------------------
# functional equation of the twist factor
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,eps", [(0, 1), (0, -1), (1, 1), (1, -1)])
def test_feofg_omega_zero(ctx, k, eps):
    assert feofg_residual_params(k, eps, mp.mpc(0, "1.3"),
                                 mp.mpc("0.8", "0.5"), mp.mpf(0),
                                 ctx) <= 1e-20


def test_feofg_reference_points(ctx):
    assert feofg_residual_params(0, 1, mp.mpf("0.05"), mp.mpc("0.7", 2),
                                 mp.mpf("0.4"), ctx) <= 1e-8
    assert feofg_residual_params(1, -1, mp.mpc(0, "1.2"), mp.mpf("0.3"),
                                 mp.mpf("-0.8"), ctx) <= 1e-8


S_GRID = ("0.3", "0.7+2.0j", "1.4-1.0j", "2.0+0.5j", "0.5+3.2j")
W_GRID = ("-2.0", "-0.8", "0.15", "0.4", "1.7")
NU_GRID = {"0.05": mp.mpf("0.05"), "7/64": mp.mpf(7) / 64,
           "1.3i": mp.mpc(0, "1.3"), "9.5i": mp.mpc(0, "9.5")}


@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("eps", [1, -1])
@pytest.mark.parametrize("nu_label", sorted(NU_GRID))
def test_feofg_parameter_grid(ctx_loose, k, eps, nu_label):
    nu = NU_GRID[nu_label]
    worst = 0.0
    for s_str in S_GRID:
        for w_str in W_GRID:
            r = feofg_residual_params(k, eps, nu, mp.mpc(complex(s_str)),
                                      mp.mpf(w_str), ctx_loose)
            worst = max(worst, r)
    assert worst <= 1e-8


def test_feofg_form_wrapper(ctx):
    f = make_form(k=1, eps=1, nu=("0", "2.3"))
    assert feofg_residual(f, mp.mpc("0.6", "1.1"), mp.mpf("0.5"), ctx) <= 1e-8


def test_g_conjugation_symmetry(ctx_loose):
    # Replacing the spectral parameter by its conjugate mirrors the factor
    # across the real axis (with omega reversed).
    rng = random.Random(20260814)
    for _ in range(20):
        k = rng.choice((0, 1))
        eps = rng.choice((1, -1))
        nu = mp.mpc(rng.uniform(-0.4, 0.4), rng.uniform(-3, 3))
        s = mp.mpc(rng.uniform(0.6, 2.5), rng.uniform(-3, 3))
        w = mp.mpf(rng.uniform(-2, 2))
        lhs = g_hyp_params(k, eps, mp.conj(nu), s, w, "closed", ctx_loose)
        rhs = mp.conj(g_hyp_params(k, eps, nu, mp.conj(s), -w,
                                   "closed", ctx_loose))
        assert abs(lhs - rhs) <= 1e-12


# ---------------------------------------------------------------------------
# small-height expansion coefficients
# ---------------------------------------------------------------------------

GSERIES_CLASSES = [
    (0, 1, ("0", "1.3")),
    (0, -1, ("0", "1.3")),
    (1, 1, ("0.6",)),
    (1, -1, ("0", "2.3")),
]


def _gseries_residual(k, eps, nu, s, alpha, count, y, ctx):
    ca, cb = g_series_coeffs(k, eps, nu, s, alpha, count, ctx)
    partial = sum(mp.power(y, j + mp.mpf(1) / 2)
                  * (ca[j] * mp.power(y, nu) + cb[j] * mp.power(y, -nu))
                  for j in range(count))
    target = h_params(k, eps, nu, s, alpha / y, ctx) * mp.power(y, mp.mpf(1) / 2 - s)
    return abs(target - partial)


@pytest.mark.parametrize("k,eps,nu_parts", GSERIES_CLASSES)
@pytest.mark.parametrize("alpha_num", [2, -2])
def test_g_series_partial_sums_converge(ctx, k, eps, nu_parts, alpha_num):
    # Truncating after j < 9 must leave a remainder of order y^(9+1/2),
    # so halving y divides the residual by at least 2^9 (up to oscillation
    # in the y^nu factors); check one decade plus the decay rate.
    nu = ComplexParam.from_decimals(*nu_parts).mpc(ctx)
    s = mp.mpc("0.4", "1.1")
    alpha = mp.mpf(alpha_num) / 3
    r_coarse = _gseries_residual(k, eps, nu, s, alpha, 9, mp.mpf("0.1"), ctx)
    r_fine = _gseries_residual(k, eps, nu, s, alpha, 9, mp.mpf("0.05"), ctx)
    assert r_fine <= 1e-9
    assert r_coarse / r_fine >= 50


@pytest.mark.parametrize("k,eps,nu_parts", GSERIES_CLASSES)
def test_g_series_growth_shape(ctx, k, eps, nu_parts):
    # Normalized by the proven envelope |2/alpha|^(j+1/2) sqrt(j+1), the
    # coefficients must stay bounded by their leading values.
    nu = ComplexParam.from_decimals(*nu_parts).mpc(ctx)
    alpha = mp.mpf(2) / 3
    ca, cb = g_series_coeffs(k, eps, nu, mp.mpc("0.4", "1.1"), alpha, 24, ctx)
    norms = [float((abs(ca[j]) + abs(cb[j]))
                   * mp.power(alpha / 2, j + mp.mpf(1) / 2) / mp.sqrt(j + 1))
             for j in range(24)]
    assert max(norms[5:]) <= max(norms[:5])


def test_g_series_degenerate_and_validation(ctx):
    with pytest.raises(DegenerateError):
        g_series_coeffs(0, 1, mp.mpf(0), mp.mpc("0.4", "1.1"),
                        mp.mpf(2) / 3, 6, ctx)
    with pytest.raises(ValueError):
        g_series_coeffs(0, 1, mp.mpc(0, "1.3"), mp.mpc("0.4", "1.1"),
                        mp.mpf(2) / 3, 0, ctx)
    with pytest.raises(ValueError):
        g_series_coeffs(0, 1, mp.mpc(0, "1.3"), mp.mpc("0.4", "1.1"),
                        mp.mpf(0), 6, ctx)


# ---------------------------------------------------------------------------
# polynomial twist factor
# ---------------------------------------------------------------------------

def test_p_factor_m_zero_is_indicator(ctx):
    s = ComplexParam.from_decimals("0.4", "1.1")
    for k in (0, 1):
        for eps in (1, -1):
            f = make_form(k=k, eps=eps, nu=("0", "1.3"), bound=7)
            for a in (0, 1):
                val = p_factor(PFactorSpec(s=s, a=a, m=0), f, ctx)
                sign = -1 if a else 1
                if k == 0 and sign == -eps:
                    assert val == 0
                else:
                    assert val == 1


def test_p_factor_zero_branch_all_m(ctx):
    f = make_form(k=0, eps=1, nu=("0", "1.3"), bound=7)
    s = ComplexParam.from_decimals("0.4", "1.1")
    for m in range(5):
        assert p_factor(PFactorSpec(s=s, a=1, m=m), f, ctx) == 0


def test_p_factor_m_one(ctx):
    s = ComplexParam.from_decimals("0.4", "1.1")
    f0 = make_form(k=0, eps=1, nu=("0", "1.3"), bound=7)
    assert p_factor(PFactorSpec(s=s, a=0, m=1), f0, ctx) == 1
    f1 = make_form(k=1, eps=-1, nu=("0.6",), bound=7)
    with ctx.workprec():
        got = p_factor(PFactorSpec(s=s, a=0, m=1), f1, ctx)
        want = (s.mpc(ctx) - (-1) * mp.mpf("0.6")) / (2 * mp.pi)
        assert abs(got - want) <= 1e-25


@pytest.mark.parametrize("k,eps,a,m,nu_parts", [
    (0, 1, 0, 2, ("0", "1.3")),
    (0, 1, 0, 5, ("0", "1.3")),
    (1, -1, 1, 3, ("0.6",)),
    (1, 1, 0, 4, ("0", "2.3")),
])
def test_p_factor_matches_gamma_ratio(ctx, k, eps, a, m, nu_parts):
    # Oracle: the raw gamma-quotient away from its poles.
    f = make_form(k=k, eps=eps, nu=nu_parts, bound=7)
    with ctx.workprec():
        s = mp.mpc("0.4", "1.1")
        nu = ComplexParam.from_decimals(*nu_parts).mpc(ctx)
        got = p_factor(PFactorSpec(s=ComplexParam.from_decimals("0.4", "1.1"),
                                   a=a, m=m), f, ctx)
        sign = -1 if a else 1
        sp, sm = _shifts(k, eps, sign)
        drop = 2 * (m // 2)
        want = (gamma_r_raw(1 - s + sp + nu) * gamma_r_raw(1 - s + sm - nu)
                / (gamma_r_raw(1 - s - drop + sp + nu)
                   * gamma_r_raw(1 - s - drop + sm - nu)))
        if k == 1 and m % 2 == 1:
            want *= (s + drop - sign * eps * nu) / (2 * mp.pi)
        assert abs(got - want) <= 1e-12


def test_p_factor_entire_across_gamma_poles(ctx):
    # At s = 3, nu = 0 the naive quotient is a 0/0 of gamma poles; the
    # recurrence form evaluates the polynomial value (s+1)^2/(2 pi)^2 = 4/pi^2.
    f = make_form(k=0, eps=1, nu=("0",), bound=7)
    with ctx.workprec():
        got = p_factor(PFactorSpec(s=ComplexParam.coerce(3), a=0, m=2), f, ctx)
        assert abs(got - 4 / mp.pi ** 2) <= 1e-25


def test_p_factor_spec_validation():
    with pytest.raises(ValueError):
        PFactorSpec(s=ComplexParam.coerce(1), a=2, m=0)
    with pytest.raises(ValueError):
        PFactorSpec(s=ComplexParam.coerce(1), a=0, m=-1)


# ---------------------------------------------------------------------------
# exact binomial reductions
# ---------------------------------------------------------------------------

def test_reduction_t_zero_trivial():
    assert reduction_check(0, 0, Fraction(3, 7), Fraction(1, 5), 0)
    assert reduction_check(1, 0, Fraction(3, 7), Fraction(1, 5), 1)


def test_reduction_reference_points():
    assert reduction_check(0, 2, Fraction(3, 7), Fraction(1, 5), 0)
    # weight 0: the identity itself does not see a
    assert reduction_check(0, 2, Fraction(3, 7), Fraction(1, 5), 1)
    assert reduction_check(1, 3, Fraction(2, 3), Fraction(1, 11), 0)


def test_reduction_full_sweep():
    rng = random.Random(8)
    for t in range(9):
        for k in (0, 1):
            for a in (0, 1):
                for _ in range(3):
                    s = Fraction(rng.randrange(1, 40), rng.randrange(1, 40))
                    nu = Fraction(rng.randrange(1, 30), rng.randrange(1, 30))
                    assert reduction_check(k, t, s, nu, a)


@given(t=st.integers(min_value=0, max_value=5),
       k=st.integers(min_value=0, max_value=1),
       a=st.integers(min_value=0, max_value=1),
       s=st.fractions(min_value=Fraction(1, 9), max_value=4,
                      max_denominator=60),
       nu=st.fractions(min_value=Fraction(-2), max_value=2,
                       max_denominator=60))
def test_reduction_property(t, k, a, s, nu):
    assert reduction_check(k, t, s, nu, a)


def test_reduction_validation():
    with pytest.raises(ValueError):
        reduction_check(2, 1, Fraction(1, 3), Fraction(1, 5), 0)
    with pytest.raises(ValueError):
        reduction_check(0, -1, Fraction(1, 3), Fraction(1, 5), 0)
    with pytest.raises(ValueError):
        reduction_check(0, 1, Fraction(1, 3), Fraction(1, 5), 2)


# ---------------------------------------------------------------------------
# correction measure
# ---------------------------------------------------------------------------

def test_phi_weight_at_origin(ctx):
    assert abs(_phi_log(mp.mpf(0), mp.mpf(0), ctx) - 2) <= 1e-30
    assert abs(_phi_log(mp.mpc(0, 2), mp.mpf(0), ctx) - 2) <= 1e-30


def test_phi_taylor_branch_continuity(ctx):
    # work_bits=64 pushes the Taylor window above u=1e-6; the session ctx
    # evaluates the same point by the direct quotient.
    taylor_ctx = PrecisionContext(work_bits=64, tol=1e-8)
    u = mp.mpf("1e-6")
    assert u < mp.mpf(2) ** -(taylor_ctx.work_bits // 4)
    assert u > mp.mpf(2) ** -(ctx.work_bits // 4)
    for nu in (mp.mpf(0), mp.mpf("0.4"), mp.mpc(0, "9.5")):
        a = _phi_log(nu, u, taylor_ctx)
        b = _phi_log(nu, u, ctx)
        assert abs(a - b) <= 1e-14


def test_phi_identity_closed_point(ctx):
    # nu = 0, s = 2: the trigamma side is 2(pi^2/6 - 1) in closed form.
    with ctx.workprec():
        closed = 2 * (mp.pi ** 2 / 6 - 1)
        assert abs(2 * trigamma(mp.mpf(2), ctx) - closed) <= 1e-30
    assert _phi_residual(mp.mpf(0), mp.mpf(2), ctx) <= 1e-8


def test_phi_identity_reference_points(ctx):
    assert _phi_residual(mp.mpf("0.1"), mp.mpf(3), ctx) <= 1e-8
    assert _phi_residual(mp.mpc(0, 2), mp.mpc(2, 1), ctx) <= 1e-8


def test_phi_machinery_form_wrapper(ctx):
    f = make_form(k=0, eps=1, nu=("0", "2.3"), bound=7)
    assert phi_machinery(f, mp.mpf(2), ctx) <= 1e-8
    with pytest.raises(ConvergenceError):
        phi_machinery(f, mp.mpf("0.4"), ctx)


def test_phi_integral_needs_margin(ctx):
    with pytest.raises(ConvergenceError):
        _phi_residual(mp.mpf("0.3"), mp.mpf("0.7"), ctx)


# ---------------------------------------------------------------------------
# second-derivative reflection identity
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("k,eps,nu_parts,s", [
    (0, 1, ("0.07",), mp.mpc("0.5", 3)),
    (1, -1, ("0", "2.5"), mp.mpf("0.5")),
    (0, -1, ("0", "5"), mp.mpc("0.25", 1)),
])
def test_digamma_reflection_identity(ctx, k, eps, nu_parts, s):
    nu = ComplexParam.from_decimals(*nu_parts).mpc(ctx)
    assert digamma_xf_residual_params(k, eps, nu, s, ctx) <= 1e-10


def test_digamma_reflection_form_wrapper(ctx):
    f = make_form(k=1, eps=1, nu=("0", "1.3"), bound=7)
    assert digamma_xf_residual(f, mp.mpc("0.4", "0.7"), ctx) <= 1e-10


def test_digamma_reflection_pole(ctx):
    f = make_form(k=0, eps=1, nu=("0",), bound=7)
    with pytest.raises(PoleError):
        digamma_xf_residual(f, mp.mpf(0), ctx)


# ---------------------------------------------------------------------------
# correction term
# ---------------------------------------------------------------------------

def test_a_series_value_and_bound(ctx_loose):
    f = make_form(k=0, eps=-1, nu=("0", "1.3"), signs=True, bound=59)
    value, bound, n_used = _a_series(f, Fraction(1, 5), mp.mpf(1), ctx_loose)
    assert mp.isfinite(value)
    assert 0 <= bound <= 1e-6
    assert n_used >= 4
    via_public = a_eval(f, ComplexParam(Fraction(1, 5), Fraction(1)),
                        "series", ctx_loose)
    assert abs(value - via_public) <= 1e-20


def test_a_series_truncation_self_consistent(ctx_loose):
    # Stopping earlier (looser floor) must stay within its reported bound
    # of the longer evaluation.
    f = make_form(k=0, eps=1, nu=("0", "1.3"), signs=True, bound=59)
    loose = PrecisionContext(work_bits=96, tol=1e-6)
    tight = PrecisionContext(work_bits=96, tol=1e-12)
    v1, bound1, n1 = _a_series(f, Fraction(2, 7), mp.mpf("0.8"), loose)
    v2, _, n2 = _a_series(f, Fraction(2, 7), mp.mpf("0.8"), tight)
    assert n2 >= n1
    assert abs(v1 - v2) <= max(bound1, 1e-12)


def test_a_series_exhaustion(ctx_loose):
    f = make_form(k=0, eps=1, nu=("0", "1.3"), bound=59)
    with pytest.raises(ConvergenceError):
        _a_series(f, Fraction(1, 5), mp.mpf("0.05"), ctx_loose, n_limit=2)


def test_a_eval_validation(ctx_loose):
    f = make_form(bound=59)
    with pytest.raises(ValueError):
        a_eval(f, ComplexParam(Fraction(0), Fraction(1)), "series", ctx_loose)
    with pytest.raises(ValueError):
        a_eval(f, ComplexParam(Fraction(1, 5), Fraction(-1)), "series",
               ctx_loose)
    with pytest.raises(ValueError):
        a_eval(f, ComplexParam(Fraction(1, 5), Fraction(1)), "poles",
               ctx_loose)
