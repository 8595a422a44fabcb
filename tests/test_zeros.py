"""Completed-L evaluation, functional equation, zero scanning, residues,
and the dual-side Taylor expansion, all on the two bundled level-1 fixtures.

The heavy cross-validation here is the Re(s)=3 two-method check: the split
Mellin integral (this module's continuation route) against gamma_factor times
the certified Dirichlet series.  Everything downstream — derivatives, the
functional-equation residuals, strip counts, residues, Taylor contours —
feeds off the same kernel, so that one comparison anchors the lot.
"""

import json
import random
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from ltwist import zeros as zeros_mod
from ltwist.analytic import (GammaFactorSpec, PFactorSpec, _p_poly,
                             gamma_factor, p_factor)
from ltwist.errors import (ConvergenceError, InconclusiveError, IsolationError,
                           NearZeroError)
from ltwist.forms import MaassForm, Nebentypus, dual_form
from ltwist.precision import STORE, ComplexParam, PrecisionContext
from ltwist.series import TwistSpec, eval_series, lambda_table
from ltwist.zeros import (ZeroRecord, delta_residue_check, feofd_residual,
                          lambda_complete, lambda_derivs, report_csv,
                          report_jsonl, scan_zeros, taylor_residual)

# Certified lambda-series tail at Re(s)=3 with X=10^4 is ~1.6e-7, so the
# series side of the cross-check needs a tolerance budget above that.
SERIES_CTX = PrecisionContext(work_bits=128, tol=1e-6)

# The even form's completed values run at the e^(-pi R / 2) ~ 4e-10 scale
# (R ~ 13.78), under the 10*tol near-zero floor of the default 1e-10 budget;
# its feofd precondition needs the tighter budget below.
FEOFD_CTX = PrecisionContext(work_bits=128, tol=1e-13)

# Zero locations measured once at 128 bits (Newton-refined, re-verified
# against |Lambda| <= tol); frozen here as regression anchors.
EVEN_ZEROS = (2.897725, 5.591245)


def both_forms(form_even, form_odd):
    return (("even", form_even), ("odd", form_odd))


def omega(f, ctx):
    """Sign/phase of the s -> 1-s functional equation."""
    with ctx.workprec():
        front = f.eta.mpc(ctx)
        if f.weight == 0:
            front *= f.eps
        return front


# ---------------------------------------------------------------------------
# lambda_complete: two-method agreement, analyticity, symmetry


def test_lambda_matches_gamma_times_series(form_even, form_odd, ctx):
    """Split integral vs gamma_factor * certified L-series at Re(s)=3."""
    for _, f in both_forms(form_even, form_odd):
        table = lambda_table(f, f.coeff_bound)
        for s in (mp.mpf(3), mp.mpc(3, 2.5)):
            with ctx.workprec():
                split = lambda_complete(f, s, ctx).mpc(ctx)
                gamma = gamma_factor(GammaFactorSpec.from_form(f, 1), s, ctx)
                series = eval_series(table, s, None, SERIES_CTX).value
                assert abs(split - gamma * series) <= 1e-7


def test_lambda_entire_on_grid(form_even, form_odd, ctx):
    """No poles anywhere on Re(s) in [-2,3], |Im s| <= 15."""
    for _, f in both_forms(form_even, form_odd):
        for re in (-2, -1, 0, Fraction(1, 2), 1, 2, 3):
            for im in (-15, -10, -5, 0, 5, 10, 15):
                val = lambda_complete(f, ComplexParam(Fraction(re),
                                                      Fraction(im)), ctx)
                assert mp.isfinite(val.mpc(ctx))


def test_functional_equation_residual(form_even, form_odd, ctx):
    """|Lambda_f(s) - omega N^(1/2-s) Lambda_dual(1-s)| <= 1e-7 at 10 points."""
    rng = random.Random(11)
    for _, f in both_forms(form_even, form_odd):
        fd = dual_form(f)
        w = omega(f, ctx)
        for _ in range(10):
            s = mp.mpc(rng.uniform(-1, 2), rng.uniform(-10, 10))
            with ctx.workprec():
                lhs = lambda_complete(f, s, ctx).mpc(ctx)
                rhs = w * mp.power(f.level, mp.mpf(1) / 2 - s) \
                    * lambda_complete(fd, 1 - s, ctx).mpc(ctx)
                assert abs(lhs - rhs) <= 1e-7


def test_self_dual_rotation_real_on_line(form_even, form_odd, ctx):
    """Some unimodular rotation makes Lambda real along the critical line."""
    for _, f in both_forms(form_even, form_odd):
        with ctx.workprec():
            ref = lambda_complete(f, mp.mpc(0.5, 1), ctx).mpc(ctx)
            u = mp.conj(ref) / abs(ref)
            for t in (1, 5, 10):
                val = lambda_complete(f, mp.mpc(0.5, t), ctx).mpc(ctx)
                assert abs(mp.im(u * val)) <= 1e-8


# ---------------------------------------------------------------------------
# derivatives


def test_derivative_order_zero_is_lambda(form_even, ctx):
    s = mp.mpc(0.8, 1.3)
    assert lambda_derivs(form_even, s, 0, ctx) == lambda_complete(
        form_even, s, ctx)


def test_derivatives_against_cauchy_ring(form_even, form_odd, ctx):
    """Orders 1 and 2 vs trapezoid Cauchy integrals on |s-s0| = 0.4."""
    s0 = mp.mpc(0.8, 1.3)
    nodes = 48
    for _, f in both_forms(form_even, form_odd):
        with ctx.workprec():
            ring = []
            for j in range(nodes):
                w = mp.exp(mp.mpc(0, 2) * mp.pi * j / nodes)
                ring.append((w, lambda_complete(f, s0 + mp.mpf(0.4) * w,
                                                ctx).mpc(ctx)))
            for order in (1, 2):
                cauchy = mp.factorial(order) * mp.fsum(
                    [v / (mp.mpf(0.4) * w) ** order for w, v in ring]) / nodes
                direct = lambda_derivs(f, s0, order, ctx).mpc(ctx)
                assert abs(direct - cauchy) <= 1e-6


def test_derivative_order_cap(form_even, ctx):
    with pytest.raises(ValueError):
        lambda_derivs(form_even, mp.mpf(2), 3, ctx)


@pytest.mark.parametrize("s", [mp.mpc(0.8, 1.3), mp.mpc(-1, 5),
                               mp.mpc(2, -3.5)], ids=str)
def test_lambda_derivs_is_jet_entry(form_even, form_odd, ctx, s):
    """The public per-order API reads one entry of the same jet, bit for
    bit, on both fixtures and their duals."""
    for _, f in both_forms(form_even, form_odd):
        for g in (f, dual_form(f)):
            with ctx.workprec():
                jet = [zeros_mod._param_from_mpc(v)
                       for v in zeros_mod._make_evaluator(g, ctx)(s, 2)]
            for k in range(3):
                assert lambda_derivs(g, s, k, ctx) == jet[k]


def test_one_mellin_sweep_per_side_per_point(form_odd, ctx, monkeypatch):
    """A strip count costs one order-0 sweep per kernel side for each sample
    of Lambda, and feofd one per side for orders 0-2."""
    orders = []
    sweep = zeros_mod._SplitKernel.mellin

    def counted(self, s, m):
        orders.append(m)
        return sweep(self, s, m)

    monkeypatch.setattr(zeros_mod._SplitKernel, "mellin", counted)
    with ctx.workprec():
        count = zeros_mod._strip_count(
            *zeros_mod._strip_sides(form_odd, ctx), ctx.tol, mp.mpf("3.4"),
            mp.mpf("3.6"))
    assert count == 0
    # both ends of the bottom and top sides, no bisection; the right side
    # takes no samples and the functional-equation mirror serves the left
    samples = 2 + 2
    assert orders == [0] * (2 * samples)

    orders.clear()
    feofd_residual(form_odd, mp.mpc(0.7, 2), ctx)
    assert orders == [2] * 4


PRIMES_200 = [p for p in range(2, 200) if all(p % d for d in range(2, p))]


def synthetic_form(level, weight, nu_im):
    """Form data with real deterministic coefficients and eta = 1; not
    modular.  The jet J_f(s) + phase J_dual(1 - s) satisfies the reflection
    identity whatever the data, so these forms reach what the level-1
    weight-0 fixtures cannot: the weight-1 profile (order nu +- 1/2, not even
    in nu) and a level whose log N term is nonzero."""
    coeffs = tuple((p, ComplexParam(Fraction((-1) ** i * ((37 * p) % 100),
                                             100)))
                   for i, p in enumerate(PRIMES_200))
    return MaassForm(level=level, weight=weight, eps=1,
                     eta=ComplexParam(Fraction(1)),
                     nu=ComplexParam(Fraction(0), Fraction(nu_im)),
                     xi=Nebentypus(1), prime_coeffs=coeffs, coeff_bound=199)


# real data and imaginary nu: self-dual at weight 0, not at weight 1
WEIGHT1_FORM = synthetic_form(1, 1, Fraction(9, 4))
LEVEL2_FORM = synthetic_form(2, 0, Fraction(13, 2))


def test_warm_paths_do_not_rehash_the_form(form_even, form_odd, ctx,
                                            monkeypatch):
    """Once warm, Lambda's jet and feofd find their kernels, jets and dual
    form through the digest computed once per form object, without hashing
    a single coefficient."""
    s = mp.mpc(0.7, 2)
    runs = ((form_even, FEOFD_CTX), (form_odd, ctx))
    for f, fe_ctx in runs:
        lambda_derivs(f, s, 2, ctx)
        feofd_residual(f, s, fe_ctx)
    hashed = []
    plain = ComplexParam.__hash__

    def counted(self):
        hashed.append(self)
        return plain(self)

    monkeypatch.setattr(ComplexParam, "__hash__", counted)
    for f, fe_ctx in runs:
        lambda_derivs(f, s, 2, ctx)
        feofd_residual(f, s, fe_ctx)
    assert len(hashed) == 0


def test_self_dual_forms_share_one_kernel(form_even, form_odd, ctx):
    """A self-dual form and its dual (nu -> -nu) are served by one cached
    kernel, whose nodes equal a kernel built for the dual from scratch; a
    weight-1 form with imaginary nu is not self-dual, and its dual gets its
    own kernel."""
    for f, fe_ctx in ((form_even, FEOFD_CTX), (form_odd, ctx)):
        feofd_residual(f, mp.mpc(0.7, 2), fe_ctx)
        dual = dual_form(f)
        with ctx.workprec():
            kernels = {id(kernel) for key, kernel in STORE.entries.items()
                       if key[0] == "kernel"
                       and key[1:] in ((f.digest, ctx.work_bits),
                                       (dual.digest, ctx.work_bits))}
            shared = zeros_mod._get_kernel(dual, ctx)
            assert kernels == {id(shared)}
            assert shared is zeros_mod._get_kernel(f, ctx)
            fresh = zeros_mod._SplitKernel(dual, ctx)
        assert (fresh.delta, fresh.nodes) == (shared.delta, shared.nodes)

    assert zeros_mod._is_self_dual(LEVEL2_FORM)
    assert not zeros_mod._is_self_dual(WEIGHT1_FORM)
    dual = dual_form(WEIGHT1_FORM)
    with ctx.workprec():
        cached = zeros_mod._get_kernel(dual, ctx)
        assert cached is not zeros_mod._get_kernel(WEIGHT1_FORM, ctx)
        fresh = zeros_mod._SplitKernel(dual, ctx)
    assert (fresh.delta, fresh.nodes) == (cached.delta, cached.nodes)


# ---------------------------------------------------------------------------
# strip counts: the functional-equation mirror against the full contour


def log_derivative(jet, s):
    v, d = jet(s, 1)
    return d / v


@pytest.mark.parametrize("s", [mp.mpc(0.8, 1.3), mp.mpc(0.6, 3.5),
                               mp.mpc(-1, 5), mp.mpc(2, -3.5),
                               mp.mpc(0.55, 0.05), mp.mpc(1.5, 7)], ids=str)
def test_log_derivative_reflection_identity(form_even, form_odd, ctx, s):
    """g(1 - conj s) = -log N - conj g(s) for g = Lambda'/Lambda, the
    identity the strip count's mirror rests on."""
    for f in (form_even, form_odd, WEIGHT1_FORM, LEVEL2_FORM):
        with ctx.workprec():
            jet = zeros_mod._make_evaluator(f, ctx)
            g = log_derivative(jet, s)
            mirrored = log_derivative(jet, 1 - mp.conj(s))
            expected = -mp.log(f.level) - mp.conj(g)
            assert abs(mirrored - expected) <= 1e-30 * max(1, abs(g))


def full_contour_sum(jet, x0, x1, t_lo, t_hi, degree, max_len, ctx):
    """(1/2 pi i) of the Gauss-Legendre sum of Lambda'/Lambda over all four
    sides of the box, every node evaluated: the reference for the strip
    count."""
    corners = [mp.mpc(x0, t_lo), mp.mpc(x1, t_lo), mp.mpc(x1, t_hi),
               mp.mpc(x0, t_hi), mp.mpc(x0, t_lo)]
    gl_x, gl_w = zeros_mod._gl_nodes(degree, ctx)
    total = mp.mpc(0)
    for a, b in zip(corners, corners[1:]):
        n_panels = max(1, int(mp.ceil(abs(b - a) / max_len)))
        for i in range(n_panels):
            lo = a + (b - a) * i / n_panels
            hi = a + (b - a) * (i + 1) / n_panels
            for x, w in zip(gl_x, gl_w):
                s = (lo + hi) / 2 + (hi - lo) / 2 * x
                total += w * (hi - lo) / 2 * log_derivative(jet, s)
    return total / (2j * mp.pi)


def synthetic_level_sides(level, rho):
    """Strip-count arguments for Lambda(s) = N^(-s/2) (s - rho)(s - 1 +
    conj rho) e^((s-1/2)^2), which satisfies Lambda(s) = N^(1/2-s)
    conj Lambda(1 - conj s) as a level-N completed L-function does, with two
    zeros off the critical line in a known place.  Its "gamma" is
    N^(-s/2) e^((s-1/2)^2) and its "L" the quadratic, whose principal arg
    is continuous on Re s = 25/8 (both factors have positive real part)."""
    def jet(s, m):
        quad = (s - rho) * (s - 1 + mp.conj(rho))
        outer = mp.power(level, -s / 2) * mp.exp((s - 0.5) ** 2)
        d_outer = outer * (2 * (s - 0.5) - mp.log(level) / 2)
        d_quad = 2 * s - 1 - rho + mp.conj(rho)
        return [quad * outer, d_quad * outer + quad * d_outer][:m + 1]

    def log_gamma(s):
        return -s / 2 * mp.log(level) + (s - 0.5) ** 2

    def check(s, l_value):
        pass

    return jet, mp.log(level), log_gamma, check


@pytest.mark.parametrize("kind, t_lo, t_hi, zeros_inside", [
    ("odd", "3.25", "3.75", 0),
    ("even", "2.772", "3.023", 1),
    ("odd", "-0.125", "0.25", 1),
    ("level 11", "1", "2", 2),
])
def test_mirrored_winding_matches_full_contour(form_even, form_odd, ctx,
                                               kind, t_lo, t_hi,
                                               zeros_inside):
    """The strip count, which follows arg Lambda on the right half of the
    strip's boundary only, equals the count from every node of the whole
    boundary."""
    with ctx.workprec():
        if kind == "level 11":
            sides = synthetic_level_sides(11, mp.mpc(0.55, 1.4))
        else:
            f = {"even": form_even, "odd": form_odd}[kind]
            sides = zeros_mod._strip_sides(f, ctx)
        t_lo, t_hi = mp.mpf(t_lo), mp.mpf(t_hi)
        sigma = zeros_mod._SIGMA_1
        full = full_contour_sum(sides[0], 1 - sigma, sigma, t_lo, t_hi,
                                24, mp.mpf("0.5"), ctx)
        assert int(mp.nint(full.real)) == zeros_inside
        count = zeros_mod._strip_count(*sides, ctx.tol, t_lo, t_hi)
        assert count == zeros_inside


def test_strip_count_refuses_an_edge_on_a_zero(form_odd, ctx):
    """Lambda(1/2) is exactly 0 on the odd fixture: a strip edge at t = 0
    raises InconclusiveError instead of dividing by zero."""
    with ctx.workprec():
        sides = zeros_mod._strip_sides(form_odd, ctx)
        assert sides[0](mp.mpc(0.5, 0), 0)[0] == 0
        with pytest.raises(InconclusiveError, match="within tolerance"):
            zeros_mod._strip_count(*sides, ctx.tol, mp.mpf(0), mp.mpf(1))


def test_strip_count_corner_cross_check(ctx):
    """LEVEL2_FORM's data are not modular, so its split Lambda is not
    gamma L: the corner cross-check rejects the count."""
    with ctx.workprec():
        sides = zeros_mod._strip_sides(LEVEL2_FORM, ctx)
        with pytest.raises(InconclusiveError, match=r"is not gamma\*L"):
            zeros_mod._strip_count(*sides, ctx.tol, mp.mpf("6.25"),
                                   mp.mpf(7))


# ---------------------------------------------------------------------------
# functional equation of the completed D-avatar (log-derivative identity)


def test_feofd_residual_small(form_even, form_odd, ctx):
    assert feofd_residual(form_even, mp.mpc(0.7, 2), FEOFD_CTX) <= 1e-5
    assert feofd_residual(form_odd, mp.mpc(0.7, 2), ctx) <= 1e-5


def test_feofd_on_critical_line(form_odd, ctx):
    """Re(s)=1/2 point with Lambda != 0 (odd form: scale ~ 3e-7 there)."""
    assert feofd_residual(form_odd, mp.mpc(0.5, 1), ctx) <= 1e-5


def test_feofd_conjugate_symmetry(form_even):
    s = mp.mpc(0.7, 2)
    r1 = feofd_residual(form_even, s, FEOFD_CTX)
    r2 = feofd_residual(form_even, 1 - mp.conj(s), FEOFD_CTX)
    assert abs(r1 - r2) <= 1e-5


def test_feofd_near_zero_raises(form_even, ctx):
    with pytest.raises(NearZeroError):
        feofd_residual(form_even, mp.mpc(0.5, EVEN_ZEROS[0]), ctx)


# ---------------------------------------------------------------------------
# zero scan


def test_scan_even_window(scan_even_14):
    report = scan_even_14
    assert report.window == (0, 14)
    assert len(report.zeros) == len(EVEN_ZEROS)
    for record, t_expect in zip(report.zeros, EVEN_ZEROS):
        assert abs(float(record.rho.im) - t_expect) <= 5e-6
        assert abs(float(record.rho.re - Fraction(1, 2))) <= 1e-9
        assert record.winding == 1
        assert record.is_simple
        assert record.lambda_prime_abs > 10 * record.tol_used
    assert report.total_count_by_argument == sum(
        z.winding for z in report.zeros)


def test_scan_odd_central_zero(scan_odd_14):
    report = scan_odd_14
    assert len(report.zeros) == 1
    (record,) = report.zeros
    assert abs(float(record.rho.im)) <= 1e-6
    assert abs(float(record.rho.re - Fraction(1, 2))) <= 1e-9
    assert record.is_simple
    assert report.total_count_by_argument == 1


def test_scan_empty_window(form_even, ctx):
    report = scan_zeros(form_even, 6.5, 8.0, 0.25, ctx)
    assert report.zeros == ()
    assert report.total_count_by_argument == 0


def test_scan_evaluates_each_point_once(form_odd, ctx, monkeypatch):
    """The strip counts' on-line track ends at t0 and t1 reuse the line
    samples there: a zero-free odd unit window costs 14 Mellin sweeps (two
    per sampled point, one per kernel side), and no point is swept twice."""
    points = []
    sweep = zeros_mod._SplitKernel.mellin

    def counted(self, s, m):
        points.append((id(self), s))
        return sweep(self, s, m)

    monkeypatch.setattr(zeros_mod._SplitKernel, "mellin", counted)
    report = scan_zeros(form_odd, 3.25, 4.25, 0.25, ctx)
    assert report.zeros == () and report.total_count_by_argument == 0
    assert len(points) == 14
    assert len(set(points)) == len(points)


def test_scan_deterministic(form_even, ctx, scan_even_14):
    assert scan_zeros(form_even, 0, 14, 0.25, ctx) == scan_even_14


def test_scan_nested_window_monotone(form_even, ctx, scan_even_14):
    counts = [len(scan_zeros(form_even, 0, 2, 0.25, ctx).zeros),
              len(scan_zeros(form_even, 0, 8, 0.25, ctx).zeros),
              len(scan_even_14.zeros)]
    assert counts == sorted(counts)


def test_report_serialization(scan_even_14):
    jsonl = report_jsonl(scan_even_14)
    lines = jsonl.splitlines()
    assert jsonl.endswith("\n") and len(lines) == len(scan_even_14.zeros)
    for line, record in zip(lines, scan_even_14.zeros):
        obj = json.loads(line)
        assert set(obj) == {"t", "re_offset", "winding",
                            "lambda_prime_abs", "tol"}
        assert obj["t"] == float(record.rho.im)
        assert obj["winding"] == record.winding

    csv = report_csv(scan_even_14)
    rows = csv.splitlines()
    assert rows[0] == "t,re_offset,winding,lambda_prime_abs,tol"
    assert len(rows) == 1 + len(scan_even_14.zeros)
    for row, record in zip(rows[1:], scan_even_14.zeros):
        cells = row.split(",")
        assert float(cells[0]) == float(record.rho.im)  # repr round-trips
        assert int(cells[2]) == record.winding


# Report bodies of the shared [0, 14] scans at 128 bits, tol 1e-10, frozen
# bit for bit: a faster evaluator must reproduce every digit.
GOLDEN_JSONL = {
    "even": (
        '{"t": 2.897724678270776, "re_offset": 0.0, "winding": 1, '
        '"lambda_prime_abs": 6.962135002203755e-10, '
        '"tol": 5.434886883274785e-20}\n'
        '{"t": 5.591245315319627, "re_offset": 0.0, "winding": 1, '
        '"lambda_prime_abs": 6.1412638596083e-10, '
        '"tol": 5.621943901884374e-20}\n'),
    "odd": (
        '{"t": 1.096046371794917e-37, "re_offset": 0.0, "winding": 1, '
        '"lambda_prime_abs": 6.115849240122453e-07, '
        '"tol": 7.717839933016786e-17}\n'),
}


def test_scan_reports_bit_identical(scan_even_14, scan_odd_14):
    assert report_jsonl(scan_even_14) == GOLDEN_JSONL["even"]
    assert report_jsonl(scan_odd_14) == GOLDEN_JSONL["odd"]


def test_zero_record_rejects_zero_winding():
    with pytest.raises(ValueError):
        ZeroRecord(ComplexParam(Fraction(1, 2), Fraction(3)), 0, 1.0,
                   (ComplexParam(Fraction(1, 2), Fraction(3)), (0.1, 0.1)),
                   1e-12)


# ---------------------------------------------------------------------------
# residue of the completed-D pole at a simple zero


def test_delta_residue_on_first_zeros(form_even, form_odd, ctx,
                                      scan_even_14, scan_odd_14):
    assert delta_residue_check(form_even, scan_even_14.zeros[0], ctx) <= 1e-4
    assert delta_residue_check(form_odd, scan_odd_14.zeros[0], ctx) <= 1e-4


def test_delta_residue_stable_under_point_doubling(form_even, ctx,
                                                   scan_even_14):
    r64 = delta_residue_check(form_even, scan_even_14.zeros[0], ctx)
    r128 = delta_residue_check(form_even, scan_even_14.zeros[0], ctx,
                               points=128)
    assert abs(r64 - r128) <= 1e-8


def test_delta_contour_synthetic_oracle(ctx):
    """Lambda = (s - rho0) e^(g(s)) has residue -Lambda'(rho0) exactly."""
    rho0 = mp.mpc(0.5, 3)

    def g(s):
        return mp.mpf(0.3) * s * s - s + 1

    def ev(s, order):
        expg = mp.exp(g(s))
        gp = mp.mpf(0.6) * s - 1
        if order == 0:
            return (s - rho0) * expg
        if order == 1:
            return expg * (1 + (s - rho0) * gp)
        return expg * (2 * gp + (s - rho0) * (mp.mpf(0.6) + gp * gp))

    def jet(s, m):
        return [ev(s, k) for k in range(m + 1)]

    with ctx.workprec():
        value = zeros_mod._delta_contour(jet, rho0, mp.mpf(0.3), 64)
        assert abs(value + ev(rho0, 1)) <= 1e-20


def test_delta_residue_isolation_guard(form_even, ctx):
    """A box wide enough to capture both even-form zeros is rejected."""
    mid = (EVEN_ZEROS[0] + EVEN_ZEROS[1]) / 2
    center = ComplexParam(Fraction(1, 2), Fraction(mid).limit_denominator(10**6))
    fake = ZeroRecord(center, 1, 1.0, (center, (2.8, 2.8)), 1e-12)
    with pytest.raises(IsolationError):
        delta_residue_check(form_even, fake, ctx)


def test_delta_residue_rejects_few_points(form_even, ctx, scan_even_14):
    with pytest.raises(ValueError):
        delta_residue_check(form_even, scan_even_14.zeros[0], ctx, points=4)


# ---------------------------------------------------------------------------
# dual-side Taylor expansion
#
# Level 1 and alpha = 1/5 force beta = -1/(N alpha) = -5, an integer: every
# sine-side twist vanishes and the parity factor in P kills alternate t, so
# consecutive truncation orders can tie *exactly*.  alpha = 3/7 keeps all
# (a, t) classes alive and shows the generic strict decrease.


def test_taylor_degenerate_ties_even(form_even, ctx):
    y = Fraction(1, 40)
    r1, r2, r3 = (taylor_residual(form_even, Fraction(1, 5), y, T, ctx)
                  for T in (1, 2, 3))
    assert r1 == r2  # T=2 adds only terms that vanish identically
    assert r3 < r2 / 2
    assert r3 <= 1e-3


def test_taylor_degenerate_ties_odd(form_odd, ctx):
    y = Fraction(1, 40)
    r1, r2, r3 = (taylor_residual(form_odd, Fraction(1, 5), y, T, ctx)
                  for T in (1, 2, 3))
    assert r2 == r3  # T=3 adds only terms that vanish identically
    assert r2 < r1 / 2
    # T=1 keeps no dual-side term at all: the residual is the bare |F|.
    with ctx.workprec():
        z = mp.mpc(mp.mpf(1) / 5, mp.mpf(1) / 40)
        w = -1 / (form_odd.level * z)
        bare = float(abs(zeros_mod._big_f(form_odd, -mp.conj(w), ctx)))
    assert r1 == pytest.approx(bare, rel=1e-12)


def test_taylor_strict_decrease_generic_twist(form_even, form_odd, ctx):
    alpha = Fraction(3, 7)
    y = alpha / 16
    for f in (form_even, form_odd):
        r1, r2, r3 = (taylor_residual(f, alpha, y, T, ctx) for T in (1, 2, 3))
        assert r1 > r2 > r3


def test_taylor_halving_y_at_t3(form_even, form_odd, ctx):
    alpha = Fraction(1, 5)
    for f in (form_even, form_odd):
        coarse = taylor_residual(f, alpha, alpha / 8, 3, ctx)
        fine = taylor_residual(f, alpha, alpha / 16, 3, ctx)
        assert fine * 3 <= coarse


def test_taylor_halving_ratio_first_order(form_odd, ctx):
    """At T=1 the residual scales ~ y: halving should roughly halve it."""
    alpha = Fraction(1, 5)
    coarse = taylor_residual(form_odd, alpha, alpha / 8, 1, ctx)
    fine = taylor_residual(form_odd, alpha, alpha / 16, 1, ctx)
    assert 1.5 <= coarse / fine <= 2.5


def test_taylor_second_order_beats_first(form_odd, ctx):
    alpha = Fraction(1, 5)
    y = alpha / 8
    assert taylor_residual(form_odd, alpha, y, 2, ctx) < \
        taylor_residual(form_odd, alpha, y, 1, ctx)


def test_taylor_contour_placement_invariance(form_even, ctx, monkeypatch):
    """The vertical line is a free choice inside the convergence region:
    shifting it is exact by Cauchy, so the residual must not move."""
    args = (form_even, Fraction(1, 5), Fraction(1, 40), 3, ctx)
    base = taylor_residual(*args)
    monkeypatch.setattr(STORE, "entries", {
        key: value for key, value in STORE.entries.items()
        if key[0] != "contour"})
    monkeypatch.setattr(zeros_mod, "_CONTOUR_SIGMA", 2.5)
    shifted = taylor_residual(*args)
    assert abs(base - shifted) <= 1e-18


def test_taylor_contour_cache_keys_exact_height(form_even, monkeypatch):
    """Heights that agree to 36 digits are still different heights: at
    192 bits each gets its own contour, and a cached value equals a fresh
    computation."""
    monkeypatch.setattr(STORE, "entries", {
        key: value for key, value in STORE.entries.items()
        if key[0] != "contour"})
    fine = PrecisionContext(work_bits=192, tol=1e-10)
    beta = Fraction(-7, 3)
    with fine.workprec():
        x = mp.mpf(1) / 50
        x_near = x * (1 + mp.mpf(2) ** -120)
        assert mp.nstr(x, 30) == mp.nstr(x_near, 30)
        first = zeros_mod._taylor_contour(form_even, 0, 0, beta, x, fine)
        near = zeros_mod._taylor_contour(form_even, 0, 0, beta, x_near, fine)
        assert near != first
        monkeypatch.setattr(STORE, "entries", {
            key: value for key, value in STORE.entries.items()
            if key[0] != "contour"})
        assert zeros_mod._taylor_contour(form_even, 0, 0, beta, x_near,
                                         fine) == near


def test_taylor_contour_cache_hits_across_truncation_orders(form_odd, ctx,
                                                           monkeypatch):
    """A T = 1, 2, 3 sweep at one height computes each (a, t) contour once;
    the halved height computes its own."""
    # the session's coefficient tables stay; contours of other tests do not
    cache = {key: value for key, value in STORE.entries.items()
             if key[0] != "contour"}
    monkeypatch.setattr(STORE, "entries", cache)

    def contours():
        return sum(1 for key in cache if key[0] == "contour")

    alpha = Fraction(3, 7)
    y = alpha / 8
    for T in (1, 2, 3):
        taylor_residual(form_odd, alpha, y, T, ctx)
    assert contours() == 6  # of 12 requests
    taylor_residual(form_odd, alpha, y / 2, 1, ctx)
    assert contours() == 8


def _per_node_contour(f, a, t, beta, x_ratio, ctx):
    """The Taylor contour as one loop over the nodes, with P, gamma and the
    float64 D-series (its exponential included) computed afresh at every
    node: the reference the shared node tables must reproduce bit for
    bit."""
    c_dual = zeros_mod._c_dual_floats(f, ctx)
    n_arr = np.arange(1, c_dual.size)
    angles = (2 * np.pi / beta.denominator) * \
        ((n_arr * beta.numerator) % beta.denominator)
    trig = np.cos(angles) if a == 0 else -np.sin(angles)
    u = c_dual[1:] * trig * n_arr.astype(np.float64) ** float(
        -(zeros_mod._CONTOUR_SIGMA + t))
    log_n = np.log(n_arr)
    nu = f.nu.mpc(ctx)
    dual_spec = GammaFactorSpec.from_form(dual_form(f), -1 if a % 2 else 1)
    h = mp.mpf(zeros_mod._CONTOUR_STEP)
    n_nodes = int(zeros_mod._CONTOUR_REACH / zeros_mod._CONTOUR_STEP)
    log_x = mp.log(x_ratio)
    total = mp.mpc(0)
    for j in range(-n_nodes, n_nodes + 1):
        tau = j * h
        s = mp.mpc(zeros_mod._CONTOUR_SIGMA, tau)
        p_val = _p_poly(f, s, (a + t) % 2, t, nu)
        if p_val == 0:
            continue
        g_val = gamma_factor(dual_spec, s + t, ctx)
        d_val = complex(np.dot(u, np.exp(-1j * float(tau) * log_n)))
        total += p_val * g_val * mp.mpc(d_val) \
            * mp.exp((mp.mpf(1) / 2 - s) * log_x)
    return total * h / (2 * mp.pi)


def _per_node_residuals(f, alpha, y, t_max, ctx):
    """(taylor_residual for T = 1..t_max, [((a, t, beta, x_ratio), contour)]),
    assembled as taylor_residual does from `_per_node_contour` and an
    uncached F."""
    with ctx.workprec():
        y = mp.mpf(y.numerator) / y.denominator
        alpha_mp = mp.mpf(alpha.numerator) / alpha.denominator
        z = mp.mpc(alpha_mp, y)
        w = -1 / (f.level * z)
        phase = (mp.mpc(0, 1) * abs(z) / z) ** f.weight
        lhs = phase * mp.conj(
            zeros_mod._big_f.__wrapped__(f, -mp.conj(w), ctx))
        beta = Fraction(-1, f.level) / alpha
        x_ratio = y / (f.level * alpha_mp ** 2)
        sign = (mp.mpc(0, 1) * (1 if alpha > 0 else -1)) ** f.weight
        rhs, residuals, contours = mp.mpc(0), [], []
        for t in range(t_max):
            pref = (mp.mpc(0, 2 * mp.pi) * f.level * alpha_mp) ** t \
                / mp.factorial(t)
            inner = mp.mpc(0)
            for a in (0, 1):
                i_pow = mp.mpc(1) if a == 0 else mp.mpc(0, -1)
                contours.append(((a, t, beta, x_ratio),
                                 _per_node_contour(f, a, t, beta, x_ratio,
                                                   ctx)))
                inner += i_pow * contours[-1][1]
            rhs += pref * inner
            residuals.append(float(abs(lhs - rhs * sign)))
        return residuals, contours


def test_taylor_node_tables_are_bit_identical(form_even, form_odd, ctx):
    """Shared node tables (P gamma per (form, a, t), one exponential per node
    per twist) and the memoised F change no bit of the residual, nor of any
    contour (the float residual alone would hide a change far below its
    cancellation).  T = 4 reaches rows that the T <= 3 sweeps never build.
    BLAS may sum the D-series in another order on another machine, so both
    sides are computed here rather than frozen."""
    for _, f in both_forms(form_even, form_odd):
        for alpha in (Fraction(3, 7), Fraction(-8, 19)):
            y = abs(alpha) / 8
            for height, t_max in ((y, 4), (y / 2, 3)):
                residuals, contours = _per_node_residuals(f, alpha, height,
                                                          t_max, ctx)
                assert [taylor_residual(f, alpha, height, T, ctx)
                        for T in range(1, t_max + 1)] == residuals
                for args, value in contours:
                    assert zeros_mod._taylor_contour(f, *args, ctx) == value


def test_taylor_warm_sweep_work_counts(form_odd, ctx, monkeypatch):
    """Once one sweep has built the node tables, a sweep at a new twist
    makes no gamma_factor call, one np.exp per node for each (beta, t), and
    one F evaluation per distinct (alpha, y)."""
    cache = {key: value for key, value in STORE.entries.items()
             if key[0] not in ("contour", "contour-d", "big-f")}
    monkeypatch.setattr(STORE, "entries", cache)

    def sweep(alpha):
        y = alpha / 8
        for T, height in ((1, y), (2, y), (3, y), (3, y / 2)):
            taylor_residual(form_odd, alpha, height, T, ctx)

    sweep(Fraction(3, 7))
    calls = {"gamma": 0, "exp": 0}
    gamma, exp = zeros_mod.gamma_factor, np.exp

    def counted_gamma(*args):
        calls["gamma"] += 1
        return gamma(*args)

    def counted_exp(*args):
        calls["exp"] += 1
        return exp(*args)

    monkeypatch.setattr(zeros_mod, "gamma_factor", counted_gamma)
    monkeypatch.setattr(np, "exp", counted_exp)
    before = sum(1 for key in cache if key[0] == "big-f")
    sweep(Fraction(5, 11))
    nodes = 2 * int(zeros_mod._CONTOUR_REACH / zeros_mod._CONTOUR_STEP) + 1
    assert calls["gamma"] == 0
    assert calls["exp"] <= nodes * 3  # one beta, t = 0, 1, 2
    assert sum(1 for key in cache if key[0] == "big-f") - before == 2


def test_taylor_input_validation(form_even, ctx):
    with pytest.raises(ValueError):
        taylor_residual(form_even, Fraction(0), Fraction(1, 40), 1, ctx)
    with pytest.raises(ValueError):
        taylor_residual(form_even, Fraction(1, 5), Fraction(1, 40), 0, ctx)
    with pytest.raises(ValueError):
        taylor_residual(form_even, Fraction(1, 5), Fraction(1, 4), 1, ctx)
    with pytest.raises(ValueError):
        taylor_residual(form_even, Fraction(1, 5), Fraction(0), 1, ctx)


def test_taylor_reflected_series_exhausts_table(form_even, ctx):
    """Tiny y needs more reflected-series terms than the fixture carries."""
    with pytest.raises(ConvergenceError):
        taylor_residual(form_even, Fraction(1, 5), Fraction(1, 20000), 1, ctx)


def test_p_ratio_matches_analytic_p_factor(form_even, form_odd, ctx):
    """The polynomial body the Taylor contour calls at mpc points must
    track the reduction-suite entry point exactly."""
    s = mp.mpc(1.3, 0.7)
    for _, f in both_forms(form_even, form_odd):
        with ctx.workprec():
            nu = f.nu.mpc(ctx)
            for a in (0, 1):
                for m in range(6):
                    inline = _p_poly(f, s, a, m, nu)
                    reference = p_factor(
                        PFactorSpec(ComplexParam.coerce(complex(s)), a, m),
                        f, ctx)
                    assert abs(inline - reference) <= 1e-30
