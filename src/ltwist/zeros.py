"""Entire continuation of the completed L-function and everything built on it.

The completed function is evaluated through the split integral

    Lambda_f(s) = J_f(s) + eta eps^(1-k) N^(1/2-s) J_fdual(1-s),

where J_f(s) is the Mellin integral, from the involution's fixed height
1/sqrt(N) upward, of the form's restriction to the imaginary axis (or, for
odd weight-0 forms -- which vanish there -- of the normalized x-derivative
of that restriction, shifting the Mellin exponent by one).  Both integrals
converge like exp(-2 pi y), so the split representation is entire in s and
derivatives come from differentiating under the integral sign.  Every caller
asks for a jet [Lambda(s), Lambda'(s), ..., Lambda^(m)(s)]: one sweep over
each integral's quadrature nodes per point, one complex exponential per node,
yields the moments of all orders at once.

On top of that sit: residuals of the differentiated functional equation, a
critical-strip zero scanner whose multiplicity certificates are Backlund
strip counts (the functional-equation mirror serves the left half of each
strip's boundary), the contour residue check at a certified simple zero, and
the end-to-end dual-side Taylor residual, which compares the reflected
D-series Fourier expansion against Mellin-Barnes integrals of the polynomial
gamma-ratio factors times twisted D-series.

Numerical policy: certified quantities are computed with mpmath at the
context's working precision.  The only float64 shortcut is the bulk
evaluation of truncated twisted D-series inside `taylor_residual` (absolute
accuracy ~1e-15, far below that check's coefficient-truncation floor).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp

from .analytic import (GammaFactorSpec, _gamma_pair_dd, _p_poly, _shifts,
                       _v_params, gamma_factor)
from .errors import (ConvergenceError, InconclusiveError, IsolationError,
                     NearZeroError, TailError)
from .forms import MaassForm, dual_form, hecke_table
from .precision import (STORE, ComplexParam, PrecisionContext,
                        default_context, to_mpc, to_real)
from .series import _tail_bound, c_coeffs

__all__ = [
    "ZeroRecord", "ScanReport", "lambda_complete", "lambda_derivs",
    "feofd_residual", "scan_zeros", "delta_residue_check", "taylor_residual",
    "report_jsonl", "report_csv",
]


_param_from_mpc = ComplexParam.coerce


# ---------------------------------------------------------------------------
# Gauss-Legendre panels at working precision
# ---------------------------------------------------------------------------

@STORE.memo("gl")
def _gl_nodes(n: int, ctx: PrecisionContext):
    """Gauss-Legendre nodes/weights on [-1, 1] at working precision: float64
    seeds polished by Newton iteration on the Legendre recurrence."""
    seeds, _ = np.polynomial.legendre.leggauss(n)

    def legendre_pair(x):
        p0, p1 = mp.mpf(1), x
        for j in range(2, n + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = n * (x * p1 - p0) / (x * x - 1)
        return p1, dp

    nodes, weights = [], []
    for seed in seeds:
        x = mp.mpf(float(seed))
        for _ in range(4):
            p, dp = legendre_pair(x)
            x -= p / dp
        _, dp = legendre_pair(x)
        nodes.append(x)
        weights.append(2 / ((1 - x * x) * dp * dp))
    return nodes, weights


# ---------------------------------------------------------------------------
# cached split-integral kernels
# ---------------------------------------------------------------------------

def _is_self_dual(f: MaassForm) -> bool:
    """True when conjugating all coefficient data fixes the form's values,
    so the dual's kernel is the form's own.  The dual's nu is conj(nu):
    real nu is fixed, and imaginary nu goes to -nu, which leaves the profile
    unchanged only at weight 0 (K_nu = K_-nu); the weight-1 profile has
    order nu +- 1/2 and is not even in nu."""
    return (f.eta.is_real
            and (f.nu.im == 0 or (f.weight == 0 and f.nu.re == 0))
            and (f.xi.is_trivial or all(v.is_real for v in f.xi.table))
            and all(lam.is_real for _, lam in f.prime_coeffs))


def _efolds() -> mp.mpf:
    """Decay budget: tails below 2^-prec / 1e13 are dropped."""
    return mp.prec * mp.ln(2) + 30


_GL_DEGREE = 48


class _SplitKernel:
    """Fixed quadrature nodes on [1/sqrt(N), y_top] with cached kernel values.

    Each node stores its weighted kernel value w*h and log y, so every Lambda
    evaluation is one sweep of power sums over these nodes: a single complex
    exponential per node serves the moments of every order.  The expensive
    K-Bessel sums are paid once per (form, precision).  lambda(n) is read
    only up to the cut at the lowest height, so only that much of the table
    is built.
    """

    def __init__(self, f: MaassForm, ctx: PrecisionContext):
        # odd weight-0 forms vanish on the imaginary axis: integrate the
        # normalized x-derivative instead (Mellin exponent shifted by +1)
        self.delta = 1 if f.weight == 0 and f.eps == -1 else 0
        a = 1 / mp.sqrt(f.level)
        budget = _efolds()
        y_top = max(2 * a, budget / (2 * mp.pi))
        edges = [a]
        while edges[-1] < y_top:
            edges.append(min(2 * edges[-1], y_top))
        gl_x, gl_w = _gl_nodes(_GL_DEGREE, ctx)
        nu = f.nu.mpc(ctx)
        n_top = min(int(budget / (2 * mp.pi * a)) + 1, f.coeff_bound)
        lam = [None] + [v.mpc(ctx) for v in hecke_table(f, n_top)[1:]]

        def kernel_value(y):
            n_cut = int(budget / (2 * mp.pi * y)) + 1
            if n_cut > f.coeff_bound:
                raise TailError(
                    f"coefficient table to {f.coeff_bound} cannot reach the "
                    f"working tail target at height y={mp.nstr(y, 6)}")
            total = mp.mpc(0)
            for n in range(1, n_cut + 1):
                if self.delta:
                    total += lam[n] * mp.sqrt(n) * _v_params(
                        f.weight, f.eps, nu, -1, n * y, ctx)
                else:
                    total += lam[n] / mp.sqrt(n) * _v_params(
                        f.weight, f.eps, nu, 1, n * y, ctx)
            return total

        nodes = []
        for lo, hi in zip(edges, edges[1:]):
            mid, half = (lo + hi) / 2, (hi - lo) / 2
            for x, w in zip(gl_x, gl_w):
                y = mid + half * x
                nodes.append((w * half * kernel_value(y), mp.log(y)))
        self.nodes = nodes

    def mellin(self, s, m: int):
        """[d^k/ds^k of  int h(y) y^(s - 1/2 + delta) dy/y  for k = 0..m],
        from one sweep over the nodes."""
        w = s - mp.mpf(1) / 2 + self.delta - 1
        sums = [mp.mpc(0)] * (m + 1)
        for wh, logy in self.nodes:
            term = wh * mp.exp(w * logy)
            sums[0] += term
            for k in range(1, m + 1):
                sums[k] += term * logy ** k
        return sums


@STORE.memo("kernel")
def _get_kernel(f: MaassForm, ctx: PrecisionContext) -> _SplitKernel:
    """The cached kernel of f.  A self-dual form (see `_is_self_dual`) and
    its dual differ at most in the sign of nu and share one kernel, so the
    dual's key is served by the kernel of the one with Im nu >= 0 instead
    of a second build."""
    if f.nu.im < 0 and _is_self_dual(f):
        return _get_kernel(dual_form(f), ctx)
    return _SplitKernel(f, ctx)


@STORE.memo("jet")
def _make_evaluator(f: MaassForm, ctx: PrecisionContext):
    """Closure jet(s, m) -> [Lambda_f(s), Lambda_f'(s), ..., Lambda_f^(m)(s)]
    as mpc, built once per (form, precision).

    One Mellin sweep per kernel side serves every order; each order is then
    the Leibniz combination of the form's moments with the dual's moments at
    1 - s times the root-number phase.
    """
    kf = _get_kernel(f, ctx)
    kd = kf if _is_self_dual(f) else _get_kernel(dual_form(f), ctx)
    log_n = mp.log(f.level)
    front = f.eta.mpc(ctx) * (f.eps if f.weight == 0 else 1)
    half = mp.mpf(1) / 2

    def jet(s, m):
        phase = front * mp.power(f.level, half - s)
        near, far = kf.mellin(s, m), kd.mellin(1 - s, m)
        out = []
        for order in range(m + 1):
            total = near[order]
            for i in range(order + 1):
                total += (mp.binomial(order, i) * (-log_n) ** i * phase
                          * (-1) ** (order - i) * far[order - i])
            out.append(total)
        return out

    return jet


# ---------------------------------------------------------------------------
# Lambda and its derivatives
# ---------------------------------------------------------------------------

def lambda_complete(f: MaassForm, s,
                    ctx: PrecisionContext | None = None) -> ComplexParam:
    """The completed L-function Lambda_f(s), entire in s."""
    ctx = ctx or default_context()
    with ctx.workprec():
        return _param_from_mpc(_make_evaluator(f, ctx)(to_mpc(s, ctx), 0)[0])


def lambda_derivs(f: MaassForm, s, order: int,
                  ctx: PrecisionContext | None = None) -> ComplexParam:
    """d^order/ds^order Lambda_f(s) for order <= 2, by differentiating the
    split integrals under the integral sign (log-power kernels), never by
    finite differences."""
    if order not in (0, 1, 2):
        raise ValueError("order must be 0, 1, or 2")
    ctx = ctx or default_context()
    with ctx.workprec():
        return _param_from_mpc(
            _make_evaluator(f, ctx)(to_mpc(s, ctx), order)[order])


# ---------------------------------------------------------------------------
# differentiated functional equation
# ---------------------------------------------------------------------------

def feofd_residual(f: MaassForm, s,
                   ctx: PrecisionContext | None = None) -> float:
    """Absolute residual of the differentiated functional equation

        Delta_f(s) + (psi_f'(s) - psi_fdual'(1-s)) Lambda_f(s)
            = eta eps^(1-k) N^(1/2-s) Delta_fdual(1-s),

    where Delta_f = Lambda_f (log Lambda_f)'' - psi_f' Lambda_f and psi_f is
    the log-derivative of the plus gamma factor.  Every Lambda term comes
    from the entire split representation; the divergent coefficient series
    is never touched.
    """
    ctx = ctx or default_context()
    with ctx.workprec():
        s = to_mpc(s, ctx)
        dual = dual_form(f)
        floor = 10 * ctx.tol

        def delta_parts(form, point):
            v, d1, d2 = _make_evaluator(form, ctx)(point, 2)
            if abs(v) <= floor:
                raise NearZeroError(
                    f"|Lambda({mp.nstr(point, 8)})| = {mp.nstr(abs(v), 3)} "
                    f"is within 10x tolerance of a zero; resample s")
            log_dd = d2 / v - (d1 / v) ** 2
            psi = _gamma_pair_dd(form.weight, form.eps, form.nu.mpc(ctx),
                                 point)
            return v, v * log_dd - psi * v, psi

        lam_f, delta_f, psi_f = delta_parts(f, s)
        _, delta_d, psi_d = delta_parts(dual, 1 - s)
        lhs = delta_f + (psi_f - psi_d) * lam_f
        omega = (f.eta.mpc(ctx) * (f.eps if f.weight == 0 else 1)
                 * mp.power(f.level, mp.mpf(1) / 2 - s))
        return float(abs(lhs - omega * delta_d))


# ---------------------------------------------------------------------------
# zero scanning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ZeroRecord:
    """One certified zero: location, winding certificate, |Lambda'|, and the
    (scaled) tolerance the certificates were checked against."""

    rho: ComplexParam
    winding: int
    lambda_prime_abs: float
    box: tuple  # (center: ComplexParam, (radius_re, radius_im))
    tol_used: float

    def __post_init__(self):
        if self.winding < 1:
            raise ValueError("winding must be >= 1")

    @property
    def is_simple(self) -> bool:
        return self.winding == 1 and self.lambda_prime_abs > 10 * self.tol_used


@dataclass(frozen=True)
class ScanReport:
    window: tuple
    zeros: tuple
    total_count_by_argument: int


def report_jsonl(report: ScanReport) -> str:
    """One JSON object per zero, fields (t, re_offset, winding,
    lambda_prime_abs, tol)."""
    lines = []
    for z in report.zeros:
        lines.append(json.dumps({
            "t": float(z.rho.im),
            "re_offset": float(z.rho.re - Fraction(1, 2)),
            "winding": z.winding,
            "lambda_prime_abs": z.lambda_prime_abs,
            "tol": z.tol_used,
        }))
    return "".join(line + "\n" for line in lines)


def report_csv(report: ScanReport) -> str:
    """CSV with the same columns as the JSON-lines serialization."""
    lines = ["t,re_offset,winding,lambda_prime_abs,tol"]
    for z in report.zeros:
        lines.append(",".join([
            repr(float(z.rho.im)),
            repr(float(z.rho.re - Fraction(1, 2))),
            str(z.winding),
            repr(z.lambda_prime_abs),
            repr(z.tol_used),
        ]))
    return "".join(line + "\n" for line in lines)


# Right edge of the counted strip: zeta(sigma_1 - KS_THETA)^2 - 1 < 1/2 and
# |lambda(n)| <= d(n) n^KS_THETA give |L - 1| < 1/2, |arg L| < pi/6 there.
_SIGMA_1 = mp.mpf(25) / 8
_CORNER_TERMS = 100   # lambda-series terms of the corner cross-check
_TRACK_DEPTH = 9      # bisections of a horizontal track before it fails


def _refine(sample, pts, min_gap):
    """Bisect the sampled path pts = [(x, value), ...] in place until arg
    moves by at most pi/2 between neighbours; returns the left ends of the
    intervals that reached length min_gap first or touch a zero sample."""
    exhausted, i = [], 0
    while i + 1 < len(pts):
        (xa, va), (xb, vb) = pts[i], pts[i + 1]
        if va != 0 and vb != 0 and abs(mp.arg(vb / va)) <= mp.pi / 2:
            i += 1
        elif xb - xa <= min_gap:
            exhausted.append(xa)
            i += 1
        else:
            xm = (xa + xb) / 2
            pts.insert(i + 1, (xm, sample(xm)))
    return exhausted


@STORE.memo("strip")
def _strip_sides(f: MaassForm, ctx: PrecisionContext):
    """(jet, log N, log_gamma, check): what `_strip_count` needs of f.
    check(s, l) raises InconclusiveError unless l = Lambda_split / gamma^+ at
    s = sigma_1 + it is within a relative 1/2 of the lambda-series (plus its
    certified tail): only then does l share the principal branch of arg L."""
    nu, (sp, sm) = f.nu.mpc(ctx), _shifts(f.weight, f.eps, 1)
    n_top = min(_CORNER_TERMS, f.coeff_bound)
    lam = hecke_table(f, n_top)
    coeffs = [(n, lam[n].mpc(ctx)) for n in range(1, n_top + 1)]
    tail = _tail_bound("lambda", n_top, _SIGMA_1, ctx)

    def log_gamma(s):  # log gamma^+, continuous on Re s >= 1/2 (no poles)
        return sum(mp.loggamma(w / 2) - w / 2 * mp.log(mp.pi)
                   for w in (s + sp + nu, s + sm - nu))

    def check(s, l_split):
        l_series = sum(c * mp.power(n, -s) for n, c in coeffs)
        if abs(l_split - l_series) + tail >= (abs(l_series) - tail) / 2:
            raise InconclusiveError(
                f"split Lambda is not gamma*L at s = {mp.nstr(s, 8)}: the "
                f"form's data stop short of this height (relative gap "
                f"{mp.nstr(abs(l_split / l_series - 1), 3)})")

    return _make_evaluator(f, ctx), mp.log(f.level), log_gamma, check


def _strip_count(jet, log_n, log_gamma, check, tol, t_lo, t_hi) -> int:
    """Backlund count of the zeros of Lambda = exp(log_gamma) L in
    1 - sigma_1 <= Re s <= sigma_1, t_lo <= Im s <= t_hi.  arg Lambda on
    1/2 + i t_lo -> sigma_1 + i t_lo -> sigma_1 + i t_hi -> 1/2 + i t_hi is
    Im log_gamma between the ends plus the change of arg L: tracked from
    order-0 jet samples on the horizontal sides, a principal value at the
    corners that `check` vets.  Lambda(1 - conj s) = omega N^(conj s - 1/2)
    conj Lambda(s), so the left half adds the same plus (t_hi - t_lo) log N.
    Raises InconclusiveError on |L| <= tol at an on-line end (a zero on the
    edge), a track unresolved after `_TRACK_DEPTH` bisections, or `check`."""
    half = mp.mpf(1) / 2

    def track(t):
        """(change of arg L from 1/2 + it to sigma_1 + it, arg L there)"""
        def sample(x):
            return jet(mp.mpc(x, t), 0)[0] * mp.exp(-log_gamma(mp.mpc(x, t)))
        pts = [(half, sample(half)), (_SIGMA_1, sample(_SIGMA_1))]
        if abs(pts[0][1]) <= tol:
            raise InconclusiveError(f"a zero within tolerance of 1/2 + {t}i")
        if _refine(sample, pts, (_SIGMA_1 - half) / 2 ** _TRACK_DEPTH):
            raise InconclusiveError(f"arg L unresolved on Im s = {t}")
        check(mp.mpc(_SIGMA_1, t), pts[-1][1])
        return (sum(mp.arg(vb / va) for (_, va), (_, vb) in zip(pts, pts[1:])),
                mp.arg(pts[-1][1]))

    (turn_lo, arg_lo), (turn_hi, arg_hi) = track(t_lo), track(t_hi)
    rise = mp.im(log_gamma(half + 1j * t_hi) - log_gamma(half + 1j * t_lo))
    return int(mp.nint((rise + turn_lo + arg_hi - arg_lo - turn_hi) / mp.pi
                       + (t_hi - t_lo) * log_n / (2 * mp.pi)))


def scan_zeros(f: MaassForm, t0, t1, step,
               ctx: PrecisionContext | None = None,
               re_halfwidth: float = 0.1, max_depth: int = 9) -> ScanReport:
    """Scan Im(s) in [t0, t1] near the critical line for zeros of Lambda_f.

    Sampling uses S(t) = Lambda(1/2 + it) / |gamma^+(1/2 + it)|, which
    removes the exponential decay of the completed function along the line;
    the per-zero tolerance tol_used is ctx.tol scaled back by |gamma^+| at
    the zero, so certificates track the natural local size of Lambda.

    Candidates (argument wraps, dips, and -- when the form is self-dual --
    sign changes of the rotated sample) are merged into spans of heights,
    each counted by `_strip_count` (retried once, widened by step/7).  A
    span counting one zero gets a Newton-located zero, which must lie in the
    span within `re_halfwidth` of the critical line and is re-verified
    against |Lambda| <= tol_used; simplicity additionally requires
    |Lambda'| > 10 tol_used.  A span counting more is split.  Unresolvable
    spans raise InconclusiveError (with .boxes and .partial_report) rather
    than being dropped.  The total is a strip count over the window, from
    half a step below the real axis when t0 == 0, so a central zero is
    counted exactly once.
    """
    ctx = ctx or default_context()
    t0, t1, step = float(t0), float(t1), float(step)
    if not (t1 > t0 >= 0):
        raise ValueError("need t1 > t0 >= 0")
    if not 0 < step <= (t1 - t0):
        raise ValueError("need 0 < step <= t1 - t0")
    if not 0 < re_halfwidth <= 0.4:
        raise ValueError("re_halfwidth must lie in (0, 0.4]")

    with ctx.workprec():
        jet, *sides = _strip_sides(f, ctx)
        gspec = GammaFactorSpec.from_form(f, 1)
        half = mp.mpf(1) / 2
        values = {}

        def value(s):
            """Lambda(s), once per point in this scan: the line samples and
            the strip counts' tracks share it wherever they meet, e.g. at
            the window's ends."""
            if s not in values:
                values[s] = jet(s, 0)[0]
            return values[s]

        # the strip counts ask for order 0 only
        sides = (lambda s, m: [value(s)], *sides)

        def gamma_mag(t):
            return abs(gamma_factor(gspec, mp.mpc(half, t), ctx))

        def sample(t):
            return value(mp.mpc(half, t)) / gamma_mag(t)

        n_steps = max(1, int(math.ceil((t1 - t0) / step)))
        grid = [mp.mpf(t0) + (mp.mpf(t1) - mp.mpf(t0)) * i / n_steps
                for i in range(n_steps + 1)]
        pts = [(t, sample(t)) for t in grid]

        # adaptive refinement: argument increment below pi/2 per interval
        exhausted = _refine(sample, pts, (t1 - t0) / n_steps / 2 ** max_depth)

        scale_ref = max(abs(v) for _, v in pts)

        # self-dual forms admit a unimodular rotation making S(t) real;
        # detect it from the largest sample and use real sign changes
        rotation = None
        if _is_self_dual(f):
            _, v_ref = max(pts, key=lambda p: abs(p[1]))
            u = mp.conj(v_ref) / abs(v_ref)
            if all(abs(mp.im(u * v)) <= 1e-6 * scale_ref for _, v in pts):
                rotation = u

        flagged = set()
        for (ta, va), (tb, vb) in zip(pts, pts[1:]):
            if rotation is not None and \
                    mp.re(rotation * va) * mp.re(rotation * vb) < 0:
                flagged.add(float(ta))
            if min(abs(va), abs(vb)) < 1e-5 * scale_ref:
                flagged.add(float(ta))
        flagged.update(float(ta) for ta in exhausted)

        uppers = {float(ta): float(tb)
                  for (ta, _), (tb, _) in zip(pts, pts[1:])}
        flagged = sorted(flagged & set(uppers))

        pad = step / 2
        bottom = t0 if t0 > 0 else -pad
        spans = []
        for ta in flagged:
            lo, hi = max(ta - pad, bottom), min(uppers[ta] + pad, t1)
            if spans and lo <= spans[-1][1]:
                spans[-1] = (spans[-1][0], hi)
            else:
                spans.append((lo, hi))

        abs_at = {float(t): abs(v) for t, v in pts}
        records = []
        trouble = []

        def certify_single(lo, hi):
            center = mp.mpc(half, (mp.mpf(lo) + mp.mpf(hi)) / 2)
            tol_used = float(ctx.tol * gamma_mag(mp.im(center)))
            s = center
            v, d = jet(s, 1)
            for _ in range(80):
                if abs(v) <= tol_used * 1e-6 or d == 0:
                    break
                s_next = s - v / d
                if abs(s_next - center) > 2 * (hi - lo) + 1:
                    break
                s = s_next
                v, d = jet(s, 1)
            final = abs(v)
            lpa = float(abs(d))
            in_span = lo <= s.imag <= hi and abs(s.real - half) <= re_halfwidth
            if final > tol_used or lpa <= 10 * tol_used or not in_span:
                trouble.append(("certificate failed", lo, hi))
                return
            records.append(ZeroRecord(
                rho=_param_from_mpc(s), winding=1, lambda_prime_abs=lpa,
                box=(_param_from_mpc(center),
                     (float(re_halfwidth), (hi - lo) / 2)),
                tol_used=tol_used))

        def strip(lo, hi):
            return _strip_count(*sides, ctx.tol, mp.mpf(lo), mp.mpf(hi))

        def resolve(lo, hi, depth=0):
            try:
                try:
                    count = strip(lo, hi)
                except InconclusiveError:
                    count = strip(lo - step / 7, hi + step / 7)
            except InconclusiveError as exc:
                trouble.append((f"strip count failed: {exc}", lo, hi))
                return
            if count == 0:
                pass
            elif count == 1:
                certify_single(lo, hi)
            elif depth >= 6:
                trouble.append((f"cannot isolate {count} zeros", lo, hi))
            else:
                inside = [t for t in abs_at if lo < t < hi]
                seam = max(inside, key=abs_at.__getitem__) if inside \
                    else (lo + hi) / 2
                if not lo < seam < hi:
                    seam = (lo + hi) / 2
                resolve(lo, seam, depth + 1)
                resolve(seam, hi, depth + 1)

        for lo, hi in spans:
            resolve(lo, hi)

        try:
            total = strip(bottom, t1)
        except InconclusiveError as exc:
            total = None
            trouble.append((f"strip count failed: {exc}", bottom, t1))
        records.sort(key=lambda z: z.rho.im)
        report = ScanReport((t0, t1), tuple(records),
                            -1 if total is None else total)

        certified = sum(z.winding for z in records)
        if trouble or total is None or certified != total:
            exc = InconclusiveError(
                f"scan of [{t0}, {t1}] not fully certified: spans account "
                f"for {certified} zeros, the strip count is "
                f"{'unresolved' if total is None else total}; "
                f"unresolved spans: {trouble}")
            exc.boxes = tuple(trouble)
            exc.partial_report = report
            raise exc
        return report


# ---------------------------------------------------------------------------
# residue of the completed D-avatar at a simple zero
# ---------------------------------------------------------------------------

def _delta_contour(jet, rho, r, points):
    """(1/2 pi i) of the contour integral of Lambda (log Lambda)'' around
    |s - rho| = r, by the periodic trapezoid rule.  `jet(s, 2)` supplies
    the function and its first two derivatives."""
    total = mp.mpc(0)
    for j in range(points):
        w = mp.exp(mp.mpc(0, 2) * mp.pi * j / points)
        s = rho + r * w
        v, d1, d2 = jet(s, 2)
        total += (d2 - d1 ** 2 / v) * w
    return total * r / points


def delta_residue_check(f: MaassForm, rho: ZeroRecord,
                        ctx: PrecisionContext | None = None,
                        points: int = 64) -> float:
    """| contour residue of Lambda (log Lambda)'' at rho  +  Lambda'(rho) |.

    At a simple zero the integrand has a simple pole with residue
    -Lambda'(rho), so the return value vanishes up to quadrature error.  The
    contour radius r is half the record's smaller box radius; IsolationError
    is raised when the doubled radius is not free of other zeros.  Isolation
    is certified by a strip count of 1 over the heights Im rho +- 2r, which
    holds every zero of Lambda at those heights.
    """
    ctx = ctx or default_context()
    if points < 8:
        raise ValueError("need at least 8 contour points")
    with ctx.workprec():
        jet = _make_evaluator(f, ctx)
        center = rho.rho.mpc(ctx)
        r = mp.mpf(min(rho.box[1])) / 2
        if r <= 0:
            raise ValueError("degenerate isolation box")
        try:
            nearby = _strip_count(*_strip_sides(f, ctx), ctx.tol,
                                  center.imag - 2 * r, center.imag + 2 * r)
        except InconclusiveError as exc:
            raise IsolationError(f"contour not isolating: {exc}") from exc
        if nearby != 1:
            raise IsolationError(
                f"contour not isolating: {nearby} zeros within radius "
                f"{float(2 * r):.4g} of the zero")
        residue = _delta_contour(jet, center, r, points)
        return float(abs(residue + jet(center, 1)[1]))


# ---------------------------------------------------------------------------
# dual-side Taylor residual
# ---------------------------------------------------------------------------

_CONTOUR_SIGMA = 3        # vertical line, shifted right of the classical
_CONTOUR_STEP = 0.125     # Re=2 (exact by Cauchy) to shrink the series
_CONTOUR_REACH = 40       # truncation floor by ~four orders of magnitude


@STORE.memo("c")
def _c_table(f: MaassForm, ctx: PrecisionContext):
    return c_coeffs(f, f.coeff_bound, ctx)


@STORE.memo("c-dual-64", by_bits=False)
def _c_dual_floats(f: MaassForm, ctx: PrecisionContext) -> np.ndarray:
    """Dual-form D-series coefficients (conjugates of the form's own) as a
    1-indexed complex128 array, one for every precision."""
    table = _c_table(f, ctx)
    out = np.zeros(table.bound + 1, dtype=np.complex128)
    for n, v in table.values.items():
        out[n] = complex(v).conjugate()
    return out


@STORE.memo("big-f")
def _big_f(f: MaassForm, z, ctx: PrecisionContext):
    """F(z): the Fourier series with the form's Whittaker profiles but the
    D-series coefficients c(n) in place of lambda(n).  Cached under
    ("big-f", form digest, work_bits, z): the T = 1, 2, 3 residuals at one
    (alpha, y) share one evaluation."""
    table = _c_table(f, ctx)
    x, y = mp.re(z), mp.im(z)
    n_cut = int(_efolds() / (2 * mp.pi * y)) + 1
    if n_cut > table.bound:
        raise ConvergenceError(
            f"reflected series needs {n_cut} terms at height "
            f"{mp.nstr(y, 6)}; the table stops at {table.bound}")
    nu = f.nu.mpc(ctx)
    total = mp.mpc(0)
    for n in range(1, n_cut + 1):
        c_n = table.values[n]
        if c_n == 0:
            continue
        vp = _v_params(f.weight, f.eps, nu, 1, n * y, ctx)
        vm = _v_params(f.weight, f.eps, nu, -1, n * y, ctx)
        ang = 2 * mp.pi * n * x
        total += c_n / mp.sqrt(n) * (vp * mp.cos(ang)
                                     + mp.mpc(0, 1) * vm * mp.sin(ang))
    return total


def _contour_taus(step, reach):
    """Node heights tau_j = j * step, |tau_j| <= reach, at working precision."""
    h = mp.mpf(step)
    n_nodes = int(reach / step)
    return [j * h for j in range(-n_nodes, n_nodes + 1)]


@STORE.memo("contour-nodes")
def _contour_nodes(f: MaassForm, a: int, t: int, sigma, step, reach,
                   ctx: PrecisionContext):
    """P_f(s; a+t, t) gamma_dual^((-1)^a)(s+t) as mpc at the nodes
    s = sigma + i tau_j, None where P = 0 (the node adds nothing).  These
    depend on neither alpha nor y, so every twist and height reuses them."""
    nu = f.nu.mpc(ctx)
    dual_spec = GammaFactorSpec.from_form(dual_form(f), -1 if a % 2 else 1)
    row = []
    for tau in _contour_taus(step, reach):
        s = mp.mpc(sigma, tau)
        p_val = _p_poly(f, s, (a + t) % 2, t, nu)
        row.append(None if p_val == 0
                   else p_val * gamma_factor(dual_spec, s + t, ctx))
    return row


@STORE.memo("contour-d", by_bits=False)
def _contour_d(f: MaassForm, beta: Fraction, t: int, sigma, step, reach,
               ctx: PrecisionContext) -> np.ndarray:
    """D_dual(s+t, beta, cos^(a)) at the nodes s = sigma + i tau_j, in
    float64: row a of a (2, nodes) complex128 array.  One exponential
    exp(-i tau_j log n) per node serves both rows."""
    c_dual = _c_dual_floats(f, ctx)
    n_arr = np.arange(1, c_dual.size)
    angles = (2 * np.pi / beta.denominator) * \
        ((n_arr * beta.numerator) % beta.denominator)
    n_pow = n_arr.astype(np.float64) ** float(-(sigma + t))
    rows = [c_dual[1:] * trig * n_pow
            for trig in (np.cos(angles), -np.sin(angles))]
    log_n = np.log(n_arr)
    taus = _contour_taus(step, reach)
    out = np.empty((2, len(taus)), dtype=np.complex128)
    for j, tau in enumerate(taus):
        node = np.exp(-1j * float(tau) * log_n)
        for a, u in enumerate(rows):
            out[a, j] = np.dot(u, node)
    return out


@STORE.memo("contour")
def _taylor_contour(f: MaassForm, a: int, t: int, beta: Fraction, x_ratio,
                    ctx: PrecisionContext):
    """(1/2 pi i) int P_f(s; a+t, t) gamma_dual^((-1)^a)(s+t)
    D_dual(s+t, beta, cos^(a)) x_ratio^(1/2-s) ds over a vertical line in
    the absolute-convergence region (trapezoid; exponentially accurate in
    the step, truncated where the gamma decay is ~1e-27).

    Cached under ("contour", form digest, work_bits, a, t, beta, x_ratio).
    It reads two node tables, both keyed on the line's placement (sigma,
    step, reach): P gamma under ("contour-nodes", digest, work_bits, a, t,
    ...) and the D values under ("contour-d", digest, None, beta, t, ...),
    so only the factor x_ratio^(1/2-s) is computed here, node by node."""
    place = (_CONTOUR_SIGMA, _CONTOUR_STEP, _CONTOUR_REACH)
    pg = _contour_nodes(f, a, t, *place, ctx)
    d = _contour_d(f, beta, t, *place, ctx)[a]
    log_x = mp.log(x_ratio)

    total = mp.mpc(0)
    for j, tau in enumerate(_contour_taus(_CONTOUR_STEP, _CONTOUR_REACH)):
        if pg[j] is None:
            continue
        s = mp.mpc(_CONTOUR_SIGMA, tau)
        total += pg[j] * mp.mpc(complex(d[j])) \
            * mp.exp((mp.mpf(1) / 2 - s) * log_x)
    return total * mp.mpf(_CONTOUR_STEP) / (2 * mp.pi)


def taylor_residual(f: MaassForm, alpha, y, T: int,
                    ctx: PrecisionContext | None = None) -> float:
    """Residual of the T-term dual-side expansion at z = alpha + iy.

    Compares (i|z|/z)^k Fdual(-1/(Nz)) -- where F is the c-weighted Fourier
    series and Fdual(w) = conj(F(-conj(w))) -- against

        (i sgn a)^k sum_{t<T} ((2 pi i N a)^t / t!) sum_{b in {0,1}}
            (i^-b / 2 pi i) int P_f(s; b+t, t)
            Delta_dual(s+t, -1/(N a), cos^(b)) (y / (N a^2))^(1/2-s) ds.

    The residual contains the expansion's own truncation error (order
    y^(T-1) in the height) plus the D-series truncation floor left by the
    finite coefficient table; tables shorter than 2000 are rejected.
    """
    alpha = Fraction(alpha)
    if alpha == 0:
        raise ValueError("alpha must be a non-zero rational")
    if not isinstance(T, int) or T < 1:
        raise ValueError("T must be a positive integer")
    if f.coeff_bound < 2000:
        raise ConvergenceError(
            f"coefficient table to {f.coeff_bound} leaves too large a "
            f"twisted-series truncation floor")
    ctx = ctx or default_context()
    with ctx.workprec():
        y = to_real(y, ctx)
        alpha_mp = mp.mpf(alpha.numerator) / alpha.denominator
        if not 0 < y <= abs(alpha_mp) / 2:
            raise ValueError("need 0 < y <= |alpha|/2")

        z = mp.mpc(alpha_mp, y)
        w = -1 / (f.level * z)
        phase = (mp.mpc(0, 1) * abs(z) / z) ** f.weight
        lhs = phase * mp.conj(_big_f(f, -mp.conj(w), ctx))

        beta = Fraction(-1, f.level) / alpha
        x_ratio = y / (f.level * alpha_mp ** 2)
        rhs = mp.mpc(0)
        for t in range(T):
            pref = (mp.mpc(0, 2 * mp.pi) * f.level * alpha_mp) ** t \
                / mp.factorial(t)
            inner = mp.mpc(0)
            for a in (0, 1):
                i_pow = mp.mpc(1) if a == 0 else mp.mpc(0, -1)
                inner += i_pow * _taylor_contour(f, a, t, beta, x_ratio, ctx)
            rhs += pref * inner
        rhs *= (mp.mpc(0, 1) * (1 if alpha > 0 else -1)) ** f.weight
        return float(abs(lhs - rhs))
