"""Command-line front end: verification suites, object evaluation, zero
scanning, and machine-readable reports.

Report discipline: lines beginning with "# " are commentary (context,
wall times) and are the only place timing may appear; everything else is
the deterministic body, byte-identical across identical invocations.

Exit codes: 0 all checks passed; 1 a residual exceeded its threshold
(the report is still emitted); 2 usage or parse error; 3 numerical
inconclusive (a certified bound could not be met).
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import click
from mpmath import mp

from .analytic import (digamma_xf_residual_params, feofg_residual_params,
                       mellin_pair_check, modularity_residual, reduction_check)
from .dirichlet import characters, root_number, trig_coeffs
from .errors import (ConvergenceError, DegenerateError, InconclusiveError,
                     InvariantError, IsolationError, LtwistError,
                     MissingPrimeError, NearZeroError, NotPrimeError,
                     ParseError, PoleError, PoleSampleError, PrincipalError,
                     SingularError, TailError)
from .forms import parse_fixture
from .precision import PrecisionContext
from .series import (TwistSpec, c_coeffs, eval_series, lambda_table,
                     rs_average, twist_decomposition, vandermonde_coeffs)
from .specfun import bessel_k, gamma_r, trigamma
from .zeros import (lambda_complete, report_csv, report_jsonl, scan_zeros,
                    taylor_residual)
from .analytic import eval_form

DEFAULT_BITS = 128

# Fixed pass thresholds for the reporting commands, from the contracts the
# corresponding library operations are tested against.  --tol budgets the
# *internal* certified bounds; it is not a pass line for these reports.
TWIST_THRESHOLD = 1e-8
TAYLOR_THRESHOLD = 1e-3
RS_WINDOW = 0.25
FORM_CHECK_THRESHOLD = 1e-4  # relative automorphy residual


@dataclass(frozen=True)
class SuiteResult:
    """Outcome of one verification suite."""

    suite: str
    cases_run: int
    cases_passed: int
    worst_residual: float
    worst_case: str
    wall_seconds: float

    def __post_init__(self):
        if self.cases_passed > self.cases_run:
            raise ValueError("passed cannot exceed run")


# ---------------------------------------------------------------------------
# shared option plumbing
# ---------------------------------------------------------------------------

def common_options(fn):
    fn = click.option("--threads", type=int, default=1, show_default=True,
                      help="Accepted for interface stability; kernels run "
                           "sequentially so reported values never depend on "
                           "scheduling.")(fn)
    fn = click.option("--format", "fmt",
                      type=click.Choice(["text", "csv", "jsonl"]),
                      default="text", show_default=True)(fn)
    fn = click.option("--form", "form_path", type=click.Path(), default=None,
                      help="FORM fixture file (required by form-dependent "
                           "commands).")(fn)
    fn = click.option("--tol", type=float, default=1e-10, show_default=True,
                      help="Tolerance budget for certified internal bounds.")(fn)
    fn = click.option("--prec", type=int, default=None,
                      help="Working precision in bits (default: LTWIST_PREC "
                           "or 128).")(fn)
    return fn


def build_ctx(prec, tol, threads):
    if prec is None:
        prec = int(os.environ.get("LTWIST_PREC", DEFAULT_BITS))
    if prec < 24:
        raise click.UsageError("--prec must be at least 24 bits")
    if tol <= 0:
        raise click.UsageError("--tol must be positive")
    if threads < 1:
        raise click.UsageError("--threads must be >= 1")
    return PrecisionContext(work_bits=prec, tol=tol)


def load_form(form_path, ctx):
    if form_path is None:
        raise click.UsageError("--form FILE is required for this command")
    try:
        text = Path(form_path).read_text()
    except OSError as exc:
        raise click.UsageError(f"cannot read form file: {exc}")
    return parse_fixture(text, ctx).form


# Exit code per failure class, looked up along the raised class's MRO:
# 2 = bad input, 3 = numerically inconclusive.  LtwistError itself catches
# any subclass not listed, so the taxonomy never escapes as exit 1, which
# means "residual exceeded its threshold".
EXIT_CODES = {
    ValueError: 2, ParseError: 2, InvariantError: 2, NotPrimeError: 2,
    MissingPrimeError: 2, PrincipalError: 2,
    LtwistError: 3, ConvergenceError: 3, TailError: 3, NearZeroError: 3,
    IsolationError: 3, DegenerateError: 3, PoleError: 3, SingularError: 3,
    InconclusiveError: 3, PoleSampleError: 3,
}


def guarded(body):
    """Map the library's failure taxonomy onto the exit-code contract."""
    try:
        return body()
    except (LtwistError, ValueError) as exc:
        code = next(EXIT_CODES[c] for c in type(exc).__mro__
                    if c in EXIT_CODES)
        label = "error" if code == 2 else "inconclusive"
        click.echo(f"{label}: {exc}", err=True)
        return code


def header(label, ctx, threads):
    click.echo(f"# ltwist {label} bits={ctx.work_bits} "
               f"tol={ctx.tol!r} threads={threads}")


def nstr(x):
    return mp.nstr(x, 20)


def parse_point(text):
    """--s 're,im' (or bare 're') to an mpmath complex."""
    parts = text.split(",")
    if len(parts) > 2:
        raise click.UsageError("--s expects 're,im'")
    try:
        re = mp.mpf(parts[0].strip())
        im = mp.mpf(parts[1].strip()) if len(parts) == 2 else mp.mpf(0)
    except ValueError:
        raise click.UsageError(f"cannot parse point {text!r}")
    return mp.mpc(re, im)


def parse_rational(text, what):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise click.UsageError(f"cannot parse {what} {text!r} as a rational")


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------
# A case is (name, anchor, fn(ctx) -> residual, tolerance); anchors name the
# identity being exercised so reports stay traceable.

def _specfun_cases():
    cases = []
    rng = random.Random(101)
    for i in range(8):
        s = mp.mpc(rng.uniform(0.2, 2.5), rng.uniform(-8, 8))

        def recur(ctx, s=s):
            with ctx.workprec():
                lhs = gamma_r(s + 2, ctx)
                rhs = s / (2 * mp.pi) * gamma_r(s, ctx)
                return float(abs(lhs - rhs) / abs(lhs))

        cases.append((f"gamma-shift-{i}", "gamma-shift recurrence",
                      recur, 1e-12))

    def tg1(ctx):
        with ctx.workprec():
            return float(abs(trigamma(mp.mpf(1), ctx) - mp.pi ** 2 / 6))

    def tg_half(ctx):
        with ctx.workprec():
            return float(abs(trigamma(mp.mpf(1) / 2, ctx) - mp.pi ** 2 / 2))

    cases.append(("trigamma-at-1", "trigamma closed value", tg1, 1e-12))
    cases.append(("trigamma-at-half", "trigamma closed value", tg_half, 1e-12))

    rng = random.Random(103)
    params = [(mp.mpc(0, rng.uniform(1.5, 9)), rng.uniform(0.4, 2.5))
              for _ in range(3)]
    params.append((mp.mpf(0.3), 1.2))
    for i, (nu, y) in enumerate(params):
        def kcosh(ctx, nu=nu, y=y):
            with ctx.workprec():
                # Truncate where y*cosh(t) has already pushed the integrand
                # ~40 e-folds under the working precision (the tail is
                # dominated by exp(-y cosh t); cosh(nu t) here is bounded
                # for imaginary nu and grows only like e^(0.3 t) for the
                # real sample).
                t_max = mp.acosh((mp.prec * mp.log(2) + 40) / y)
                quad = mp.quad(lambda t: mp.exp(-y * mp.cosh(t))
                               * mp.cosh(nu * t), [0, t_max])
                return float(abs(quad - bessel_k(nu, y, ctx)))

        cases.append((f"bessel-cosh-{i}", "K-Bessel cosh-integral oracle",
                      kcosh, 1e-12))
    return cases


def _dirichlet_cases():
    cases = []
    for q in (3, 5, 7):
        for kind in ("cos", "sin"):
            def expand(ctx, q=q, kind=kind):
                with ctx.workprec():
                    exp = trig_coeffs(q, kind, ctx)
                    worst = mp.mpf(0)
                    for n in range(2 * q):
                        direct = (mp.cos if kind == "cos" else mp.sin)(
                            2 * mp.pi * n / q)
                        worst = max(worst, abs(exp.evaluate(n, ctx) - direct))
                    return float(worst)

            cases.append((f"trig-expansion-{kind}-q{q}",
                          "trig-character expansion", expand, 1e-12))

        def principal(ctx, q=q):
            exp = trig_coeffs(q, "cos", ctx)
            good = (exp.principal_coeff == Fraction(-q, q - 1)
                    and exp.constant_term == Fraction(1))
            return 0.0 if good else 1.0

        cases.append((f"principal-coeff-q{q}",
                      "exact principal-character coefficient",
                      principal, 0.5))

        def unimodular(ctx, q=q):
            with ctx.workprec():
                worst = mp.mpf(0)
                for chi in characters(q):
                    if chi.is_principal:
                        continue
                    worst = max(worst,
                                abs(abs(root_number(chi, ctx)) - 1))
                return float(worst)

        cases.append((f"root-number-unimodular-q{q}",
                      "root-number unimodularity", unimodular, 1e-20))
    return cases


def _identities_cases():
    cases = []
    nu0 = mp.mpc(0.21, 1.3)
    points = ((mp.mpc(0.8, 0.6), mp.mpf(0.35)),
              (mp.mpc(1.4, -0.3), mp.mpf(0.8)),
              (mp.mpf(0.6), mp.mpf(0.15)),
              (mp.mpc(1.1, 1.2), mp.mpf(0.5)))
    for k in (0, 1):
        for eps in (1, -1):
            for i, (s, omega) in enumerate(points):
                def feofg(ctx, k=k, eps=eps, s=s, omega=omega):
                    return feofg_residual_params(k, eps, nu0, s, omega, ctx)

                cases.append((f"twist-factor-fe-k{k}-eps{eps:+d}-{i}",
                              "functional identity of the twist factor",
                              feofg, 1e-8))

    nu1 = mp.mpc(0.3, 1.1)
    for k in (0, 1):
        for eps in (1, -1):
            for i, s in enumerate((mp.mpc(0.7, 0.9), mp.mpc(1.3, -0.4))):
                def digamma(ctx, k=k, eps=eps, s=s):
                    return digamma_xf_residual_params(k, eps, nu1, s, ctx)

                cases.append((f"digamma-reflection-k{k}-eps{eps:+d}-{i}",
                              "digamma reflection identity", digamma, 1e-10))

    mellin = ((mp.mpf("1.3"), mp.mpc(0, "0.4"), 2 * mp.pi, mp.mpf("1.1"), "cos"),
              (mp.mpf("0.9"), mp.mpf("0.25"), 2 * mp.pi, mp.mpf("0.6"), "cos"),
              (mp.mpf("2.1"), mp.mpf("0.3"), 2 * mp.pi, mp.mpf("0.8"), "sin"),
              (mp.mpf("1.7"), mp.mpc(0, "0.6"), 2 * mp.pi, mp.mpf("1.4"), "sin"))
    for i, (lam, mu, a, b, kind) in enumerate(mellin):
        def pair(ctx, lam=lam, mu=mu, a=a, b=b, kind=kind):
            return mellin_pair_check(lam, mu, a, b, kind, ctx)

        cases.append((f"mellin-pair-{kind}-{i}",
                      "K-Bessel/trig Mellin pair", pair, 1e-8))
    return cases


def _reductions_cases():
    cases = []
    samples = ((Fraction(3, 7), Fraction(1, 3)),
               (Fraction(-2, 5), Fraction(2, 9)))
    for k in (0, 1):
        for a in (0, 1):
            for t in range(7):
                for j, (s, nu) in enumerate(samples):
                    def collapse(ctx, k=k, t=t, s=s, nu=nu, a=a):
                        return 0.0 if reduction_check(k, t, s, nu, a) else 1.0

                    cases.append((f"gamma-ratio-collapse-k{k}-a{a}-t{t}-{j}",
                                  "exact gamma-ratio polynomial collapse",
                                  collapse, 0.5))

    primes = (2, 3, 5, 7, 11)
    for m_count in range(2, 6):
        def delta(ctx, m_count=m_count):
            qs = primes[:m_count]
            for m0 in range(m_count):
                coeffs = vandermonde_coeffs(qs, m0)
                for m in range(m_count):
                    got = sum(c * Fraction(1, q ** m)
                              for c, q in zip(coeffs, qs))
                    if got != Fraction(int(m == m0)):
                        return 1.0
            return 0.0

        cases.append((f"prime-delta-system-M{m_count}",
                      "exact prime-power delta system", delta, 0.5))
    return cases


SUITES = {
    "specfun": _specfun_cases,
    "dirichlet": _dirichlet_cases,
    "identities": _identities_cases,
    "reductions": _reductions_cases,
}


def run_suite(name, ctx, fmt, threads):
    cases = SUITES[name]()
    start = time.perf_counter()
    rows = []
    worst = (-1.0, None)  # residual/tol ratio, index
    for i, (case, anchor, fn, tol) in enumerate(cases):
        residual = fn(ctx)
        ok = residual <= tol
        rows.append((case, anchor, residual, tol, ok))
        ratio = residual / tol
        if ratio > worst[0]:
            worst = (ratio, i)
    wall = time.perf_counter() - start

    case, anchor, fn, tol = cases[worst[1]]
    recheck_ctx = PrecisionContext(work_bits=2 * ctx.work_bits, tol=ctx.tol)
    recheck_residual = fn(recheck_ctx)
    recheck_ok = recheck_residual <= tol

    passed = sum(1 for r in rows if r[4])
    result = SuiteResult(name, len(rows), passed, rows[worst[1]][2],
                         case, wall)
    all_ok = passed == len(rows) and recheck_ok

    if fmt == "jsonl":
        for c, a, r, t, ok in rows:
            click.echo(json.dumps({"case": c, "anchor": a, "residual": r,
                                   "tol": t, "pass": ok}))
        click.echo(json.dumps({"suite": name, "cases": len(rows),
                               "passed": passed,
                               "worst_residual": result.worst_residual,
                               "worst_case": case}))
        click.echo(json.dumps({"recheck_bits": recheck_ctx.work_bits,
                               "case": case, "residual": recheck_residual,
                               "pass": recheck_ok}))
    elif fmt == "csv":
        click.echo("case,anchor,residual,tol,status")
        for c, a, r, t, ok in rows:
            click.echo(f"{c},{a},{r!r},{t!r},{'pass' if ok else 'FAIL'}")
    else:
        for c, a, r, t, ok in rows:
            click.echo(f"case={c} anchor={a} residual={r!r} tol={t!r} "
                       f"status={'pass' if ok else 'FAIL'}")
        click.echo(f"suite={name} cases={len(rows)} passed={passed} "
                   f"worst={result.worst_residual!r} worst_case={case}")
        click.echo(f"recheck bits={recheck_ctx.work_bits} case={case} "
                   f"residual={recheck_residual!r} "
                   f"status={'pass' if recheck_ok else 'FAIL'}")
        click.echo(f"result: {'PASS' if all_ok else 'FAIL'}")
    click.echo(f"# wall={wall:.2f}s")
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@click.group()
def main():
    """Additive-twist L-function toolkit."""


@main.command()
@click.argument("suite", type=click.Choice(sorted(SUITES)))
@common_options
def verify(suite, prec, tol, form_path, fmt, threads):
    """Run one of the property-verification suites."""
    ctx = build_ctx(prec, tol, threads)
    header(f"verify {suite}", ctx, threads)
    sys.exit(guarded(lambda: run_suite(suite, ctx, fmt, threads)))


@main.group()
def form():
    """FORM fixture file operations."""


@form.command("check")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@common_options
def form_check(file, prec, tol, form_path, fmt, threads):
    """Parse a FORM file and verify its automorphy numerically."""
    ctx = build_ctx(prec, tol, threads)
    header(f"form check {file}", ctx, threads)

    def body():
        fixture = parse_fixture(Path(file).read_text(), ctx)
        f = fixture.form
        click.echo(f"level={f.level} weight={f.weight} eps={f.eps:+d} "
                   f"nu={nstr(f.nu.mpc(ctx))} primes={len(f.prime_coeffs)} "
                   f"bound={f.coeff_bound} prec={float(fixture.prec)!r}")
        click.echo(f"provenance: {fixture.provenance}")
        points = (mp.mpc("0.13", "0.81"), mp.mpc("-0.27", "1.1"),
                  mp.mpc("0.4", "0.93"))
        ok = True
        for z in points:
            with ctx.workprec():
                scale = float(abs(eval_form(f, z, ctx)))
            residual = float(modularity_residual(f, z, ctx))
            # The involution check runs at the form's own value scale
            # (~1e-9 for the bundled even fixture), so the meaningful
            # criterion is relative.
            rel = residual / scale if scale else float("inf")
            good = rel <= FORM_CHECK_THRESHOLD
            ok = ok and good
            click.echo(f"automorphy z={nstr(z)} residual={residual!r} "
                       f"scale={scale!r} relative={rel!r} "
                       f"status={'pass' if good else 'FAIL'}")
        click.echo(f"result: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1

    sys.exit(guarded(body))


@main.command("eval")
@click.argument("which", type=click.Choice(["f", "lambda", "series"]))
@click.option("--s", "s_text", required=True, help="Evaluation point 're,im'.")
@click.option("--alpha", default=None, help="Additive twist p/q (series only).")
@click.option("--j", type=int, default=0, show_default=True,
              help="Trig derivative order of the twist.")
@common_options
def eval_cmd(which, s_text, alpha, j, prec, tol, form_path, fmt, threads):
    """Evaluate the form, its completed L-function, or a coefficient series."""
    ctx = build_ctx(prec, tol, threads)
    header(f"eval {which}", ctx, threads)

    def body():
        f = load_form(form_path, ctx)
        point = parse_point(s_text)
        if which == "f":
            if not mp.im(point) > 0:
                raise click.UsageError("eval f needs Im > 0 (upper half plane)")
            value = eval_form(f, point, ctx)
            click.echo(f"value={nstr(value)}")
            return 0
        if which == "lambda":
            value = lambda_complete(f, point, ctx).mpc(ctx)
            click.echo(f"value={nstr(value)}")
            return 0
        if alpha is None and j:
            raise click.UsageError("--j needs --alpha")
        if alpha is None:
            table = lambda_table(f, f.coeff_bound)
            sv = eval_series(table, point, None, ctx)
        else:
            table = c_coeffs(f, f.coeff_bound, ctx)
            twist = TwistSpec(parse_rational(alpha, "--alpha"), j, "D")
            sv = eval_series(table, point, twist, ctx)
        click.echo(f"value={nstr(sv.value)} tail<={nstr(sv.tail_bound)} "
                   f"terms={sv.terms}")
        return 0

    sys.exit(guarded(body))


@main.group()
def zeros():
    """Zero location on the critical line."""


@zeros.command("scan")
@click.option("--t0", type=float, required=True)
@click.option("--t1", type=float, required=True)
@click.option("--step", type=float, default=0.25, show_default=True)
@common_options
def zeros_scan(t0, t1, step, prec, tol, form_path, fmt, threads):
    """Certify simple zeros of the completed L-function in t in [t0, t1]."""
    ctx = build_ctx(prec, tol, threads)
    header(f"zeros scan [{t0}, {t1}] step={step}", ctx, threads)

    def emit(report):
        if fmt == "jsonl":
            click.echo(report_jsonl(report), nl=False)
        elif fmt == "csv":
            click.echo(report_csv(report))
        else:
            for z in report.zeros:
                click.echo(
                    f"zero t={float(z.rho.im)!r} "
                    f"re_offset={float(z.rho.re - Fraction(1, 2))!r} "
                    f"winding={z.winding} "
                    f"lambda_prime_abs={z.lambda_prime_abs!r} "
                    f"tol={z.tol_used!r} "
                    f"simple={'yes' if z.is_simple else 'no'}")
            click.echo(f"total_by_argument={report.total_count_by_argument}")

    def body():
        f = load_form(form_path, ctx)
        start = time.perf_counter()
        try:
            report = scan_zeros(f, t0, t1, step, ctx)
        except InconclusiveError as exc:
            emit(exc.partial_report)
            click.echo(f"# wall={time.perf_counter() - start:.2f}s")
            click.echo(f"inconclusive: {exc}", err=True)
            return 3
        emit(report)
        click.echo(f"# wall={time.perf_counter() - start:.2f}s")
        return 0

    sys.exit(guarded(body))


@main.group()
def twist():
    """Additive-twist decompositions."""


@twist.command("decompose")
@click.option("--q", type=int, required=True, help="Prime not dividing the level.")
@click.option("--s", "s_text", required=True, help="Evaluation point 're,im'.")
@common_options
def twist_decompose(q, s_text, prec, tol, form_path, fmt, threads):
    """Check the character decomposition of the 1/q additive twist."""
    ctx = build_ctx(prec, tol, threads)
    header(f"twist decompose q={q}", ctx, threads)

    def body():
        f = load_form(form_path, ctx)
        point = parse_point(s_text)
        # Truncation is common to both sides of the identity, so certified
        # tails cancel; evaluation runs tail-unchecked on purpose.
        free = PrecisionContext(work_bits=ctx.work_bits, tol=1.0)
        residual = float(twist_decomposition(f, q, point, free))
        ok = residual <= TWIST_THRESHOLD
        click.echo(f"residual={residual!r} threshold={TWIST_THRESHOLD!r} "
                   f"status={'pass' if ok else 'FAIL'}")
        return 0 if ok else 1

    sys.exit(guarded(body))


@main.command()
@click.option("--x", type=int, required=True)
@common_options
def rs(x, prec, tol, form_path, fmt, threads):
    """Average |lambda(q)|^2 over primes q <= x (tends to 1)."""
    ctx = build_ctx(prec, tol, threads)
    header(f"rs x={x}", ctx, threads)

    def body():
        f = load_form(form_path, ctx)
        report = rs_average(f, x, ctx)
        flagged = abs(float(report.average) - 1) > RS_WINDOW
        click.echo(f"average={nstr(report.average)}")
        click.echo(f"primes={report.prime_count}")
        click.echo(f"min_abs_lambda={nstr(report.min_abs)}")
        click.echo(f"first_small_prime={report.first_small_q}")
        click.echo("status=" + ("FLAGGED (|average - 1| > "
                                f"{RS_WINDOW})" if flagged else "ok"))
        return 1 if flagged else 0

    sys.exit(guarded(body))


@main.command()
@click.option("--alpha", required=True, help="Rational twist p/q.")
@click.option("--T", "t_order", type=int, required=True,
              help="Truncation order of the reflected expansion.")
@click.option("--y", "y_text", required=True,
              help="Height (decimal), 0 < y <= |alpha|/2.")
@common_options
def taylor(alpha, t_order, y_text, prec, tol, form_path, fmt, threads):
    """Residual of the truncated reflection expansion at z = alpha + iy."""
    ctx = build_ctx(prec, tol, threads)
    header(f"taylor alpha={alpha} T={t_order} y={y_text}", ctx, threads)

    def body():
        f = load_form(form_path, ctx)
        a = parse_rational(alpha, "--alpha")
        y = parse_rational(y_text, "--y")
        start = time.perf_counter()
        residual = taylor_residual(f, a, y, t_order, ctx)
        wall = time.perf_counter() - start
        ok = residual <= TAYLOR_THRESHOLD
        click.echo(f"residual={residual!r} threshold={TAYLOR_THRESHOLD!r} "
                   f"status={'pass' if ok else 'FAIL'}")
        click.echo(f"# wall={wall:.2f}s")
        return 0 if ok else 1

    sys.exit(guarded(body))


if __name__ == "__main__":
    main()
