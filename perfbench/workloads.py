"""The four workloads: seeded inputs, set-up, and one checked op each.

Every workload is a closed loop of one client.  Its inputs come in a fixed
cycle of strata (fixture parity, zero / zero-free window, twist modulus);
the seed draws the values inside each stratum.  The runner stops only at a
cycle boundary, so every run has the same mix of op kinds and two seeds
differ in values, not in the kind of work.

An op is the library call one `ltwist` command makes, held to that
command's pass criterion.  A check that misses raises CheckFailed; the
runner counts it, and any other exception, as a failed op.  Inputs are
plain floats and Fractions made before `ltwist` is imported.
"""

from __future__ import annotations

import json
import math
import random
import statistics
import time
from fractions import Fraction
from pathlib import Path

WORK_BITS = 128
TOL = 1e-10
REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text())

# criterion 07's per-form tolerance for the differentiated functional
# equation, and its pass lines
FEOFD_TOL = {"even": 1e-13, "odd": 1e-10}
FEOFD_THRESHOLD = 1e-5
FE_THRESHOLD = 1e-7
# scan: zeros must match the frozen ordinates to this distance
ZERO_MATCH = 1e-6
# points: skip s closer than this to a frozen zero (input property)
ZERO_CLEARANCE = 0.3


class CheckFailed(Exception):
    """An op produced a result that misses its pass criterion."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


class Env:
    """What set-up produced: the imported package, the parsed fixtures, the
    precision context the ops use and the kernel build times."""

    def __init__(self):
        import ltwist.cli  # noqa: F401  (the CLI's import cost is set-up)
        from ltwist.precision import PrecisionContext

        self.ctx = PrecisionContext(work_bits=WORK_BITS, tol=TOL)
        self.forms = {}
        self.kernel_build_s = []

    def parse_fixtures(self):
        from importlib import resources

        from ltwist.forms import parse_fixture

        for parity in ("even", "odd"):
            text = (resources.files("ltwist") / "fixtures"
                    / f"level1_{parity}.form").read_text()
            self.forms[parity] = parse_fixture(text, self.ctx).form

    def warm_kernels(self, with_duals, parities=("even", "odd")):
        """Build the split kernels by a first public Lambda evaluation each;
        the time of that call is the kernel build."""
        from ltwist.forms import dual_form
        from ltwist.zeros import lambda_complete

        for f in (self.forms[p] for p in parities):
            for g in ((f, dual_form(f)) if with_duals else (f,)):
                start = time.perf_counter()
                lambda_complete(g, Fraction(1, 2), self.ctx)
                self.kernel_build_s.append(time.perf_counter() - start)


def probe_layers(env):
    """The rows of ROADMAP item 1's baseline table, timed by direct public
    calls on the even fixture after a traced run's timed phase: bessel_k on
    each route (median of 5), the lambda and c tables to the fixture's
    bound, warm Lambda of order 0-2 (median of 3), and the split-kernel
    build (median of the run's builds; one is made here if set-up made
    none).  Every workload reports them, so none reads a constant 0."""
    from mpmath import mp

    from ltwist.series import c_coeffs, lambda_table
    from ltwist.specfun import bessel_k
    from ltwist.zeros import lambda_derivs

    f, ctx = env.forms["even"], env.ctx

    def timed(fn, repeat=1):
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    if not env.kernel_build_s:
        env.warm_kernels(with_duals=False, parities=("even",))
    with ctx.workprec():
        nu, s = f.nu.mpc(ctx), mp.mpc("0.7", "3")
        out = {
            "specfun.bessel_k.trap.per_call_s":
                timed(lambda: bessel_k(nu, 2 * mp.pi, ctx), 5),
            "specfun.bessel_k.asym.per_call_s":
                timed(lambda: bessel_k(nu, 120, ctx), 5),
            "series.lambda_table.per_call_s":
                timed(lambda: lambda_table(f, f.coeff_bound)),
            "series.c_coeffs.per_call_s":
                timed(lambda: c_coeffs(f, f.coeff_bound, ctx)),
        }
        for k in range(3):
            out[f"zeros.lambda_derivs.order{k}.per_call_s"] = \
                timed(lambda: lambda_derivs(f, s, k, ctx), 3)
    out["zeros.kernel_build_s"] = statistics.median(env.kernel_build_s)
    return {name: (value, "s") for name, value in out.items()}


# ---------------------------------------------------------------------------
# scan: `zeros scan` traffic
# ---------------------------------------------------------------------------

class Scan:
    """Unit-height windows on the 0.25 grid of [0, 8], step 0.25; the cycle
    is one zero-free window of the odd form, then one window of the even
    form that holds a frozen zero."""

    name = "scan"
    cycle = 2
    STEP = 0.25

    def __init__(self, seed):
        rng = random.Random(seed)
        starts = [k * 0.25 for k in range(29)]
        zero_windows = REFERENCE["zero_windows"]
        free_odd = [t for t in starts if t not in zero_windows["odd"]]
        self._cycle_pools = (("odd", free_odd), ("even", zero_windows["even"]))
        self._rng = rng

    def inputs(self):
        while True:
            for parity, pool in self._cycle_pools:
                yield parity, self._rng.choice(pool)

    def setup(self, env):
        env.warm_kernels(with_duals=False)

    def op(self, env, inp):
        from ltwist.zeros import scan_zeros

        parity, t0 = inp
        t1 = t0 + 1
        report = scan_zeros(env.forms[parity], t0, t1, self.STEP, env.ctx)
        found = [float(z.rho.im) for z in report.zeros]
        expected = [t for t in REFERENCE["zeros"][parity] if t0 <= t <= t1]
        require(len(found) == len(expected)
                and all(abs(a - b) <= ZERO_MATCH
                        for a, b in zip(found, expected)),
                f"{parity} [{t0}, {t1}]: zeros {found}, frozen {expected}")
        require(sum(z.winding for z in report.zeros)
                == report.total_count_by_argument,
                f"certified count != argument count "
                f"{report.total_count_by_argument}")
        require(all(z.is_simple for z in report.zeros),
                "a certified zero is not simple")


# ---------------------------------------------------------------------------
# points: isolated Lambda work
# ---------------------------------------------------------------------------

def _far_from_zeros(parity, sigma, t):
    return all(math.hypot(sigma - 0.5, abs(t) - gamma) >= ZERO_CLEARANCE
               for gamma in REFERENCE["zeros"][parity])


class Points:
    """Seeded s with Re s in [-1, 2], |Im s| <= 10 (criterion 07's region),
    alternating the even and odd fixtures."""

    name = "points"
    cycle = 2

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def inputs(self):
        while True:
            for parity in ("even", "odd"):
                while True:
                    sigma = self._rng.uniform(-1, 2)
                    t = self._rng.uniform(-10, 10)
                    if _far_from_zeros(parity, sigma, t):
                        break
                yield parity, sigma, t

    def setup(self, env):
        env.warm_kernels(with_duals=True)

    def op(self, env, inp):
        from mpmath import mp

        from ltwist.forms import dual_form
        from ltwist.precision import PrecisionContext
        from ltwist.zeros import feofd_residual, lambda_derivs

        parity, sigma, t = inp
        f = env.forms[parity]
        fd = dual_form(f)
        ctx = env.ctx
        with ctx.workprec():
            s = mp.mpc(sigma, t)
            here = [lambda_derivs(f, s, k, ctx).mpc(ctx) for k in range(3)]
            there = [lambda_derivs(fd, 1 - s, k, ctx).mpc(ctx)
                     for k in range(3)]
            # d^k/ds^k of omega N^(1/2-s) Lambda_dual(1-s)
            omega = f.eta.mpc(ctx) * (f.eps if f.weight == 0 else 1)
            log_n = mp.log(f.level)
            phase = omega * mp.power(f.level, mp.mpf(1) / 2 - s)
            for k in range(3):
                rhs = sum(mp.binomial(k, i) * (-log_n) ** i
                          * (-1) ** (k - i) * there[k - i]
                          for i in range(k + 1)) * phase
                residual = float(abs(here[k] - rhs))
                require(residual <= FE_THRESHOLD
                        and residual <= FE_THRESHOLD * float(abs(here[k])),
                        f"order-{k} functional equation residual "
                        f"{residual:.3e} at {parity} s={mp.nstr(s, 8)}")
        fd_ctx = PrecisionContext(work_bits=WORK_BITS, tol=FEOFD_TOL[parity])
        residual = feofd_residual(f, s, fd_ctx)
        require(residual <= FEOFD_THRESHOLD,
                f"differentiated FE residual {residual:.3e}")


# ---------------------------------------------------------------------------
# taylor: `taylor` traffic
# ---------------------------------------------------------------------------

def _generic_twist(rng):
    """alpha = +-p/q with q prime, 2 <= p < q and |alpha| in [1/5, 1/2]:
    the reflected twist -q/p is never an integer."""
    while True:
        q = rng.choice((11, 13, 17, 19, 23))
        p = rng.randint(2, q - 1)
        if 5 * p >= q and 2 * p <= q:
            return Fraction(p, q) * rng.choice((1, -1))


class Taylor:
    """A criterion-12-style sweep per op: T = 1, 2, 3 at y = |alpha|/8, then
    T = 3 at y/2, alternating the even and odd fixtures."""

    name = "taylor"
    cycle = 2
    WARM_ALPHA = Fraction(1, 2)

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def inputs(self):
        while True:
            for parity in ("even", "odd"):
                yield parity, _generic_twist(self._rng)

    def setup(self, env):
        # The c tables are read through the contour cache; a T = 1 residual
        # at an alpha no op uses builds them.
        from ltwist.zeros import taylor_residual

        for f in env.forms.values():
            taylor_residual(f, self.WARM_ALPHA, self.WARM_ALPHA / 8, 1,
                            env.ctx)

    def op(self, env, inp):
        from ltwist.cli import TAYLOR_THRESHOLD
        from ltwist.zeros import taylor_residual

        parity, alpha = inp
        f = env.forms[parity]
        y = abs(alpha) / 8
        for T, height in ((1, y), (2, y), (3, y), (3, y / 2)):
            residual = taylor_residual(f, alpha, height, T, env.ctx)
            require(residual <= TAYLOR_THRESHOLD,
                    f"taylor residual {residual:.3e} at alpha={alpha} "
                    f"T={T} y={height}")


# ---------------------------------------------------------------------------
# checks: the one-off commands
# ---------------------------------------------------------------------------

class Checks:
    """One op is a round of the one-off commands on one fixture: `form
    check`, `twist decompose`, `eval series` untwisted and twisted, and
    `rs`.  A single command costs 0.05 to 2.5 s, so the median of a stream
    of single commands would jump between command kinds from seed to seed;
    a round has a fixed composition.  The cycle alternates the fixtures and
    takes q = 3, 5, 7, 11 in turn."""

    name = "checks"
    cycle = 4

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def inputs(self):
        rng = self._rng
        while True:
            for parity, q in (("even", 3), ("odd", 5), ("even", 7),
                              ("odd", 11)):
                yield {
                    "parity": parity,
                    "z": (rng.uniform(-0.45, 0.45), rng.uniform(0.3, 1.3)),
                    "q": q,
                    # the certified tails meet the command's budget from
                    # Re s ~ 2.3 (twist, tol 1), ~ 3.8 (lambda table) and
                    # ~ 4.5 (c table, tol 1e-10)
                    "s_twist": (rng.uniform(2.5, 4), rng.uniform(-5, 5)),
                    "s_plain": (rng.uniform(4, 5), rng.uniform(-5, 5)),
                    "s_alpha": (rng.uniform(5, 6), rng.uniform(-5, 5)),
                    "alpha": _generic_twist(rng),
                    "j": rng.randint(0, 1),
                    "x": rng.randint(5000, 10000),
                }

    def setup(self, env):
        pass  # the commands read no cache beyond the parsed fixtures

    def op(self, env, inp):
        from mpmath import mp

        from ltwist.analytic import eval_form, modularity_residual
        from ltwist.cli import FORM_CHECK_THRESHOLD, RS_WINDOW, TWIST_THRESHOLD
        from ltwist.precision import PrecisionContext
        from ltwist.series import (TwistSpec, c_coeffs, eval_series,
                                   lambda_table, rs_average,
                                   twist_decomposition)

        f = env.forms[inp["parity"]]
        ctx = env.ctx
        with ctx.workprec():
            z = mp.mpc(*inp["z"])
            scale = float(abs(eval_form(f, z, ctx)))
            relative = float(modularity_residual(f, z, ctx)) / scale
            require(relative <= FORM_CHECK_THRESHOLD,
                    f"form check relative residual {relative:.3e}")

            free = PrecisionContext(work_bits=WORK_BITS, tol=1.0)
            residual = float(twist_decomposition(f, inp["q"],
                                                 mp.mpc(*inp["s_twist"]),
                                                 free))
            require(residual <= TWIST_THRESHOLD,
                    f"twist decompose q={inp['q']} residual {residual:.3e}")

            plain = eval_series(lambda_table(f, f.coeff_bound),
                                mp.mpc(*inp["s_plain"]), None, ctx)
            twisted = eval_series(c_coeffs(f, f.coeff_bound, ctx),
                                  mp.mpc(*inp["s_alpha"]),
                                  TwistSpec(inp["alpha"], inp["j"], "D"), ctx)
            for value in (plain, twisted):
                require(value.tail_bound <= ctx.tol
                        and mp.isfinite(value.value),
                        f"eval series tail {value.tail_bound}")

            report = rs_average(f, inp["x"], ctx)
            require(abs(float(report.average) - 1) <= RS_WINDOW,
                    f"rs average {float(report.average)}")


WORKLOADS = {w.name: w for w in (Scan, Points, Taylor, Checks)}
