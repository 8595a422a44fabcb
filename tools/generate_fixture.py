#!/usr/bin/env python3
"""Generate the level-1 Maass cusp fixtures in src/ltwist/fixtures/.

Method: Hejhal-style two-height collocation.  Tier 1 solves a small
self-consistency system for the first ~10 Hecke-normalized coefficients by
evaluating the candidate expansion on horocycles *below* the fundamental
domain (y0 = 0.35 and 0.22), pulling each sample point back into the
fundamental domain, and demanding that the Fourier coefficients extracted
from the pulled-back values match the expansion itself.  Tier 2 then
evaluates the (now known) truncated form on two very low horocycles
y1 = (R - 1/2)/(2*pi*nmax) and y1/1.31, where all n <= nmax coefficient
amplitudes are simultaneously well conditioned, and reads off every b_n
with a single FFT per height.

All Bessel kernels exp(pi*R/2) * K_{iR}(u) are evaluated with mpmath at 24
significant digits, either directly (tier 1, small-argument tier 2 weights)
or through a dense cubic spline (step 1.5e-3, interpolation error ~1e-13).
Horocycle sample points and their pullbacks are carried in extended
precision (long double) because the pullback map amplifies coordinate
round-off by y*/y ~ 6000 at tier-2 heights.

Everything is certified a posteriori, in the lambda(n) = sqrt(n) * b_n
normalization actually stored in the file:
  * two-height certificate: max_n sqrt(n) |b_n(y1a) - b_n(y1b)|,
  * tier-1 cross-check: tier-2 output vs. both tier-1 solves for n <= ~10,
  * Hecke battery: lambda(p)lambda(q) = lambda(pq) for every prime pair
    with pq <= nmax, plus prime-power recurrences -- an arithmetic oracle
    completely independent of the analytic pipeline (a pseudo-solution at
    a wrong spectral parameter is never multiplicative).
The written `prec` field is the max of the three (floor 1e-12); generation
aborts if it exceeds 1e-9.

The even spectral parameter is refined on the fly by golden-section search
minimizing the tier-1 two-height mismatch; the odd parameter seed is
accepted only after the same mismatch confirms it.

Runtime: ~3 min (odd) / ~6 min (even, includes refinement) on one core.

Usage:
    python3 tools/generate_fixture.py --parity odd  --out src/ltwist/fixtures/level1_odd.form
    python3 tools/generate_fixture.py --parity even --out src/ltwist/fixtures/level1_even.form
    python3 tools/generate_fixture.py --selftest
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import mpmath as mpm
import numpy as np
from scipy.interpolate import CubicSpline

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ltwist.forms import parse_fixture  # noqa: E402
from ltwist.precision import format_decimal  # noqa: E402

# Spectral parameter seeds.  The odd one is the first Laplace eigenvalue on
# PSL(2,Z)\H; the even seed is accurate to ~14 digits and is refined below.
R_ODD = "9.53369526135355755434423523592877032382125639510725198237579"
R_EVEN_SEED = "13.77975135189074"

LD = np.longdouble
SQRT3_2 = math.sqrt(3.0) / 2.0
KERNEL_CUTOFF = 5e-18


class Kernel:
    """Scaled Bessel kernel K~(u) = exp(pi*R/2) * K_{iR}(u), with cutoff."""

    def __init__(self, R, dps=24):
        self.dps = dps
        with mpm.workdps(dps):
            self.R = mpm.mpf(R)
            self.scale = mpm.e ** (mpm.pi * self.R / 2)
        self.umax = self._find_umax()
        self.spline = None
        self.lo = None

    def _direct(self, u):
        with mpm.workdps(self.dps):
            return float(mpm.re(self.scale * mpm.besselk(1j * self.R, mpm.mpf(u))))

    def _find_umax(self):
        u = float(self.R) + 3.0
        run = 0
        while run < 3:
            run = run + 1 if abs(self._direct(u)) < KERNEL_CUTOFF else 0
            u += 1.0
        return u

    def __call__(self, u):
        if u >= self.umax:
            return 0.0
        return self._direct(u)

    def build_spline(self, h=1.5e-3, lo=5.2):
        grid = np.arange(lo, self.umax + h, h)
        vals = np.array([self._direct(u) for u in grid])
        self.spline = CubicSpline(grid, vals)
        self.lo = lo

    def vec(self, args):
        """Vectorized kernel for float64 args, all >= self.lo (or cut off)."""
        out = np.zeros_like(args)
        mid = (args < self.umax) & (args >= self.lo)
        out[mid] = self.spline(args[mid])
        low = args < self.lo
        if low.any():
            out[low] = [self._direct(a) for a in args[low]]
        return out

    def weight(self, n, y):
        """W(n, y) = sqrt(n*y) * K~(2*pi*n*y), scalar and direct."""
        return math.sqrt(n * y) * self(2 * math.pi * n * y)


def pullback(x, y):
    """Map points x + iy into the PSL(2,Z) fundamental domain (longdouble)."""
    x = x.copy()
    y = y.copy()
    for _ in range(400):
        x -= np.round(x)
        r2 = x * x + y * y
        mask = r2 < 1 - 1e-17
        if not mask.any():
            break
        x[mask] = -x[mask] / r2[mask]
        y[mask] = y[mask] / r2[mask]
    else:
        raise RuntimeError("pullback did not converge")
    return x, y


def n_truncation(kern):
    """Largest n with 2*pi*n*(sqrt(3)/2) below the kernel cutoff."""
    return int(kern.umax / (2 * math.pi * SQRT3_2))


def tier1(kern, trig, Y0):
    """Solve the pullback self-consistency system at horocycle height Y0.

    Returns b[0..M] with b[0] unused, b[1] = 1; only b[n] for
    n <= n_truncation(kern) are meaningfully determined.
    """
    M = int(math.ceil(kern.umax / (2 * math.pi * Y0)))
    L = int(math.ceil((2.2 * M + 10) / 16.0)) * 16
    j = np.arange(1, L + 1, dtype=LD)
    xs = (j - LD(0.5)) / LD(L)
    xst, yst = pullback(xs, np.full(L, LD(Y0)))

    rows = np.array([trig(2 * np.pi * m * xs) for m in range(1, M + 1)],
                    dtype=LD).astype(np.float64)
    V = np.zeros((M, M))
    for n in range(1, M + 1):
        args = (2 * np.pi * n * yst).astype(np.float64)
        if args.min() >= kern.umax:
            continue
        kt = np.array([kern(a) for a in args])
        w = (np.sqrt(n * yst).astype(np.float64) * kt
             * trig(2 * np.pi * n * xst).astype(np.float64))
        V[:, n - 1] = (2.0 / L) * rows.dot(w)
    A = V - np.diag([kern.weight(m, Y0) for m in range(1, M + 1)])
    b_rest, *_ = np.linalg.lstsq(A[:, 1:], -A[:, 0], rcond=None)
    return np.concatenate(([0.0, 1.0], b_rest))


def t1_mismatch(kern, trig):
    """Max two-height tier-1 disagreement over the determined range."""
    ba = tier1(kern, trig, 0.35)
    bb = tier1(kern, trig, 0.22)
    nt = n_truncation(kern)
    return max(abs(ba[n] - bb[n]) for n in range(2, nt + 1)), ba, bb


def refine_even_R(seed, trig, halfwidth=1e-7, width_goal=1e-13):
    """Golden-section search minimizing the tier-1 two-height mismatch."""
    invphi = (math.sqrt(5.0) - 1) / 2

    def objective(R):
        return t1_mismatch(Kernel(R), trig)[0]

    a, b = seed - halfwidth, seed + halfwidth
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = objective(c), objective(d)
    while b - a > width_goal:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = objective(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = objective(d)
    return (a + b) / 2


def tier2(kern, b_small, trig, imagpart, Y1, L, nmax):
    """Extract b_n for n <= nmax from one low horocycle via FFT.

    Returns (bhat, wmag): coefficient estimates and |W(n, Y1)| conditioning.
    """
    j = np.arange(1, L + 1, dtype=LD)
    xs = (j - LD(0.5)) / LD(L)
    xst, yst = pullback(xs, np.full(L, LD(Y1)))
    f = np.zeros(L, dtype=LD)
    for n in range(1, len(b_small)):
        args = (2 * np.pi * n * yst).astype(np.float64)
        kt = kern.vec(args)
        f += (LD(b_small[n]) * np.sqrt(n * yst)
              * kt.astype(LD) * trig(2 * np.pi * n * xst))

    F = np.fft.fft(f.astype(np.float64))
    m = np.arange(0, nmax + 1)
    phased = np.exp(1j * np.pi * m / L) * np.conj(F[: nmax + 1])
    T = np.imag(phased) if imagpart else np.real(phased)

    wvals = np.ones(nmax + 1)
    args = 2 * np.pi * m[1:].astype(np.float64) * Y1
    kt = np.zeros(nmax)
    low = args < kern.lo
    kt[low] = [kern._direct(a) for a in args[low]]
    kt[~low] = kern.vec(args[~low])
    wvals[1:] = np.sqrt(m[1:] * Y1) * kt

    bhat = np.full(nmax + 1, np.nan)
    nz = wvals != 0
    bhat[nz] = (2 * T[nz] / L) / wvals[nz]
    return bhat, np.abs(wvals)


def fft_length(n):
    """Round up to a multiple of 5040 so the FFT factorization stays smooth."""
    return int(math.ceil(n / 5040.0)) * 5040


def primes_upto(n):
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, int(n ** 0.5) + 1):
        if sieve[p]:
            sieve[p * p:: p] = False
    return np.flatnonzero(sieve)


def hecke_certificate(lam, nmax):
    """Worst violation of Hecke multiplicativity over everything <= nmax."""
    ps = primes_upto(nmax)
    worst = 0.0
    for i, p in enumerate(ps):
        if p * ps[i] > nmax:
            break
        for q in ps[i:]:
            n = p * q
            if n > nmax:
                break
            want = lam[p] ** 2 - 1 if p == q else lam[p] * lam[q]
            worst = max(worst, abs(lam[n] - want))
    for p in ps[ps ** 3 <= nmax]:
        e, pk = 2, p * p
        while pk * p <= nmax:
            worst = max(worst,
                        abs(lam[p] * lam[pk] - lam[pk * p] - lam[pk // p]))
            pk *= p
            e += 1
    return worst


def generate(parity, nmax, spline_h=1.5e-3):
    """Run the full pipeline; returns (R, lam, prec, cert_report)."""
    trig = np.sin if parity == "odd" else np.cos
    imagpart = parity == "odd"

    t0 = time.time()
    if parity == "odd":
        R = float(mpm.mpf(R_ODD))
        mis, ba1, bb1 = t1_mismatch(Kernel(R), trig)
        if mis > 1e-10:
            raise RuntimeError(f"odd seed rejected: tier-1 mismatch {mis:.2e}")
    else:
        R = refine_even_R(float(R_EVEN_SEED), trig)
        mis, ba1, bb1 = t1_mismatch(Kernel(R), trig)
        if mis > 1e-10:
            raise RuntimeError(f"even refinement failed: mismatch {mis:.2e}")
        if abs(R - float(R_EVEN_SEED)) > 1e-7:
            raise RuntimeError("refined R drifted out of the seed bracket")
    print(f"[{parity}] R = {R!r}  tier-1 mismatch {mis:.2e} "
          f"({time.time() - t0:.0f}s)")

    kern = Kernel(R)
    t0 = time.time()
    kern.build_spline(h=spline_h)
    print(f"[{parity}] spline ready, umax={kern.umax:.1f} "
          f"({time.time() - t0:.0f}s)")

    nt = n_truncation(kern)
    Y1a = (R - 0.5) / (2 * math.pi * nmax)
    Y1b = Y1a / 1.31
    t0 = time.time()
    outs = []
    for Y1 in (Y1a, Y1b):
        L = fft_length(nmax + int(kern.umax / (2 * math.pi * Y1)) + 2048)
        outs.append(tier2(kern, bb1[: nt + 1], trig, imagpart, Y1, L, nmax))
    (bha, wa), (bhb, wb) = outs
    print(f"[{parity}] tier-2 done ({time.time() - t0:.0f}s)")

    pick = np.where(wa >= wb, bha, bhb)
    if abs(pick[1] - 1.0) > 1e-8:
        raise RuntimeError(f"normalization drifted: b_1 = {pick[1]!r}")

    ns = np.arange(0, nmax + 1, dtype=np.float64)
    root = np.sqrt(ns)
    both = (wa >= 1e-3) & (wb >= 1e-3)
    both[:2] = False
    cert_pair = float(np.max(root[both] * np.abs(bha - bhb)[both]))
    n_weak = int(nmax - 1 - both[2:].sum())

    cert_t1 = 0.0
    for n in range(2, nt + 1):
        cert_t1 = max(cert_t1,
                      math.sqrt(n) * abs(ba1[n] - bb1[n]),
                      math.sqrt(n) * abs(pick[n] - bb1[n]))

    lam = root * pick
    lam[1] = 1.0
    cert_hecke = hecke_certificate(lam, nmax)

    prec = max(cert_pair, cert_t1, cert_hecke, 1e-12)
    report = (f"two-height {cert_pair:.2e}, low-n cross-check {cert_t1:.2e}, "
              f"Hecke battery {cert_hecke:.2e}, "
              f"{n_weak} weakly conditioned n")
    print(f"[{parity}] certificates: {report}")
    if prec > 1e-9:
        raise RuntimeError(f"certified precision {prec:.2e} exceeds 1e-9")
    return R, lam, prec, report


def render_form(parity, R, lam, prec, nmax):
    eps = "-1" if parity == "odd" else "+1"
    nu = format_decimal(Fraction(f"{R:.17g}"))
    prov = (f"level-1 Maass cusp form, {parity} parity; two-height Hejhal "
            f"collocation (y0=0.35,0.22) plus horocycle FFT extraction at "
            f"y1=(R-1/2)/(2*pi*{nmax}) and y1/1.31, kernels at 24 digits; "
            f"spectral parameter certified by two-height mismatch; "
            f"coefficient precision = max(two-height, low-n cross-check, "
            f"Hecke multiplicativity battery); see tools/generate_fixture.py")
    lines = ["FORM v1",
             "N = 1",
             "k = 0",
             f"eps = {eps}",
             "eta = 1 0",
             f"nu = 0 {nu}",
             "xi = trivial",
             f"prec = {format_decimal(Fraction(f'{prec:.1e}'))}",
             f"provenance = {prov}",
             "coeffs"]
    for p in primes_upto(nmax):
        lines.append(f"{p} {format_decimal(Fraction(f'{lam[p]:.12f}'))}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def selftest():
    """Reduced-size end-to-end run with hard assertions (odd form, n <= 600)."""
    R, lam, prec, _ = generate("odd", 600, spline_h=3e-3)
    assert abs(lam[2] - (-1.0683335512)) < 1e-9, lam[2]
    assert abs(lam[3] - (-0.4561973545)) < 1e-9, lam[3]
    assert prec < 5e-10, prec
    print("selftest passed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parity", choices=("odd", "even"))
    ap.add_argument("--nmax", type=int, default=10000)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        selftest()
        return
    if not args.parity or not args.out:
        ap.error("--parity and --out are required unless --selftest")

    R, lam, prec, report = generate(args.parity, args.nmax)
    text = render_form(args.parity, R, lam, prec, args.nmax)
    fixture = parse_fixture(text)  # validates Kim-Sarnak, grammar, etc.
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(text)
    print(f"wrote {args.out} ({len(fixture.form.prime_coeffs)} primes, "
          f"prec {float(prec):.2e})")


if __name__ == "__main__":
    main()
