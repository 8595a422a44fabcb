"""Coefficient tables, certified truncated evaluation, twist identities."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from ltwist.errors import (DegenerateError, MissingPrimeError, TailError)
from ltwist.forms import parse_form
from ltwist.precision import STORE, ComplexParam, PrecisionContext
from ltwist.series import (CoeffTable, TwistSpec, _tail_bound, a_table,
                           c_coeffs, c_exact_parts, eval_char_series,
                           eval_series, lambda_table, principal_twist,
                           rs_average, trig_factor, twist_decomposition,
                           vandermonde_coeffs)
from ltwist.dirichlet import characters
from ltwist.forms import hecke_coeff, prime_power_a

ZERO = ComplexParam(Fraction(0), Fraction(0))
ONE = ComplexParam(Fraction(1), Fraction(0))

PRIMES_1K = [p for p in range(2, 1001) if all(p % d for d in range(2, p))]


def synthetic_form(ctx, coeffs=None, **overrides):
    fields = {"N": "1", "k": "0", "eps": "+1", "eta": "1 0",
              "nu": "0 9.533695", "xi": "trivial", "prec": "1e-9",
              "provenance": "synthetic series tests"}
    fields.update(overrides)
    if coeffs is None:
        coeffs = "\n".join(f"{p} {'-' if i % 3 == 1 else ''}0.{(37 * i) % 100:02d}"
                           for i, p in enumerate(PRIMES_1K))
    body = "\n".join(f"{k} = {v}" for k, v in fields.items())
    return parse_form(f"FORM v1\n{body}\ncoeffs\n{coeffs}\nend\n", ctx)


@pytest.fixture(scope="module")
def form(ctx):
    return synthetic_form(ctx)


# ---------------------------------------------------------------------------
# Exact formal oracle: D restricted to one Euler factor, as a power series
# in t = p^(-s) with coefficients in units of (log p)^2.  Computed from
# D = L'' - (L')^2 / L by series arithmetic, independent of the divisor
# convolution used in the implementation.

def _series_mul(A, B, depth):
    out = [ZERO] * (depth + 1)
    for i, a in enumerate(A[:depth + 1]):
        for j, b in enumerate(B[:depth + 1 - i]):
            out[i + j] = out[i + j] + a * b
    return out


def _series_inv(A, depth):
    assert A[0] == ONE
    inv = [ONE] + [ZERO] * depth
    for n in range(1, depth + 1):
        acc = ZERO
        for j in range(1, n + 1):
            if j < len(A):
                acc = acc + A[j] * inv[n - j]
        inv[n] = ZERO - acc
    return inv


def formal_d_coeffs(lam, xi, depth):
    """Coefficients of D_p/(log p)^2 in t = p^(-s), exact."""
    lams = [ONE, lam]
    for m in range(2, depth + 1):
        lams.append(lam * lams[-1] - xi * lams[-2])
    second = [lams[m] * (m * m) for m in range(depth + 1)]   # L''/(log p)^2
    first = [ZERO - lams[m] * m for m in range(depth + 1)]   # L'/log p
    sq = _series_mul(first, first, depth)
    corr = _series_mul(sq, _series_inv(lams, depth), depth)
    return [second[m] - corr[m] for m in range(depth + 1)]


class TestCoeffTables:
    def test_twistspec_validation(self):
        with pytest.raises(ValueError):
            TwistSpec(Fraction(0))
        with pytest.raises(ValueError):
            TwistSpec(Fraction(1, 3), -1)
        with pytest.raises(ValueError):
            TwistSpec(Fraction(1, 3), 0, "M")
        assert TwistSpec(Fraction(2, 4)).alpha == Fraction(1, 2)

    def test_table_invariants(self):
        with pytest.raises(ValueError):
            CoeffTable("lambda", {1: ZERO}, 1)
        with pytest.raises(ValueError):
            CoeffTable("c", {1: ONE}, 1)
        with pytest.raises(ValueError):
            CoeffTable("b", {1: ONE}, 1)

    def test_lambda_table_matches_hecke(self, form):
        t = lambda_table(form, 60)
        assert t.values[1] == ONE
        for n in (2, 12, 36, 59):
            assert t.values[n] == hecke_coeff(form, n)

    def test_a_table_supported_on_prime_powers(self, form):
        t = a_table(form, 64)
        assert t.values[1] == ZERO
        assert t.values[6] == ZERO
        assert t.values[12] == ZERO
        assert t.values[8] == prime_power_a(form, 2, 3)
        assert t.values[49] == prime_power_a(form, 7, 2)

    def test_c_at_one_is_zero(self, form, ctx):
        assert c_exact_parts(form, 1) == {}
        table = c_coeffs(form, 10, ctx)
        assert table.values[1] == 0

    def test_c_at_prime(self, form, ctx):
        # c(p) = lambda(p) (log p)^2
        table = c_coeffs(form, 10, ctx)
        with ctx.workprec():
            for p in (2, 3, 5, 7):
                want = form.lam(p).mpc(ctx) * mp.log(p) ** 2
                assert abs(table.values[p] - want) < mp.mpf(2) ** -100

    def test_c_at_prime_square(self, form, ctx):
        # c(p^2) = [(lambda^2 - 2) * 2 + lambda^2] (log p)^2, trivial xi
        table = c_coeffs(form, 9, ctx)
        with ctx.workprec():
            for p in (2, 3):
                lam = form.lam(p).mpc(ctx)
                want = ((lam * lam - 2) * 2 + lam * lam) * mp.log(p) ** 2
                assert abs(table.values[p * p] - want) < mp.mpf(2) ** -100

    def test_formal_oracle_prime_powers(self, form):
        # exact agreement with D = L'' - (L')^2/L over one Euler factor
        for p in [q for q in PRIMES_1K if q <= 50]:
            oracle = formal_d_coeffs(form.lam(p), form.xi.value(p), 6)
            for m in range(1, 7):
                assert c_exact_parts(form, p ** m) == {p: oracle[m]}

    def test_formal_oracle_nontrivial_xi(self, ctx):
        f = synthetic_form(ctx, N="5", xi="values: 1,0 0,1 0,-1 -1,0",
                           coeffs="2 0.375 -0.25\n3 -1.2\n7 0.5")
        for p in (2, 3):
            oracle = formal_d_coeffs(f.lam(p), f.xi.value(p), 6)
            for m in range(1, 7):
                assert c_exact_parts(f, p ** m) == {p: oracle[m]}

    def test_exact_parts_assemble_composites(self, form, ctx):
        table = c_coeffs(form, 360, ctx)
        with ctx.workprec():
            for n in (12, 90, 360):
                parts = c_exact_parts(form, n)
                want = mp.fsum(v.mpc(ctx) * mp.log(p) ** 2
                               for p, v in parts.items())
                assert abs(table.values[n] - want) < mp.mpf(2) ** -100


class TestEvalSeries:
    def test_halfplane_preconditions(self, form, ctx):
        lt = lambda_table(form, 50)
        with pytest.raises(ValueError):
            eval_series(lt, mp.mpf("1.55"), None, ctx)   # needs > 3/2 + 7/64
        ct = c_coeffs(form, 50, ctx)
        with pytest.raises(ValueError):
            eval_series(ct, mp.mpf("1.5"), None, ctx)

    def test_tail_error_when_tolerance_tight(self, form, ctx):
        ct = c_coeffs(form, 200, ctx)
        with pytest.raises(TailError):
            eval_series(ct, mp.mpf(3), None, ctx)  # tol 1e-10 unreachable here

    def test_truncated_l_value(self, form):
        # tail certificate: doubling the cutoff moves the value by less
        # than the reported bound
        loose = PrecisionContext(128, tol=1e-2)
        v1 = eval_series(lambda_table(form, 300), mp.mpf(3), None, loose)
        v2 = eval_series(lambda_table(form, 600), mp.mpf(3), None, loose)
        assert abs(v1.value - v2.value) <= v1.tail_bound
        assert v1.tail_bound < 1e-3

    def test_doubling_random_panel(self, form, ctx):
        # 20 seeded (s, twist) combinations, lambda and c kinds
        rng = random.Random(7)
        free = PrecisionContext(128, tol=1.0)
        lt1, lt2 = lambda_table(form, 250), lambda_table(form, 500)
        ct1 = c_coeffs(form, 250, ctx)
        ct2 = c_coeffs(form, 500, ctx)
        for trial in range(20):
            kind = rng.choice(("L", "D"))
            sigma = rng.uniform(3.7, 5.0) if kind == "L" else rng.uniform(2.7, 5.0)
            s = mp.mpc(sigma, rng.uniform(-4, 4))
            twist = TwistSpec(Fraction(rng.choice([1, -1, 2, 3]),
                                       rng.randrange(4, 10)),
                              rng.randrange(0, 6), kind)
            t1, t2 = (lt1, lt2) if kind == "L" else (ct1, ct2)
            v1 = eval_series(t1, s, twist, free)
            v2 = eval_series(t2, s, twist, free)
            assert abs(v1.value - v2.value) <= v1.tail_bound, trial

    def test_trig_factor_periodicity(self):
        with mp.workprec(150):
            for j in range(8):
                for x in (mp.mpf("0.3"), mp.mpf(2), mp.mpf("-1.7")):
                    assert trig_factor(j, x) == trig_factor(j + 4, x)
            assert trig_factor(1, mp.mpf(1)) == -mp.sin(1)
            assert trig_factor(2, mp.mpf(1)) == -mp.cos(1)
            assert trig_factor(3, mp.mpf(1)) == mp.sin(1)

    def test_twist_kind_must_match_table(self, form, ctx):
        lt = lambda_table(form, 50)
        with pytest.raises(ValueError):
            eval_series(lt, mp.mpf(4), TwistSpec(Fraction(1, 5), 0, "D"), ctx)

    def test_char_series_principal_drops_multiples(self, form, ctx):
        # chi_0-twist equals the plain sum with q | n terms removed
        q = 5
        lt = lambda_table(form, 200)
        chi0 = characters(q)[0]
        loose = PrecisionContext(128, tol=1e-2)
        with loose.workprec():
            s = mp.mpf(4)
            got = eval_char_series(lt, s, chi0, loose).value
            want = mp.fsum(lt.values[n].mpc(loose) * mp.power(n, -s)
                           for n in range(1, 201) if n % q)
            assert abs(got - want) < mp.mpf(2) ** -110


class TestPreparedSweep:
    """The one sweep behind eval_series, eval_char_series and
    twist_decomposition against the per-term loop it replaced: mp.power and
    the trig factor at every n, and the tail's partial sum over divisor-count
    sieves with mp.log(n) per term."""

    FREE = PrecisionContext(128, tol=1.0)
    S_PLAIN = mp.mpc("4.5", "1.25")
    S_TWIST = mp.mpc("5.5", "-2")
    S_CHAR = mp.mpc("3.5", "0.75")
    ALPHAS = (Fraction(3, 7), Fraction(-8, 19), Fraction(5, 23))

    @staticmethod
    def reference_tail(kind, X, sigma):
        u = sigma - mp.mpf(7) / 64
        d = [0] * (X + 1)
        for i in range(1, X + 1):
            for j in range(i, X + 1, i):
                d[j] += 1
        if kind == "lambda":
            full, scale, weights = mp.zeta(u) ** 2, 1, d
        elif kind == "a":
            full, scale, weights = mp.zeta(u), 2, [1] * (X + 1)
        else:
            d3 = [0] * (X + 1)
            for i in range(1, X + 1):
                for j in range(i, X + 1, i):
                    d3[j] += d[i]
            z, z1, z2 = (mp.zeta(u), mp.zeta(u, derivative=1),
                         mp.zeta(u, derivative=2))
            full, scale = 3 * z ** 2 * z2 + 6 * z * z1 ** 2, 2
            weights = [0, 0] + [d3[n] * mp.log(n) ** 2
                                for n in range(2, X + 1)]
        partial = mp.fsum(weights[n] * mp.power(n, -u)
                          for n in range(1, X + 1))
        return max(scale * (full - partial), mp.mpf(0))

    @staticmethod
    def reference_sums(table, s, weights, ctx):
        """coeff(n) mp.power(n, -s) weight(n) summed over n <= X, for each
        weight: one mp.power per n, shared by the weights."""
        totals = [mp.mpc(0)] * len(weights)
        for n in range(1, table.bound + 1):
            coeff = table.values[n]
            if isinstance(coeff, ComplexParam):
                coeff = coeff.mpc(ctx)
            if coeff == 0:
                continue
            term = coeff * mp.power(n, -s)
            for i, weight in enumerate(weights):
                w = weight(n)
                if w != 0:
                    totals[i] += term * w
        return totals

    @staticmethod
    def close(got, want, rel):
        return abs(got - want) <= rel * abs(want)

    @pytest.mark.parametrize("parity", ["even", "odd"])
    @pytest.mark.parametrize("bound", ["fixture", 400])
    def test_matches_per_term_loop(self, request, parity, bound):
        f = request.getfixturevalue(f"form_{parity}")
        X = f.coeff_bound if bound == "fixture" else bound
        ctx = self.FREE
        lt, ct = lambda_table(f, X), c_coeffs(f, X, ctx)
        chars = characters(7)
        chis = (chars[0], next(c for c in chars[1:] if c.parity == 1))
        twists = [TwistSpec(alpha, j) for alpha in self.ALPHAS
                  for j in range(4)]

        def trig(twist):
            a, b = twist.alpha.numerator, twist.alpha.denominator
            return lambda n: trig_factor(twist.deriv_order,
                                         2 * mp.pi * n * mp.mpf(a) / b)

        def char(chi):
            vals = chi.values(ctx)
            return lambda n: vals[n % chi.modulus]

        with ctx.workprec():
            got = ([(eval_series(lt, self.S_PLAIN, None, ctx), "lambda")]
                   + [(eval_series(ct, self.S_TWIST, tw, ctx), "c")
                      for tw in twists]
                   + [(eval_char_series(ct, self.S_CHAR, chi, ctx), "c")
                      for chi in chis])
            want = (self.reference_sums(lt, self.S_PLAIN, [lambda n: 1], ctx)
                    + self.reference_sums(ct, self.S_TWIST,
                                          [trig(tw) for tw in twists], ctx)
                    + self.reference_sums(ct, self.S_CHAR,
                                          [char(chi) for chi in chis], ctx))
            sigmas = [self.S_PLAIN.real] + [self.S_TWIST.real] * 12 \
                + [self.S_CHAR.real] * 2
            tails = {}
            for (value, kind), ref, sigma in zip(got, want, sigmas):
                assert value.terms == X
                assert self.close(value.value, ref, mp.mpf("1e-40"))
                if (kind, sigma) not in tails:
                    tails[kind, sigma] = self.reference_tail(kind, X, sigma)
                assert self.close(value.tail_bound, tails[kind, sigma],
                                  mp.mpf("1e-30"))
            for sigma in (self.S_PLAIN.real, mp.mpf(3)):
                assert self.close(_tail_bound("a", X, sigma, ctx),
                                  self.reference_tail("a", X, sigma),
                                  mp.mpf("1e-30"))
        for q in (5, 7):
            assert twist_decomposition(f, q, mp.mpc(3, 1), ctx, X=X) <= 1e-40

    def test_work_counts(self, form_odd, monkeypatch):
        """With the tail cached, one eval_series calls mp.power once per
        prime <= X; one twist_decomposition does the same for all of its
        sums.  Neither leaves a per-n list in STORE."""
        ctx, X = self.FREE, form_odd.coeff_bound
        lt = lambda_table(form_odd, X)
        ct = c_coeffs(form_odd, X, ctx)
        twist = TwistSpec(Fraction(3, 7), 1)
        eval_series(lt, self.S_PLAIN, None, ctx)
        eval_series(ct, self.S_TWIST, twist, ctx)
        twist_decomposition(form_odd, 7, mp.mpc(3, 1), ctx)
        before = set(STORE.entries)
        calls = []
        power = mp.power

        def counting(*args):
            calls.append(args)
            return power(*args)

        monkeypatch.setattr(mp, "power", counting)
        for table, s, tw in ((lt, self.S_PLAIN, None),
                             (ct, self.S_TWIST, twist)):
            calls.clear()
            eval_series(table, s, tw, ctx)
            assert len(calls) == 1229   # the primes <= 10006
        calls.clear()
        twist_decomposition(form_odd, 7, mp.mpc(3, 1), ctx)
        assert len(calls) == 303   # the primes <= 2000
        calls.clear()
        twist_decomposition(form_odd, 11, mp.mpc("3.25", 2), ctx)
        with ctx.workprec():
            tail = _tail_bound("c", 2000, mp.mpf("3.25"), ctx)
        assert len(calls) == 2 * 303   # a new sigma: the tail's sweep too
        new = [k for k in STORE.entries if k not in before]
        assert [k[:2] for k in new] == [("tail", "c")]
        assert STORE.entries[new[0]] is tail

    def test_tail_error_names_cutoff_and_abscissa(self, form, ctx):
        ct = c_coeffs(form, 200, ctx)
        chi = characters(5)[0]
        for call in (lambda: eval_series(ct, mp.mpf(3), None, ctx),
                     lambda: eval_char_series(ct, mp.mpf(3), chi, ctx)):
            with pytest.raises(TailError, match=r"at X=200, Re\(s\)=3\.0$"):
                call()


class TestTwistDecomposition:
    def test_residual_small(self, form):
        # truncation is common to both sides, so the residual is pure
        # rounding; certified tails are reported separately
        free = PrecisionContext(128, tol=1.0)
        for q in (3, 5, 7):
            for s in (mp.mpf("2.5"), mp.mpf(3), mp.mpc(3, 5)):
                r = twist_decomposition(form, q, s, free, X=400)
                assert r < 1e-8

    def test_rejects_bad_modulus(self, form, ctx):
        with pytest.raises(ValueError):
            twist_decomposition(form, 4, mp.mpf(3), ctx)
        f = synthetic_form(ctx, N="3", xi="values: 1,0 -1,0",
                           coeffs="2 0.5\n5 0.25")
        with pytest.raises(ValueError):
            twist_decomposition(f, 3, mp.mpf(3), ctx)  # q | N


class TestPrincipalTwist:
    def test_identity_holds_exactly(self, form, ctx):
        report, lattices = principal_twist(form, 5, 400, ctx)
        assert report.identity_holds
        assert report.failures == ()
        assert report.bound == 400

    def test_lattice_matches_arccos_oracle(self, form, ctx):
        # real lambda, trivial xi: Satake roots e^(+-i theta) with
        # theta = arccos(lambda(q)/2); poles on Re(s)=0 spaced 2 pi/log q
        q = 5
        _, lattices = principal_twist(form, q, 50, ctx)
        assert lattices is not None
        with ctx.workprec():
            theta = mp.acos(form.lam(q).mpc(ctx).real / 2)
            spacing = 2 * mp.pi / mp.log(q)
            assert all(abs(lat.sigma0) < mp.mpf(2) ** -100 for lat in lattices)
            assert all(abs(lat.spacing - spacing) < mp.mpf(2) ** -100
                       for lat in lattices)
            angles = sorted(abs(lat.theta) for lat in lattices)
            assert all(abs(a - theta) < mp.mpf("1e-30") for a in angles)

    def test_degenerate_double_root(self, ctx):
        f = synthetic_form(ctx, coeffs="2 2.0\n3 0.5")
        with pytest.raises(DegenerateError):
            principal_twist(f, 2, 4, ctx)

    def test_no_lattice_without_unimodular_xi(self, ctx):
        f = synthetic_form(ctx, N="3", xi="values: 1,0 0.5,0",
                           coeffs="2 0.5\n3 0.25\n5 0.25")
        report, lattices = principal_twist(f, 2, 6, ctx)
        assert report.identity_holds
        assert lattices is None


class TestRSAverage:
    def test_single_prime(self, form, ctx):
        rep = rs_average(form, 2, ctx)
        with ctx.workprec():
            assert abs(rep.average - abs(form.lam(2).mpc(ctx)) ** 2) \
                < mp.mpf(2) ** -110
        assert rep.prime_count == 1

    def test_report_fields(self, form, ctx):
        rep = rs_average(form, 1000, ctx)
        assert rep.prime_count == len(PRIMES_1K)
        assert rep.min_abs >= 0
        assert rep.first_small_q == 2  # synthetic |lambda| all < 2
        assert 0 < float(rep) < 4

    def test_missing_primes(self, ctx):
        f = synthetic_form(ctx, coeffs="2 0.5\n5 0.25")
        with pytest.raises(MissingPrimeError):
            rs_average(f, 10, ctx)


class TestVandermonde:
    def test_single(self):
        assert vandermonde_coeffs([7], 0) == [Fraction(1)]

    def test_two_by_two(self):
        assert vandermonde_coeffs([2, 3], 0) == [Fraction(-2), Fraction(3)]

    def test_four_random_primes_all_deltas(self):
        qs = [3, 7, 11, 29]
        for m0 in range(4):
            cs = vandermonde_coeffs(qs, m0)
            for m in range(4):
                total = sum(c * Fraction(1, q ** m) for c, q in zip(cs, qs))
                assert total == (1 if m == m0 else 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            vandermonde_coeffs([2, 2], 0)
        with pytest.raises(ValueError):
            vandermonde_coeffs([2, 3], 2)
