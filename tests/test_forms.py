"""FORM parsing/serialization, invariant enforcement, Hecke recurrences."""

import io
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, strategies as st

from ltwist.errors import InvariantError, MissingPrimeError, ParseError
from ltwist.forms import (FormFixture, MaassForm, Nebentypus, dual_form,
                          hecke_coeff, hecke_table, kim_sarnak_bound,
                          parse_fixture, parse_form, prime_power_a,
                          serialize_form)
from ltwist.precision import ComplexParam

PRIMES_TO_97 = [p for p in range(2, 98) if all(p % d for d in range(2, p))]

ONE = ComplexParam(Fraction(1), Fraction(0))


def minimal_text(**overrides):
    """Smallest well-formed file: N=1, k=0, eps=+1, eta=1, nu ~ 9.533695i."""
    fields = {
        "N": "1", "k": "0", "eps": "+1", "eta": "1 0", "nu": "0 9.533695",
        "xi": "trivial", "prec": "1e-9",
        "provenance": "synthetic values for parser tests",
    }
    coeffs = overrides.pop("coeffs", None)
    fields.update(overrides)
    if coeffs is None:
        coeffs = "\n".join(f"{p} 0.{p:02d}" for p in PRIMES_TO_97)
    body = "\n".join(f"{k} = {v}" for k, v in fields.items())
    return f"FORM v1\n{body}\ncoeffs\n{coeffs}\nend\n"


@pytest.fixture(scope="module")
def minimal_form(ctx):
    return parse_form(minimal_text(), ctx)


class TestParse:
    def test_minimal_file(self, ctx, minimal_form):
        f = minimal_form
        assert (f.level, f.weight, f.eps) == (1, 0, 1)
        assert f.eta == ONE
        assert f.nu == ComplexParam(Fraction(0), Fraction("9.533695"))
        assert f.xi.is_trivial
        assert f.coeff_bound >= 100
        assert len(f.prime_coeffs) == len(PRIMES_TO_97)

    def test_accepts_bytes_and_streams(self, ctx):
        text = minimal_text()
        assert parse_form(text.encode(), ctx) == parse_form(text, ctx)
        assert parse_form(io.StringIO(text), ctx) == parse_form(text, ctx)

    def test_fixture_carries_provenance_and_prec(self, ctx):
        fx = parse_fixture(minimal_text(), ctx)
        assert fx.provenance == "synthetic values for parser tests"
        assert fx.prec == Fraction(1, 10 ** 9)

    def test_missing_header(self, ctx):
        with pytest.raises(ParseError) as err:
            parse_form("N = 1\n", ctx)
        assert err.value.line_no == 1

    def test_unknown_key(self, ctx):
        with pytest.raises(ParseError) as err:
            parse_form(minimal_text().replace("prec =", "weight ="), ctx)
        assert "weight" in str(err.value)

    def test_duplicate_key(self, ctx):
        bad = minimal_text().replace("k = 0\n", "k = 0\nk = 0\n")
        with pytest.raises(ParseError) as err:
            parse_form(bad, ctx)
        assert "duplicate" in str(err.value)

    def test_missing_key(self, ctx):
        bad = minimal_text().replace("prec = 1e-9\n", "")
        with pytest.raises(ParseError) as err:
            parse_form(bad, ctx)
        assert "prec" in str(err.value)

    def test_bad_eps(self, ctx):
        with pytest.raises(ParseError):
            parse_form(minimal_text(eps="2"), ctx)
        with pytest.raises(ParseError):
            parse_form(minimal_text(eps="1"), ctx)  # grammar wants +1/-1

    def test_bad_weight(self, ctx):
        with pytest.raises(ParseError):
            parse_form(minimal_text(k="2"), ctx)

    def test_bad_decimal_has_line_number(self, ctx):
        with pytest.raises(ParseError) as err:
            parse_form(minimal_text(nu="0 nine"), ctx)
        assert err.value.line_no == 6

    def test_nonprime_coefficient_index(self, ctx):
        with pytest.raises(ParseError) as err:
            parse_form(minimal_text(coeffs="2 0.5\n4 0.25"), ctx)
        assert "4" in str(err.value)

    def test_duplicate_prime(self, ctx):
        with pytest.raises(ParseError):
            parse_form(minimal_text(coeffs="2 0.5\n2 0.25"), ctx)

    def test_missing_end(self, ctx):
        with pytest.raises(ParseError):
            parse_form(minimal_text()[:-4], ctx)

    def test_trailing_garbage(self, ctx):
        with pytest.raises(ParseError):
            parse_form(minimal_text() + "extra\n", ctx)

    def test_xi_table_wrong_count(self, ctx):
        with pytest.raises(ParseError):
            parse_form(minimal_text(N="3", xi="values: 1,0"), ctx)

    def test_xi_table(self, ctx):
        f = parse_form(minimal_text(N="3", xi="values: 1,0 -1,0"), ctx)
        assert f.xi.value(1) == ONE
        assert f.xi.value(2) == ComplexParam(Fraction(-1), Fraction(0))
        assert f.xi.value(3) == ComplexParam(Fraction(0), Fraction(0))
        assert f.xi.value(5) == f.xi.value(2)


class TestInvariants:
    def test_eta_must_be_unimodular(self, ctx):
        with pytest.raises(InvariantError) as err:
            parse_form(minimal_text(eta="0.5 0"), ctx)
        assert "eta" in str(err.value)

    def test_nu_domain_weight_zero(self, ctx):
        # purely imaginary fine; real allowed only in [0, 7/64]
        parse_form(minimal_text(nu="0.109375 0"), ctx)  # 7/64 exactly
        with pytest.raises(InvariantError):
            parse_form(minimal_text(nu="0.2 0"), ctx)
        with pytest.raises(InvariantError):
            parse_form(minimal_text(nu="0.05 1.5"), ctx)

    def test_nu_domain_weight_one(self, ctx):
        parse_form(minimal_text(k="1", nu="0 2.5"), ctx)
        with pytest.raises(InvariantError):
            parse_form(minimal_text(k="1", nu="0.05 0"), ctx)

    def test_kim_sarnak_bound_value(self, ctx):
        # 2^(7/64) + 2^(-7/64) = 2 cosh(7 ln 2 / 64) = 2.005750360...;
        # note the bound exceeds 2, so lambda(2) = 2.0 is admissible
        with ctx.workprec():
            b = kim_sarnak_bound(2, ctx)
            ref = 2 * mp.cosh(7 * mp.log(2) / 64)
            assert abs(b - ref) < mp.mpf(2) ** -120
            assert abs(b - mp.mpf("2.0057503602988125779")) < mp.mpf("1e-18")

    def test_kim_sarnak_enforcement(self, ctx):
        ok = minimal_text(coeffs="2 2.0")
        parse_form(ok, ctx)  # 2.0 < 2.00575... passes
        with pytest.raises(InvariantError) as err:
            parse_form(minimal_text(coeffs="2 2.1"), ctx)
        assert "Kim-Sarnak" in str(err.value)
        with pytest.raises(InvariantError):
            parse_form(minimal_text(coeffs="3 3.0"), ctx)

    def test_provenance_nonempty(self, ctx):
        with pytest.raises(InvariantError):
            parse_fixture(minimal_text(provenance="  "), ctx)


class TestRoundTrip:
    def test_serialize_parse_identity(self, ctx):
        fx = parse_fixture(minimal_text(), ctx)
        text = serialize_form(fx)
        assert parse_fixture(text, ctx) == fx
        assert serialize_form(parse_fixture(text, ctx)) == text

    def test_round_trip_with_xi_table_and_complex_coeffs(self, ctx):
        text = minimal_text(N="5", k="1", eps="-1", eta="0 -1",
                            nu="0 1.25",
                            xi="values: 1,0 0,1 0,-1 -1,0",
                            coeffs="2 0.125 -0.5\n3 -1.5\n7 0.2 0.2")
        fx = parse_fixture(text, ctx)
        assert parse_fixture(serialize_form(fx), ctx) == fx

    @given(st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 3),
           st.sampled_from([(1, 0), (-1, 0), (0, 1), (0, -1)]),
           st.booleans())
    def test_round_trip_random(self, num_re, num_im, scale, eta_parts, odd):
        # |lambda| <= 0.9 sqrt(2), comfortably inside the Kim-Sarnak bound
        lam = ComplexParam(Fraction(num_re, 10 ** scale),
                           Fraction(num_im, 10 ** scale))
        eta = ComplexParam(Fraction(eta_parts[0]), Fraction(eta_parts[1]))
        form = MaassForm(level=1, weight=0, eps=-1 if odd else 1, eta=eta,
                         nu=ComplexParam(Fraction(0), Fraction(7, 4)),
                         xi=Nebentypus(1), prime_coeffs=((2, lam),),
                         coeff_bound=2)
        fx = FormFixture(form, "hypothesis round-trip", Fraction(1, 10 ** 8))
        assert parse_fixture(serialize_form(fx)) == fx


class TestHecke:
    def test_normalization(self, minimal_form):
        assert hecke_coeff(minimal_form, 1) == ONE

    def test_square_with_trivial_xi(self, minimal_form):
        lam3 = minimal_form.lam(3)
        assert hecke_coeff(minimal_form, 9) == lam3 * lam3 - 1

    def test_n_twelve_hand_oracle(self, minimal_form):
        lam2, lam3 = minimal_form.lam(2), minimal_form.lam(3)
        assert hecke_coeff(minimal_form, 12) == (lam2 * lam2 - 1) * lam3

    def test_multiplicative_exhaustive(self, ctx):
        # lambda(mn) = lambda(m) lambda(n) for coprime m, n with mn <= 1000
        import math
        primes = [p for p in range(2, 1001) if all(p % d for d in range(2, p))]
        coeffs = "\n".join(
            f"{p} {'-' if i % 2 else ''}0.{(7 * i) % 100:02d}"
            for i, p in enumerate(primes))
        f = parse_form(minimal_text(coeffs=coeffs), ctx)
        table = {n: hecke_coeff(f, n) for n in range(1, 1001)}
        for m in range(2, 32):
            for n in range(2, 1000 // m + 1):
                if math.gcd(m, n) == 1:
                    assert table[m * n] == table[m] * table[n]

    def test_table_satisfies_hecke_relation(self, ctx):
        # lambda(m) lambda(n) = sum_{d | (m, n)} xi(d) lambda(mn / d^2) for
        # m, n <= 1000 not coprime, at level 5 with a quartic nebentypus:
        # every pair with mn <= 10^4 from the table alone, then 1000 seeded
        # pairs with larger mn, whose right side comes from hecke_coeff
        X = 10 ** 4
        primes = [p for p in range(2, X + 1)
                  if all(p % d for d in range(2, math.isqrt(p) + 1))]
        coeffs = "\n".join(
            f"{p} {'-' if i % 2 else ''}0.{(7 * i) % 100:02d} "
            f"{'-' if i % 3 else ''}0.{(3 * i) % 50:02d}"
            for i, p in enumerate(primes))
        f = parse_form(minimal_text(N="5", xi="values: 1,0 0,1 0,-1 -1,0",
                                    coeffs=coeffs), ctx)
        table = hecke_table(f, X)

        def rhs(m, n, lam):
            g = math.gcd(m, n)
            return sum((f.xi.value(d) * lam(m * n // (d * d))
                        for d in range(1, g + 1) if g % d == 0), start=0)

        for m in range(2, 101):
            for n in range(m, min(1000, X // m) + 1):
                if math.gcd(m, n) > 1:
                    assert table[m] * table[n] == rhs(m, n, table.__getitem__)
        rng = random.Random(15)
        checked = 0
        while checked < 1000:
            m, n = rng.randint(2, 1000), rng.randint(2, 1000)
            if math.gcd(m, n) > 1 and m * n > X:
                assert table[m] * table[n] == rhs(m, n,
                                                  lambda k: hecke_coeff(f, k))
                checked += 1

    def test_table_matches_hecke_coeff(self, minimal_form):
        table = hecke_table(minimal_form, minimal_form.coeff_bound)
        assert table[1:] == [hecke_coeff(minimal_form, n)
                             for n in range(1, minimal_form.coeff_bound + 1)]
        with pytest.raises(MissingPrimeError):
            hecke_table(minimal_form, minimal_form.coeff_bound + 1)

    def test_missing_prime(self, minimal_form):
        with pytest.raises(MissingPrimeError):
            hecke_coeff(minimal_form, 101)
        with pytest.raises(MissingPrimeError):
            prime_power_a(minimal_form, 101, 2)

    def test_nontrivial_xi_enters_recurrence(self, ctx):
        # N=3, xi the quadratic character: xi(2) = -1, so
        # lambda(4) = lambda(2)^2 - xi(2) = lambda(2)^2 + 1
        f = parse_form(minimal_text(N="3", xi="values: 1,0 -1,0",
                                    coeffs="2 0.5\n5 0.1"), ctx)
        lam2 = f.lam(2)
        assert hecke_coeff(f, 4) == lam2 * lam2 + 1
        # at p = N the Euler factor degenerates: lambda(9) = lambda(3)^2
        f2 = parse_form(minimal_text(N="3", xi="values: 1,0 -1,0",
                                     coeffs="2 0.5\n3 0.25"), ctx)
        lam3 = f2.lam(3)
        assert hecke_coeff(f2, 9) == lam3 * lam3


class TestPrimePowerA:
    def test_first_is_lambda(self, minimal_form):
        for p in (2, 3, 5):
            assert prime_power_a(minimal_form, p, 1) == minimal_form.lam(p)

    def test_newton_identity(self, minimal_form):
        # alpha^2 + beta^2 = lambda^2 - 2 xi(p); trivial xi here
        for p in (2, 7):
            lam = minimal_form.lam(p)
            assert prime_power_a(minimal_form, p, 2) == lam * lam - 2

    def test_cubes_against_root_oracle(self, ctx, minimal_form):
        # solve 1 - lambda X + X^2 for its roots and sum cubes directly
        with ctx.workprec():
            for p in (3, 11):
                lam = minimal_form.lam(p).mpc(ctx)
                r1, r2 = mp.polyroots([mp.mpf(1), -lam, mp.mpf(1)])
                # roots of X^2 - lam X + 1 coincide with the Satake pair
                want = r1 ** 3 + r2 ** 3
                got = prime_power_a(minimal_form, p, 3).mpc(ctx)
                assert abs(got - want) < mp.mpf(2) ** -100

    def test_formal_log_derivative_series(self, ctx):
        # sum_m a(p^m) X^m == -X d/dX log(1 - lambda X + xi X^2) exactly,
        # coefficientwise to m = 10, with rational lambda and a complex xi
        f = parse_form(minimal_text(N="5", xi="values: 1,0 0,1 0,-1 -1,0",
                                    coeffs="2 0.375 -0.25\n3 -1.2"), ctx)
        zero = ComplexParam(Fraction(0), Fraction(0))
        for p in (2, 3):
            lam, xi = f.lam(p), f.xi.value(p)
            # series of (lam X - 2 xi X^2) / (1 - lam X + xi X^2)
            num = {1: lam, 2: zero - xi - xi}
            c = {}
            for m in range(1, 11):
                val = num.get(m, zero)
                if m - 1 >= 1:
                    val = val + lam * c[m - 1]
                if m - 2 >= 1:
                    val = val - xi * c[m - 2]
                c[m] = val
                assert prime_power_a(f, p, m) == c[m]


class TestDual:
    def test_involution(self, ctx):
        text = minimal_text(N="5", eta="0 1", nu="0 2.25",
                            xi="values: 1,0 0,1 0,-1 -1,0",
                            coeffs="2 0.5 -0.125\n3 1.0")
        f = parse_form(text, ctx)
        assert dual_form(dual_form(f)) == f
        assert dual_form(f) != f

    def test_self_dual_fixed_point(self, minimal_form):
        # real coefficients, real eta, imaginary nu conjugates to -nu...
        g = dual_form(minimal_form)
        assert g.prime_coeffs == minimal_form.prime_coeffs
        assert g.eta == minimal_form.eta
        assert g.nu == minimal_form.nu.conjugate()

    def test_dual_conjugates_data(self, ctx):
        f = parse_form(minimal_text(coeffs="2 0.5 0.25"), ctx)
        g = dual_form(f)
        assert g.lam(2) == ComplexParam(Fraction(1, 2), Fraction(-1, 4))
        assert (g.level, g.weight, g.eps) == (f.level, f.weight, f.eps)
