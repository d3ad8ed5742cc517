"""T1 calculus: algebra, differentiation, antidifferentiation, normal form."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsr.errors import GridMergeError, UndecidableSupport
from tsr.transseries import (
    Group,
    LogPart,
    PowerSeries,
    TransseriesT1,
    assemble,
    eq_to_order,
    groups_of,
    semantic_terms,
    ts_add,
    ts_antidiff,
    ts_diff,
    ts_mul_minus,
    ts_parse,
    ts_print,
    ts_scale,
)
from tsr.transseries.parser import ts_from_json, ts_to_json
from reference.transseries import ts_dominates, ts_sign

#: decaying rates, 1, 3/2 and 2 among them in small integer ratios, each
#: mapped to the fractional part of its offsets, so any two draws add
RATES = {F(1): F(0), F(3, 2): F(1, 3), F(2): F(1, 2), F(17, 16): F(2, 3), F(23, 16): F(0), F(31, 16): F(1, 2)}
#: growing rates, likewise
PLUS_RATES = {F(1, 2): F(0), F(3): F(1, 2), F(7, 2): F(1, 3)}


def random_series(rng: random.Random, max_len: int = 5) -> PowerSeries:
    return PowerSeries.from_coeffs([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, max_len))])


def random_t1(rng: random.Random, *, n_max: int = 3) -> TransseriesT1:
    """Up to n_max decaying groups at distinct rates, a mu = 0 series, a log
    part and up to two growing groups; each offset is its rate's fractional
    part (denominator 1, 2 or 3) plus an integer."""
    rates = rng.sample(list(RATES), rng.randint(0, n_max))
    groups = [Group(-r, RATES[r] + rng.randint(-2, 2), random_series(rng)) for r in rates]
    if rng.random() < 0.8:
        groups.append(Group(F(0), F(0), random_series(rng)))
    log = LogPart(
        P=tuple(F(rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))),
        Q=tuple(F(rng.randint(-3, 3)) for _ in range(rng.randint(0, 3))),
    )
    ts = assemble(groups, log)
    for lam in rng.sample(list(PLUS_RATES), rng.randint(0, 2)):
        ts = ts_add(ts, assemble([Group(lam, PLUS_RATES[lam] + rng.randint(-2, 2), random_series(rng))]))
    return ts


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_the_json_of_a_sum_is_canonical(seed):
    # the JSON follows from the groups alone, however the sum was built
    rng = random.Random(seed)
    a, b = random_t1(rng), random_t1(rng)
    total = ts_add(a, b)
    want = ts_to_json(total)
    assert ts_to_json(ts_add(b, a)) == want
    assert ts_to_json(ts_parse(ts_print(total, 64))) == want
    assert ts_to_json(ts_from_json(want)) == want


class TestAlgebra:
    def test_add_zero(self, rng):
        a = random_t1(rng)
        assert eq_to_order(ts_add(a, TransseriesT1()), a, 12)

    def test_add_cancels(self):
        a = ts_parse("1/x")
        assert eq_to_order(ts_add(a, ts_scale(-1, a)), TransseriesT1(), 12)

    def test_mixed_parts_coexist(self):
        ts = ts_parse("exp(-x)/x + x^2*log(x)")
        assert [g.mu for g in ts.minus] == [-1]
        assert ts.log.P == (F(0), F(0), F(1))
        text = ts_print(ts)
        assert "exp(-x)" in text and "log(x)" in text

    def test_minus_algebra_laws(self, rng):
        def mk():
            # integer offsets, so the groups of a product at one rate merge
            rates = rng.sample([F(0), *RATES], rng.randint(1, 3))
            return assemble([Group(-r, F(rng.randint(0, 2)) if r else F(0), random_series(rng)) for r in rates])

        for _ in range(25):
            a, b, c = mk(), mk(), mk()
            assert eq_to_order(ts_mul_minus(a, b), ts_mul_minus(b, a), 12)
            assert eq_to_order(
                ts_mul_minus(ts_mul_minus(a, b), c), ts_mul_minus(a, ts_mul_minus(b, c)), 12
            )
            assert eq_to_order(
                ts_mul_minus(a, ts_add(b, c)),
                ts_add(ts_mul_minus(a, b), ts_mul_minus(a, c)),
                12,
            )

    def test_mul_example_double_exponential(self):
        a = ts_parse("exp(-x)/x")
        sq = ts_mul_minus(a, a)
        assert eq_to_order(sq, ts_parse("exp(-2*x)/x^2"), 10)

    def test_mul_unit_identity(self):
        # the unit enters via the shifted normalization x * x^-1
        a = ts_parse("exp(-x)*(1/x + 2/x^2) + 1/x^3")
        unit = ts_parse("x*series![1]")
        assert unit.log.Q == (F(1),)
        assert eq_to_order(ts_mul_minus(a, unit), a, 12)

    def test_mul_factorial_square(self):
        # (sum k! x^-k-1)^2 has coefficients sum_(i+j=n-2) i! j!
        s = assemble([Group(F(0), F(0), PowerSeries(lambda l: F(_fact(l - 1))))])
        sq = ts_mul_minus(s, s)
        got = sq.minus[0].series
        for n in range(2, 12):
            brute = sum(_fact(i) * _fact(j) for i in range(n - 1) for j in range(n - 1) if i + j == n - 2)
            assert got.coeff(n) == brute

    @pytest.mark.parametrize("r, s, gcd", [(2, 3, 1), (3, 2, 1), (4, 6, 2), (6, 4, 2)])
    def test_commensurate_rates_write_one_group_each(self, r, s, gcd):
        # rates r and s in a small integer ratio: the JSON writes one group
        # per rate, rates ascending, however the sum was built
        a, b = ts_parse(f"exp(-{r}*x)/x"), ts_parse(f"exp(-{s}*x)/x")
        total = ts_add(a, b)
        assert [F(g["lambda"]) / gcd for g in ts_to_json(total)["minus"]] == sorted([F(r, gcd), F(s, gcd)])
        assert ts_to_json(total) == ts_to_json(ts_parse(f"exp(-{r}*x)/x + exp(-{s}*x)/x"))

    @pytest.mark.parametrize("mu", [F(-1), F(1)], ids=["decaying", "growing"])
    def test_grid_merge_error_on_incompatible_offsets(self, mu):
        a = assemble([Group(mu, F(1, 2), PowerSeries.from_coeffs([F(1)]))])
        b = assemble([Group(mu, F(1, 3), PowerSeries.from_coeffs([F(1)]))])
        with pytest.raises(GridMergeError, match="groups at rate 1 have offsets 1/2, 1/3"):
            ts_add(a, b)


OFFSETS = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 2, 3, 16, 32]))


@st.composite
def raw_groups(draw):
    """Finite groups at rates of both signs; the offsets at one rate lie at
    integer distances, so every draw merges."""
    mus = st.sampled_from([F(-1), F(-17, 16), F(-23, 16), F(1, 2), F(1), F(3)])
    rates = draw(st.lists(mus, min_size=1, max_size=7))
    base = {mu: draw(OFFSETS) for mu in sorted(set(rates))}
    coeffs = st.lists(st.integers(-3, 3).map(F), min_size=1, max_size=4)
    return [
        Group(mu, base[mu] + draw(st.integers(-3, 3)), PowerSeries.from_coeffs(draw(coeffs)))
        for mu in rates
    ]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(raw_groups())
def test_assemble_merges_one_group_per_rate(groups):
    ts = assemble(groups)
    raw: dict = {}
    for g in groups:
        for l, c in enumerate(g.series.coeffs(g.series.length), 1):
            key = (g.mu, g.offset - l, 0)
            raw[key] = raw.get(key, F(0)) + c
    assert semantic_terms(ts, 40) == {key: c for key, c in raw.items() if c}
    rates = {g.mu for g in groups}
    assert [g.mu for g in ts.plus] == sorted((mu for mu in rates if mu > 0), reverse=True)
    assert [-g.mu for g in ts.minus if g.mu] == sorted(-mu for mu in rates if mu < 0)


def _fact(n: int) -> int:
    out = 1
    for i in range(2, n + 1):
        out *= i
    return out


class TestDiff:
    def test_inverse_power(self):
        assert ts_print(ts_diff(ts_parse("1/x"))) == "-1/x^2"

    def test_ei_equation(self):
        # y = e^x sum k! x^-k-1 solves y' + ... : d/dx(e^x y) = e^x / x formally
        y = ts_antidiff(ts_parse("exp(x)/x"))
        assert eq_to_order(ts_diff(y), ts_parse("exp(x)/x"), 20)

    def test_log_calculus(self):
        assert ts_print(ts_diff(ts_parse("x*log(x)"))) == "log(x) + 1"

    def test_derivative_of_constant(self):
        assert eq_to_order(ts_diff(ts_parse("42")), TransseriesT1(), 12)


class TestAntidiff:
    def test_trivial(self):
        assert ts_print(ts_antidiff(ts_parse("1/x^2"))) == "-1/x"

    def test_ei_series(self):
        got = ts_antidiff(ts_parse("exp(x)/x"))
        series = got.plus[0].series
        assert series.coeffs(5) == [1, 1, 2, 6, 24]

    def test_decaying_exponential(self):
        got = ts_antidiff(ts_parse("exp(-x)/x"))
        series = got.minus[0].series
        assert series.coeffs(5) == [-1, 1, -2, 6, -24]
        assert eq_to_order(ts_diff(got), ts_parse("exp(-x)/x"), 20)

    def test_round_trip_randomized(self, rng):
        for _ in range(60):
            a = random_t1(rng)
            assert eq_to_order(ts_diff(ts_antidiff(a)), a, 16)

    def test_zero_constant_term(self, rng):
        for _ in range(40):
            a = random_t1(rng)
            anti = ts_antidiff(a)
            assert anti.log.q_coeff(0) == 0
            sem = semantic_terms(anti, 4)
            assert sem.get((F(0), F(0), 0), F(0)) == 0

    def test_linearity(self, rng):
        for _ in range(25):
            a, b = random_t1(rng), random_t1(rng)
            c = F(rng.randint(-5, 5), rng.randint(1, 4))
            lhs = ts_antidiff(ts_add(ts_scale(c, a), b))
            rhs = ts_add(ts_scale(c, ts_antidiff(a)), ts_antidiff(b))
            assert eq_to_order(lhs, rhs, 14)

    def test_order_preservation(self, rng):
        hits = 0
        for _ in range(60):
            a, b = random_t1(rng), random_t1(rng)
            try:
                if ts_dominates(a, b):
                    hits += 1
                    assert ts_dominates(ts_antidiff(a), ts_antidiff(b))
            except UndecidableSupport:
                continue
        assert hits > 10

    def test_integration_by_parts_on_minus(self, rng):
        # A(T1 T2') = T1 T2 - A(T1' T2) for decaying products (constant-free)
        for _ in range(15):
            rate, beta = rng.choice(list(RATES)), F(rng.randint(0, 2))

            def mk():
                return assemble([Group(-rate, beta, random_series(rng))])

            t1, t2 = mk(), mk()
            lhs = ts_antidiff(ts_mul_minus(t1, ts_diff(t2)))
            rhs = ts_add(ts_mul_minus(t1, t2), ts_scale(-1, ts_antidiff(ts_mul_minus(ts_diff(t1), t2))))
            assert eq_to_order(lhs, rhs, 12)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(raw_groups())
def test_antidiff_inverts_diff_on_raw_groups(groups):
    # rates of both signs, 17/16 among them, through the one recurrence
    ts = assemble(groups)
    assert eq_to_order(ts_diff(ts_antidiff(ts)), ts, 40)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.sampled_from([F(3), F(-3), F(1), F(-1), F(1, 2), F(-1, 2)]),
    st.lists(st.integers(-3, 3).map(F), min_size=1, max_size=4),
    st.integers(0, 3),
)
def test_antidiff_of_a_finite_group_ends_at_its_offset(mu, y, extra):
    # x^b e^(mu x) y with y ended by x^-b: the factor l-1-b stops w at l = b
    b = max(len(y), 1) + extra
    ts = assemble([Group(mu, F(b), PowerSeries.from_coeffs(y))])
    got = ts_antidiff(ts)
    assert [(g.mu, g.offset, g.series.length) for g in groups_of(got)] == [(mu, b, b)]
    assert eq_to_order(ts_diff(got), ts, b + 8)


class TestNormalForm:
    def test_assemble_folds_r_into_the_k0_series(self):
        # ts_from_json hands a JSON "R" to assemble as the mu = 0 series
        got, want = ts_from_json({"log": {"R": ["1"]}}), ts_parse("1/x")
        assert eq_to_order(got, want, 12)
        assert ts_to_json(got) == ts_to_json(want)

    def test_a_power_times_an_infinite_series_splits_at_x0(self):
        # x^2 (1/x + 1/x^2 + 2/x^3 + 6/x^4 + ...) = x + 1 + 2/x + 6/x^2 + ...
        ts = ts_parse("x^2*#ei")
        assert ts.log.Q == (1, 1)
        assert ts.minus[0].series.coeffs(4) == [2, 6, 24, 120]
        assert ts.minus[0].series.kernel is None  # a shifted part drops it

    def test_a_polynomial_beside_a_named_series_keeps_its_kernel(self):
        from tsr.coefficients import named_series

        series = ts_parse("x^2 - 1 + #stirling").minus[0].series
        assert series.kernel.kernel is named_series("stirling").kernel.kernel
        assert series.kernel.c == 1


class TestSign:
    @pytest.mark.parametrize(
        "text,sign",
        [
            ("exp(x)/x - 1000*x^3", 1),
            ("-1/x^5", -1),
            ("0", 0),
            ("x^2*log(x) - exp(-x)/x", 1),
            ("-log(x) + 5", -1),
            ("exp(-x)/x - exp(-2*x)*series![3]", 1),
        ],
    )
    def test_examples(self, text, sign):
        assert ts_sign(ts_parse(text)) == sign

    def test_dominates(self):
        assert ts_dominates(ts_parse("exp(x)/x"), ts_parse("x^5"))
        assert ts_dominates(ts_parse("x*log(x)"), ts_parse("x"))
        assert not ts_dominates(ts_parse("1/x"), ts_parse("log(x)"))
