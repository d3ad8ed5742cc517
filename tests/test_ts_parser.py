"""Expression grammar round trips and error reporting."""

import re
from fractions import Fraction as F
from math import comb

import pytest
from conftest import time_budget
from hypothesis import given, settings
from hypothesis import strategies as st
from test_transseries import raw_groups

from tsr.errors import DomainError, ExpressionSyntaxError, GridMergeError, TsrError
from tsr.scanner import MAX_NESTING
from tsr.surreal import parse_nf
from tsr.transseries import LogPart, TransseriesT1, assemble, eq_to_order, ts_from_json, ts_mul_minus, ts_parse, ts_print, ts_to_json

RATIONALS = st.builds(F, st.integers(-5, 5), st.integers(1, 6))


class TestParse:
    def test_ei_form(self):
        ts = ts_parse("exp(x)*#ei")
        t = ts.plus[0]
        assert t.mu == 1 and t.offset == 0
        assert t.series.coeffs(4) == [1, 1, 2, 6]

    def test_log_part(self):
        ts = ts_parse("x^2*log(x) + 3")
        assert ts.log.P == (0, 0, 1)
        assert ts.log.Q == (3,)

    def test_one_decaying_group(self):
        # one decaying group, written in JSON as a one-group list
        ts = ts_parse("exp(-2*x)*(1/x + 1/x^2)")
        assert [(g.mu, g.offset) for g in ts.minus] == [(-2, 0)]
        assert ts_to_json(ts)["minus"] == [{"lambda": "2", "beta": "0", "series": {"coeffs": ["1", "1"]}}]

    def test_series_literal(self):
        ts = ts_parse("series![1, 0, 1/2]")
        assert ts.minus[0].series.coeffs(3) == [1, 0, F(1, 2)]

    def test_powers_and_division(self):
        assert eq_to_order(ts_parse("x^(-3)"), ts_parse("1/x^3"), 8)
        assert eq_to_order(ts_parse("3/(4*x^2)"), ts_parse("3/4*x^(-2)"), 8)

    def test_distribution(self):
        a = ts_parse("(1/x + 1/x^2)*(1/x - 1/x^2)")
        b = ts_parse("1/x^2 - 1/x^4")
        assert eq_to_order(a, b, 10)

    def test_syntax_error_has_position(self):
        with pytest.raises(ExpressionSyntaxError) as err:
            ts_parse("exp(x")
        assert err.value.pos >= 4

    def test_log_squared_rejected(self):
        with pytest.raises(GridMergeError):
            ts_parse("log(x)*log(x)")

    def test_log_exp_product_rejected(self):
        with pytest.raises(GridMergeError):
            ts_parse("exp(-x)*log(x)")

    def test_unknown_oracle(self):
        with pytest.raises(ExpressionSyntaxError):
            ts_parse("#nope")


class TestPrintRoundTrip:
    CASES = [
        "exp(x)*(1/x + 1/x^2 + 2/x^3 + 6/x^4 + ...)",
        "x^2*log(x) + 3",
        "exp(-2*x)*(1/x + 1/x^2)",
        "log(x) - 2/x",
        "exp(1/2*x)*(3/x) + x - 1/x^2",
    ]

    @pytest.mark.parametrize("text", [c for c in CASES if "..." not in c])
    def test_print_parse_identity(self, text):
        assert ts_print(ts_parse(text)) == text

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(raw_groups(), st.lists(RATIONALS, max_size=4), st.lists(RATIONALS, max_size=4))
    def test_parse_of_print_is_identity(self, groups, P, Q):
        ts = assemble(groups, LogPart(P=tuple(P), Q=tuple(Q)))
        assert eq_to_order(ts_parse(ts_print(ts, 40)), ts, 40)

    def test_parse_print_on_infinite_series(self):
        ts = ts_parse("exp(x)*#ei")
        assert ts_print(ts, 4) == "exp(x)*(1/x + 1/x^2 + 2/x^3 + 6/x^4 + ...)"

    def test_parse_of_printed_prefix_matches(self):
        ts = ts_parse("exp(x)*#ei")
        reparsed = ts_parse(ts_print(ts, 6).replace(" + ...", ""))
        assert reparsed.plus[0].series.coeffs(6) == ts.plus[0].series.coeffs(6)


class TestJson:
    def test_round_trip_finite(self, rng):
        for text in ["exp(-2*x)*(1/x + 1/x^2)", "x^2*log(x) + 3 - 1/x", "exp(x)*series![0,1]"]:
            ts = ts_parse(text)
            back = ts_from_json(ts_to_json(ts))
            assert eq_to_order(ts, back, 12)

    def test_oracle_reference_preserved(self):
        ts = ts_parse("exp(x)*#ei")
        obj = ts_to_json(ts)
        assert obj["plus"][0]["series"] == {"oracle": "ei", "order": 16}
        back = ts_from_json(obj)
        assert back.plus[0].series.coeffs(5) == [1, 1, 2, 6, 24]

    @pytest.mark.parametrize(
        "obj, field",
        [
            ([], "the transseries"),
            ({"plus": [{}]}, "plus[0].lambda"),
            ({"log": {"Q": ["1", "x"]}}, "log.Q[1]"),
            ({"minus": [{"lambda": "1", "beta": "0", "series": {"coeffs": [None]}}]}, "minus[0].series.coeffs[0]"),
            ({"log": {"Q": ["1e10000000"]}}, "log.Q[0]: decimal exponents are limited"),
            ({"minus": [{"lambda": "1", "beta": "0", "series": {"coeffs": ["2.5e-999999"]}}]}, "minus[0].series.coeffs[0]: decimal exponents"),
            ({"minus": {"lambda": ["1"], "beta": ["0"], "series": {"1": {"coeffs": ["1"]}}}}, "minus must be a JSON array"),
            ({"minus": [{"lambda": "-1", "beta": "0", "series": {"coeffs": ["1"]}}]}, "minus[0].lambda: minus-part rates must be at least 0"),
            ({"minus": [{"lambda": "0", "beta": "0", "series": {"oracle": "ei", "scale": "x"}}]}, "minus[0].series.scale"),
        ],
    )
    def test_malformed_json_names_the_field(self, obj, field):
        # the decimal exponents ran for minutes building 10^e
        with time_budget(1.0), pytest.raises(DomainError, match=re.escape(field)):
            ts_from_json(obj)


#: JSON values, their object keys drawn mostly from a transseries' field names
JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats()
    | st.sampled_from(("1", "-1/2", "0", "3/0", "x", "", "ei", "stirling", "nope", "1,0"))
    | st.text(max_size=4)
)
JSON_KEYS = st.sampled_from(("minus", "plus", "log", "lambda", "beta", "series", "coeffs", "oracle", "scale", "truncated", "P", "Q", "R", "", "1", "0,1", "-1", "x")) | st.text(max_size=3)  # fmt: skip
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_KEYS, inner, max_size=4), max_leaves=12)
JSON_SEEDS = ("exp(-x)*(1/x + 2/x^2) + exp(-3/2*x)*x", "x^2*log(x) + 3 - 1/x", "exp(x)*#ei + exp(2*x)*series![1, 2]", "#stirling", "-1/2*#stirling + exp(-x)*x^(1/3)*#erfi")


@st.composite
def mutated_t1_json(draw):
    """A transseries' JSON with one node, at any depth, replaced by a random JSON value."""
    obj = ts_to_json(ts_parse(draw(st.sampled_from(JSON_SEEDS))), 4)
    node, path = obj, []
    while isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        path.append((node, key))
        node = node[key]
    if not path:
        return draw(JSON_VALUES)
    parent, key = path[-1]
    parent[key] = draw(JSON_VALUES)
    return obj


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(JSON_VALUES, mutated_t1_json()))
def test_any_json_value_reads_as_a_t1_or_a_tsr_error(obj):
    with time_budget(5):
        try:
            ts = ts_from_json(obj)
        except TsrError:
            return
    assert isinstance(ts, TransseriesT1)


@pytest.mark.parametrize(
    "parse, text, pos",
    [
        (ts_parse, "x^", 2),
        (ts_parse, "exp(x) + ", 9),
        (ts_parse, "-", 1),
        (ts_parse, "series![1,", 10),
        (ts_parse, "x)", 1),
        (parse_nf, "w^", 2),
        (parse_nf, "w + ", 4),
        (parse_nf, "w^(1", 4),
        (parse_nf, "w)", 1),
    ],
)
def test_parse_error_position_at_end_of_input(parse, text, pos):
    # both grammars share one scanner: a missing number at the end of the
    # text is reported at the end, not one past it
    with pytest.raises(ExpressionSyntaxError) as err:
        parse(text)
    assert err.value.pos == pos <= len(text)


@pytest.mark.parametrize("text, pos", [("x*", 2), ("exp(x) + ", 9)])
def test_end_of_text_expects_an_atom(text, pos):
    with pytest.raises(ExpressionSyntaxError, match="expected an atom") as err:
        ts_parse(text)
    assert err.value.pos == pos


def test_a_power_of_a_sum_collects_like_terms():
    with time_budget(1.0):
        ts = ts_parse("(1 + 1/x)^40")
    assert ts.log.Q == (1,)
    assert ts.minus[0].series.coeffs(41) == [comb(40, k) for k in range(1, 41)] + [0]


def test_a_power_of_a_sum_with_a_series_collects_like_terms():
    # square and multiply, with the like terms that carry a series summed as
    # one series: 2^24 uncollected terms would not finish
    with time_budget(1.0):
        ts = ts_parse("(1 + #ei)^24")
    one = ts_parse("1 + #ei")
    product = one
    for _ in range(23):
        product = ts_mul_minus(product, one)
    assert eq_to_order(ts, product, 12)


NESTED = {ts_parse: ("(", "x", ")"), parse_nf: ("w^(", "1", ")")}


@pytest.mark.parametrize("parse", NESTED, ids=["transseries", "normal form"])
def test_nesting_deeper_than_the_limit_is_refused_where_it_starts(parse):
    opening, atom, closing = NESTED[parse]
    parse(opening * MAX_NESTING + atom + closing * MAX_NESTING)
    with pytest.raises(ExpressionSyntaxError, match="nested more than") as err:
        parse(opening * 1000 + atom + closing * 1000)
    assert err.value.pos == len(opening) * (MAX_NESTING + 1) - 1
