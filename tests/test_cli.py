"""CLI behavior: verbs, output stability, JSON round trips, exit codes."""

import io
import json
import sys
from fractions import Fraction as F

import pytest
from conftest import time_budget
from reference.surreal import nf_from_json_obj

from tsr.cli import build_parser, main, run
from tsr.surreal import parse_nf
from tsr.transseries import PowerSeries, eq_to_order, ts_from_json, ts_parse, ts_to_json


@pytest.fixture
def cli(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestVerbs:
    def test_integrate_exp_omega(self, cli):
        code, out, _ = cli("integrate", "exp", "0", "omega")
        assert code == 0
        assert out.strip() == "w^w - 1"

    def test_antidiff_ei(self, cli):
        code, out, _ = cli("antidiff", "exp(x)/x", "--terms", "4")
        assert code == 0
        assert out.strip() == "exp(x)*(1/x + 1/x^2 + 2/x^3 + 6/x^4 + ...)"

    def test_weights(self, cli):
        code, out, _ = cli("weights", "++-")
        assert (code, out.strip()) == (0, "1/16")
        code, out, _ = cli("weights", "++-", "--literal")
        assert (code, out.strip()) == (0, "1/32")

    def test_parse_and_diff(self, cli):
        assert cli("parse", "x^2*log(x) + 3")[1].strip() == "x^2*log(x) + 3"
        assert cli("diff", "x*log(x)")[1].strip() == "log(x) + 1"

    def test_parse_of_a_long_finite_sum_is_linear(self, cli, monkeypatch):
        # sum(k/x^k, k <= n): the finite parts' coefficients are added into
        # one list once, 3 reads a term, where reading all n parts for each
        # coefficient would take about n^2/2; counted, not timed, so that
        # the bound holds on a loaded machine
        n = 8000
        expr = " + ".join(f"{k}/x^{k}" for k in range(1, n + 1))
        reads = 0
        coeff = PowerSeries.coeff

        def counted(series, l):
            nonlocal reads
            reads += 1
            return coeff(series, l)

        monkeypatch.setattr(PowerSeries, "coeff", counted)
        with time_budget(10.0):
            code, out, _ = cli("parse", expr, "--json")
        assert code == 0 and reads <= 4 * n
        assert ts_from_json(json.loads(out)).minus[0].series.coeffs(20) == list(range(1, 21))

    def test_parse_prints_a_far_off_term_without_reading_up_to_it(self, cli):
        # whether " + ..." follows is read downward from the series' length
        with time_budget(1.0):
            assert cli("parse", "1/x^1000000 + 2/x") == (0, "2/x + ...\n", "")

    def test_mul(self, cli):
        code, out, _ = cli("mul", "exp(-x)/x", "exp(-x)/x")
        assert code == 0
        assert out.strip() == "exp(-2*x)*(1/x^2)"

    @pytest.mark.parametrize(
        "left, right, product",
        [
            ("exp(-2*x)/x", "exp(-3*x)/x", "exp(-5*x)*(1/x^2)"),
            ("exp(-3*x)/x", "exp(-2*x)/x", "exp(-5*x)*(1/x^2)"),
            ("exp(-4*x)/x^2", "exp(-6*x)/x", "exp(-10*x)*(1/x^3)"),
            ("exp(-6*x)/x", "exp(-4*x)/x^2", "exp(-10*x)*(1/x^3)"),
        ],
    )
    def test_mul_of_commensurate_rates(self, cli, left, right, product):
        assert cli("mul", left, right) == (0, product + "\n", "")

    @pytest.mark.parametrize(
        "left, right, parts",
        [
            ("x * 1", "#ei * x * #erfi", "polynomial part"),
            ("log(x)", "exp(-x)", "log part"),
            ("exp(-x)/x", "exp(x) + x^2*log(x) + x", "growing exponential groups, log part, polynomial part"),
        ],
    )
    def test_mul_names_what_leaves_the_decaying_algebra(self, cli, left, right, parts):
        code, out, err = cli("mul", left, right)
        assert (code, out) == (1, "")
        assert err == f"error: DomainError: mul takes the decaying algebra plus constants; an operand has: {parts}\n"

    def test_borel(self, cli):
        code, out, _ = cli("borel", "series![1, 1, 2, 6]", "--order", "3")
        assert code == 0
        assert out.split() == ["1", "1", "1", "1"]

    @pytest.mark.parametrize("flags", [(), ("--json",), ("--order", "6")], ids=["text", "json", "order 6"])
    @pytest.mark.parametrize(
        "expression, parts",
        [
            ("exp(-x)*#ei", "exponential groups"),
            ("x^3 + 1/x", "polynomial or constant part"),
            ("x*log(x) + exp(x)", "exponential groups, log part"),
        ],
    )
    def test_borel_names_the_parts_it_would_leave_out(self, cli, expression, parts, flags):
        code, out, err = cli("borel", expression, *flags)
        assert (code, out) == (1, "")
        assert err == f"error: DomainError: borel takes a power series in 1/x; it would leave out: {parts}\n"

    def test_eval_at_omega(self, cli):
        code, out, _ = cli("eval", "ei", "omega", "--terms", "3")
        assert code == 0
        assert out.strip() == "w^(w-1) + w^(w-2) + 2*w^(w-3) + ..."

    @pytest.mark.parametrize("point", ["2*omega+1", "omega-3"])
    def test_omega_inside_a_normal_form(self, cli, point):
        code, out, _ = cli("eval", "ei", point, "--terms", "4")
        assert code == 0
        assert (code, out) == cli("eval", "ei", point.replace("omega", "w"), "--terms", "4")[:2]

    def test_eval_real(self, cli):
        code, out, _ = cli("eval", "loggamma", "10")
        assert code == 0
        assert abs(float(out.split()[0]) - 12.80182748) < 1e-6

    def test_sum_expression(self, cli):
        code, out, _ = cli("sum", "exp(x)*#ei", "8.0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["value"] - 440.37989953) < 1e-6
        assert payload["error_estimate"] < 1e-8

    def test_integrate_from_zero(self, cli):
        # A_No exp_neg = -e^(-x) is stored as x e^(-x) (-1/x), which has a value at 0
        assert cli("integrate", "exp_neg", "0", "3") == (0, "0.95021293163213605702\n", "")

    @pytest.mark.parametrize("point", ["w", "2*w+1", "w-3"])
    def test_an_integral_with_equal_endpoints_is_zero(self, cli, point):
        # two lazy streams of one value would cancel term after term
        assert cli("integrate", "ei_integrand", point, point) == (0, "0\n", "")

    def test_json_decimal_result_carries_no_error_estimate(self, cli):
        # an oracle value emitted as a double has no bound to report
        for argv in (("eval", "ei", "3"), ("integrate", "exp_neg_over_x", "2", "5")):
            code, out, _ = cli("--json", *argv)
            assert code == 0 and list(json.loads(out)) == ["value"]

    def test_catalog_listing(self, cli):
        code, out, _ = cli("catalog")
        names = out.split()
        assert "ei" in names and "gamma" in names

    def test_catalog_manifest(self, cli):
        code, out, _ = cli("catalog", "--manifest")
        man = json.loads(out)
        assert man["ei"]["kernels"] == {"ei": "ClosedFormKernel"} and "regularization_m" not in man["ei"]


class TestErrors:
    def test_usage_error_exit_2(self, cli):
        code, _, err = cli("parse", "exp(")
        assert code == 2
        assert "syntax" in err

    def test_domain_error_exit_1(self, cli):
        code, _, err = cli("eval", "ei", "-3")
        assert code == 1
        assert "DomainError" in err

    def test_a_negative_power_at_zero_is_a_domain_error(self, cli):
        code, out, err = cli("sum", "1/x", "0")
        assert code == 1 and out == "" and "DomainError" in err

    def test_unknown_entry(self, cli):
        code, _, err = cli("integrate", "nope", "0", "1")
        assert code == 1

    @pytest.mark.parametrize("upper", ["3", "5", "1/2", "omega"])
    def test_integrate_gamma_is_unsupported(self, cli, upper):
        # gamma has no transseries, so A_No has nothing to antidifferentiate
        code, _, err = cli("integrate", "gamma", "2", upper)
        assert code == 1
        assert "UnsupportedPointError" in err


    def test_integrate_ei_stops_at_the_double_pole(self, cli):
        # the Pade denominator of the Ei antiderivative's series is (1 - p)^2:
        # a pole of order 2 has no principal value, refused before quadrature
        code, out, err = cli("integrate", "ei", "2", "4")
        assert (code, out) == (1, "") and "SingularPointError" in err and "order 2 at p = 1 " in err

    def test_integrate_loggamma_names_the_degree_drop(self, cli):
        # its Pade denominator's leading coefficient is 0
        code, out, err = cli("integrate", "loggamma", "2", "4")
        assert (code, out) == (1, "") and "DegenerateTableError" in err and "from 11 to 10" in err

    def test_airy_at_a_huge_point(self, cli):
        code, out, err = cli("eval", "airy_bi", "1" + "0" * 300)
        assert (code, out) == (1, "") and "DomainError" in err and "work bound" in err

    @pytest.mark.parametrize(
        "argv",
        [
            *[("eval", "exp", point) for point in ("-w", "-2*w+1", "-w+1/2")],
            ("parse", "-1/x"),
            ("sum", "-#ei", "5"),
            ("borel", "-#ei"),
            ("weights", "-+"),
        ],
        ids=lambda argv: argv[-1] if argv[0] == "eval" else " ".join(argv),
    )
    def test_point_with_a_leading_minus(self, cli, argv):
        # argparse reads an argument that starts with one '-' as an option;
        # every verb reads it as its positional, as after "--"
        code, out, err = cli(*argv)
        assert (code, err) == (0, "")
        at = next(i for i, a in enumerate(argv) if a[:1] == "-")
        assert (code, out, err) == cli(*argv[:at], "--", *argv[at:])
        if argv[0] == "eval":
            point = argv[-1]
            assert cli("integrate", "exp", point, "0", "--terms", "3") == cli("integrate", "exp", "--terms", "3", "--", point, "0")

    def test_minus_w_is_omega_negated(self, cli):
        assert cli("eval", "exp", "-w")[1] == "w^(-w)\n"


def _tsr_child(*argv: str, timeout: float):
    """Run ``python -m tsr.cli argv`` in a child process, so that a hang
    fails on its timeout instead of hanging the test run."""
    import os
    import subprocess

    import tsr

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsr.__file__)))
    cmd = [sys.executable, "-m", "tsr.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)


def _finite_sum_text(coeffs: list, terms: int) -> str:
    """The rendering of sum(c_j w^-j) with positive c_j, cut after ``terms`` terms."""
    parts = [str(c) if j == 0 else ("" if c == 1 else f"{c}*") + f"w^(-{j})" for j, c in enumerate(coeffs) if c]
    return " + ".join(parts[:terms] + (["..."] if len(parts) > terms else []))


class TestPolynomialsAtFinitePoints:
    """A polynomial's Taylor series ends, and so does its value at x0 + 1/w."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("verb", ["eval", "integrate"])
    def test_the_stream_ends(self, verb, n):
        from fractions import Fraction
        from math import comb

        if verb == "eval":  # (3 + e)^n
            argv = ("eval", f"monomial_{n}", "3+w^-1")
            coeffs = [comb(n, j) * 3 ** (n - j) for j in range(n + 1)]
        else:  # ((3 + e)^(n+1) - 2^(n+1)) / (n + 1)
            argv = ("integrate", f"monomial_{n}", "2", "3+w^-1")
            coeffs = [Fraction(comb(n + 1, j) * 3 ** (n + 1 - j), n + 1) for j in range(n + 2)]
            coeffs[0] -= Fraction(2 ** (n + 1), n + 1)
        for flags in ((), ("--json",)):
            done = _tsr_child(*argv, "--terms", "6", *flags, timeout=10)
            assert done.returncode == 0, done.stderr
            if flags:
                (group,) = json.loads(done.stdout)["normal_form_terms"]
                assert [t["coef"] for t in group["terms"]] == [str(c) for c in coeffs[:6]]
            else:
                assert done.stdout == _finite_sum_text(coeffs, 6) + "\n"


class TestHugeRationalPoints:
    """Points far beyond float range are exact rationals, never floats."""

    BIG = "1" + "0" * 400

    @pytest.mark.parametrize("point", [BIG, BIG + "+w^-1"], ids=["real", "finite"])
    def test_exp_neg(self, cli, point):
        code, out, _ = cli("eval", "exp_neg", point)
        assert code == 0
        assert out.startswith(f"e^(-{self.BIG})")

    def test_erfi_integral_beyond_the_digit_limit(self, capsys, monkeypatch):
        # the w^-15 coefficient has about 4500 digits, past Python's default
        # int-to-str limit, which the tsr command lifts
        r = 10**300
        monkeypatch.setattr(sys, "argv", ["tsr", "eval", "erfi_integral", f"{r}*w"])
        limit = sys.get_int_max_str_digits()
        try:
            with pytest.raises(SystemExit) as done:
                main()
        finally:
            sys.set_int_max_str_digits(limit)
        assert done.value.code == 0
        assert capsys.readouterr().out.startswith(f"1/{2 * r}*w^({r * r}*w^2-1) + ")

    def test_ei_at_a_huge_real_point_finishes(self):
        # the asymptotic series bounds the Ei oracle's work; run in a child
        # process so that a regression fails on its timeout instead of hanging
        import os
        import subprocess

        import tsr

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsr.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "tsr.cli", "eval", "ei", "1" + "0" * 300],
            capture_output=True,
            text=True,
            timeout=5,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("4.8215611947629661412e+4342944819032518276511")

    @pytest.mark.parametrize("point", ["1000000", "10000000000000000000000"])
    def test_loggamma_at_a_huge_integer_finishes(self, point):
        # log Gamma at an integer is mpmath's, not log((x - 1)!); run in a
        # child process so that a regression fails on its timeout
        import os
        import subprocess

        import mpmath as mp

        import tsr

        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(tsr.__file__)))
        done = subprocess.run(
            [sys.executable, "-m", "tsr.cli", "eval", "loggamma", point],
            capture_output=True,
            text=True,
            timeout=5,
            env=env,
        )
        assert done.returncode == 0, done.stderr
        with mp.workdps(50):
            assert abs(mp.mpf(done.stdout) / mp.loggamma(int(point)) - 1) < mp.mpf(10) ** -18

    def test_erfi_integral_square_gives_rational_prefactor(self, cli):
        # sqrt(r^2) is r exactly, so the prefactor folds into the coefficients
        r = 10**33 + 12345
        code, out, _ = cli("eval", "erfi_integral", f"{r}*w")
        assert code == 0
        assert out.startswith(f"1/{2 * r}*w^({r * r}*w^2-1) + ")
        assert "sqrt" not in out


class TestJsonRoundTrips:
    def test_transseries_json_reparses(self, cli):
        code, out, _ = cli("antidiff", "exp(-x)*(1/x + 1/x^2)", "--json")
        assert code == 0
        back = ts_from_json(json.loads(out))
        direct = ts_parse("exp(-x)*(1/x + 1/x^2)")
        from tsr.transseries import ts_antidiff, ts_diff

        assert eq_to_order(ts_diff(back), direct, 10)

    @pytest.mark.parametrize(
        "argv",
        [
            ("parse", "exp(-x) + exp(-2*x)*x^(1/2)"),
            ("diff", "exp(-x) + exp(-2*x)*x^(1/2)"),
            ("antidiff", "exp(-x) + exp(-2*x)*x^(1/2)"),
            ("mul", "1/x", "exp(-x) + exp(-2*x)*x^(1/2)"),
        ],
    )
    def test_incommensurate_offsets_write_json_that_reads_back(self, cli, argv):
        # rate 2 at offset 1/2 beside rate 1: the text form prints it, and
        # --json writes it as a list of groups that reads back to itself
        code, out, _ = cli(*argv)
        assert code == 0 and out.startswith("exp(-x)*(")
        code, out, err = cli(*argv, "--json")
        assert (code, err) == (0, "")
        assert ts_to_json(ts_from_json(json.loads(out)), 8) == json.loads(out)

    @pytest.mark.parametrize(
        "expression",
        [
            "3*#ei",
            "-1/2*#stirling",
            "2*#ei + 3*#ei",
            "exp(-x) + exp(-2*x)*x^(1/2)",
            "exp(-x)*#ei + exp(-3/2*x)*x^(1/3)*#erfi",
            "exp(-x)*x^(1/2)*#erfi + exp(-2*x)*7*#ei",
        ],
    )
    def test_sum_of_the_json_prints_the_same_bytes(self, cli, monkeypatch, expression):
        # a multiple of a named series writes its scale and reads back with its kernel
        code, out, _ = cli("parse", expression, "--json")
        assert code == 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        assert cli("sum", "-", "5") == cli("sum", expression, "5")

    @pytest.mark.parametrize(
        "expression, plain",
        [
            ("#ei + series![0]", "#ei"),
            ("#ei + 1/x - 1/x", "#ei"),
            ("exp(-x)*(#ei + 1/x) - exp(-x)/x", "exp(-x)*#ei"),
        ],
    )
    def test_finite_parts_adding_to_zero_keep_the_kernel(self, cli, expression, plain):
        # the sum equals the plain named series, so it writes its JSON and
        # is summed with its kernel
        assert cli("parse", expression, "--json") == cli("parse", plain, "--json")
        assert cli("sum", expression, "5") == cli("sum", plain, "5")

    def test_normal_form_json_reparses(self, cli):
        code, out, _ = cli("eval", "ei", "omega", "--terms", "4", "--json")
        payload = json.loads(out)
        group = payload["normal_form_terms"][0]
        assert group["prefactor"] == "1"
        exps = [nf_from_json_obj(t["exp"]) for t in group["terms"]]
        assert exps[0] == parse_nf("w - 1")
        assert [t["coef"] for t in group["terms"]] == ["1", "1", "2", "6"]


ILLUSTRATIONS = [
    ("integrate", "exp", "0", "omega"),
    ("eval", "ei", "omega", "--terms", "5"),
    ("antidiff", "exp(x)/x", "--terms", "5"),
    ("integrate", "erfi_integrand", "0", "omega", "--terms", "3"),
    ("eval", "airy_ai", "5"),
    ("eval", "airy_bi", "5"),
    ("eval", "loggamma", "omega", "--terms", "5"),
    ("eval", "gamma", "omega", "--terms", "3"),
    ("weights", "++-+"),
]

GOLDEN = """\
w^w - 1
w^(w-1) + w^(w-2) + 2*w^(w-3) + 6*w^(w-4) + 24*w^(w-5) + ...
exp(x)*(1/x + 1/x^2 + 2/x^3 + 6/x^4 + 24/x^5 + ...)
1/2*w^(w^2-1) + 1/4*w^(w^2-3) + 3/8*w^(w^2-5) + ...
0.00010834442813607441735
657.79204417117118244
w^(1+w^(-1)) - w - 1/2*w^(w^(-1)) + 1/12*w^(-1) - 1/360*w^(-3) + ... + log(2*pi)*(1/2)
sqrt(pi)*sqrt(2)*(w^(w^(1+w^(-1))-w-1/2) + 1/12*w^(w^(1+w^(-1))-w-3/2) + 1/288*w^(w^(1+w^(-1))-w-5/2) + ...)
1/64
"""


class TestConfig:
    def test_env_precision_honored(self, cli, monkeypatch):
        monkeypatch.setenv("TSR_PRECISION", "30")
        code, out, _ = cli("eval", "loggamma", "7")
        assert code == 0
        assert len(out.strip().split(".")[-1]) <= 25  # nstr at lower working dps

    def test_decimal_output_stops_at_the_working_precision(self, cli):
        code, out, _ = cli("sum", "#ei", "10", "--prec", "10")
        assert code == 0
        value = out.split()[0]
        assert value == "0.1131470205"
        assert len(value.replace("0.", "", 1).lstrip("0")) == 10

    def test_check_averaging_json(self, cli):
        code, out, _ = cli("check", "averaging", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["results"]["averaging"]["literal_formula_fails"] is True

    def test_sum_keeps_the_kernel_of_a_named_series_beside_a_constant(self, cli):
        # summed with the pole kernel of #ei; the Pade fallback would report ~1e-13
        import mpmath as mp

        code, out, _ = cli("sum", "3 + #ei", "3")
        value, error = out.split("(error <=")
        assert code == 0 and float(error.rstrip(")\n")) < 1e-18
        with mp.workdps(40):
            assert abs(mp.mpf(value) - 3 - mp.exp(-3) * mp.ei(3)) < 1e-18

    def test_sum_from_json_file(self, cli, tmp_path):
        from tsr.transseries import ts_to_json

        blob = tmp_path / "ts.json"
        blob.write_text(json.dumps(ts_to_json(ts_parse("exp(x)*#ei"))))
        code, out, _ = cli("sum", f"@{blob}", "8.0", "--json")
        assert code == 0
        assert abs(json.loads(out)["value"] - 440.37989953) < 1e-5

    @pytest.mark.parametrize("lam", ["-1", "0"])
    def test_sum_rejects_a_nonpositive_plus_rate(self, cli, monkeypatch, lam):
        import io

        blob = {"plus": [{"lambda": lam, "beta": "0", "series": {"coeffs": ["1"]}}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(blob)))
        code, out, err = cli("sum", "-", "3")
        assert (code, out) == (1, "")
        assert "plus-part rates must be positive" in err


@pytest.mark.parametrize(
    "term, n",
    [("exp(-x)*{k}/x^{k}", 600), ("exp(x)*{k}/x^{k}", 600), ("#ei/x^{k}", 600), ("{k}/x^{k}", 2000)],
)
def test_a_long_sum_at_one_rate_parses(cli, term, n):
    # the groups of one rate sum as one flat series, not one nested sum per term
    code, out, _ = cli("parse", " + ".join(term.format(k=k) for k in range(1, n + 1)))
    assert code == 0 and out.endswith("+ ...)\n" if "exp" in term else "+ ...\n")


@pytest.mark.parametrize(
    "argv", [("parse", "(" * 1000 + "x" + ")" * 1000), ("eval", "ei", "w^(" * 1000 + "1" + ")" * 1000)]
)
def test_deep_nesting_is_a_syntax_error(cli, argv):
    code, out, err = cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("syntax error: parentheses nested more than 100 deep")


class TestOptionsBeforeTheVerb:
    def test_precision(self, cli):
        assert cli("--prec", "10", "eval", "ei", "3")[1] == "9.933832571\n"

    def test_json(self, cli):
        import mpmath as mp

        code, out, _ = cli("--json", "sum", "#ei", "10")
        payload = json.loads(out)
        assert code == 0 and abs(payload["value"] - 0.11314702047341078) < 1e-15
        # the error estimate bounds the emitted double, not only the sum
        with mp.workdps(40):
            assert abs(mp.mpf(payload["value"]) - mp.exp(-10) * mp.ei(10)) <= payload["error_estimate"]

    def test_terms(self, cli):
        assert cli("--terms", "2", "parse", "#ei")[1] == "1/x + 1/x^2 + ...\n"

    def test_the_option_after_the_verb_wins(self, cli):
        value = cli("--prec", "10", "sum", "#ei", "10", "--prec", "15")[1].split()[0]
        assert value == "0.113147020473411"


class TestOneParser:
    """Every ``run`` in a process parses with the one parser built by the
    first; no option given to one call reaches the next."""

    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_no_option_leaks_into_the_next_call(self, cli, monkeypatch):
        monkeypatch.delenv("TSR_PRECISION", raising=False)
        default = "9.933832570625416558\n"
        eval_ei = ("eval", "ei", "3")
        for given, want in [
            (("--prec", "15"), "9.93383257062542\n"),
            (("--prec", "10"), "9.933832571\n"),
            (("--json",), '{"value": 9.933832570625416}\n'),
        ]:
            assert cli(*given, *eval_ei)[1] == want  # the option before the verb
            assert cli(*eval_ei)[1] == default
            assert cli(*eval_ei, *given)[1] == want  # and after it
            assert cli(*eval_ei)[1] == default
        assert cli("--terms", "2", "parse", "#ei")[1] == "1/x + 1/x^2 + ...\n"
        assert cli("parse", "#ei")[1].count("/x") == 8
        assert cli("borel", "series![1, 1, 2, 6]", "--order", "1")[1].split() == ["1", "1"]
        assert len(cli("borel", "series![1, 1, 2, 6]")[1].split()) == 13
        assert cli("weights", "++-", "--literal")[1] == "1/32\n"
        assert cli("weights", "++-")[1] == "1/16\n"


class TestSumPoint:
    def test_a_ratio_is_exact(self, cli):
        import mpmath as mp

        code, out, _ = cli("sum", "#ei", "1/3", "--prec", "30")
        value, err = out.split("  (error <= ")
        with mp.workdps(60):
            x = mp.mpf(1) / 3
            assert abs(mp.mpf(value) - mp.exp(-x) * mp.ei(x)) <= mp.mpf(err.rstrip(")\n"))

    @pytest.mark.parametrize("x", ["nan", "inf", "1e400"])
    def test_a_point_that_is_not_a_finite_double_is_refused(self, cli, x):
        code, out, err = cli("sum", "#ei", x)
        assert code == 1 and out == "" and "DomainError" in err

    @pytest.mark.parametrize("digits", ["10", "11", "15"])
    def test_the_printed_value_is_within_the_printed_error(self, cli, digits):
        # the bound covers the rounding to the printed digits as well
        import mpmath as mp

        code, out, _ = cli("sum", "#ei", "10", "--prec", digits)
        value, err = out.split("  (error <= ")
        with mp.workdps(40):
            assert abs(mp.mpf(value) - mp.exp(-10) * mp.ei(10)) <= mp.mpf(err.rstrip(")\n"))

    @pytest.mark.parametrize("json_out", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize(
        "expr, mu, x",
        [
            ("exp(2*x)", 2, "1e7"),
            ("exp(-x)", -1, "1e8"),
            ("exp(-x)", -1, "1e300"),
            ("exp(x)", 1, "-1e300"),
            ("exp(-3/2*x)", -1.5, "1e300"),
            ("exp(2*x)", 2, "-1e300"),
        ],
    )
    def test_an_exponential_far_out_prints_its_bound_at_once(self, cli, expr, mu, x, json_out):
        # the bound is rounded up to three digits without an exact 10^e,
        # which at e^(-10^300) would have about 4*10^299 digits
        import mpmath as mp

        with time_budget(1.0):
            code, out, err = cli("sum", expr, x, *(["--json"] if json_out else []))
        if code == 1:  # a --json sum beyond the double range
            assert json_out and out == "" and "DomainError" in err and "beyond the double range" in err
            return
        assert code == 0, err
        if json_out:
            payload = json.loads(out)
            value, bound = payload["value"], payload["error_estimate"]
        else:
            value, bound = out.rstrip(")\n").split("  (error <= ")
        with mp.workdps(400):  # past the sum's 50 digits by 20 or more, and x = 10^300 exactly
            assert abs(mp.exp(mu * mp.mpf(int(F(x)))) - mp.mpf(value)) <= mp.mpf(bound)
            # the exact x forms e^(mu x) to the working precision: the bound
            # is a few units of the value, not a factor e^(|mu x| 2^-prec)
            assert json_out or mp.mpf(bound) <= mp.mpf(10) ** -18 * abs(mp.mpf(value))

    def test_a_sum_near_a_zero_of_ei_is_right_in_every_digit(self, cli):
        # e^(-x) Ei(x) at x = 0.37250741, 8e-10 from Ei's zero: the kernel is
        # summed at the exact x, not at x rounded to 15 digits, which would
        # move the sum by about 2 parts in 10^8
        import mpmath as mp

        code, out, err = cli("sum", "#ei", "0.37250741", "--prec", "15")
        assert code == 0, err
        value, bound = out.rstrip(")\n").split("  (error <= ")
        assert value == "-2.09758682101858e-9"
        with mp.workdps(50):
            x = mp.mpf(37250741) / 10**8
            assert abs(mp.mpf(value) - mp.exp(-x) * mp.ei(x)) <= mp.mpf(bound)


class TestGoldenStability:
    def run_suite(self, cli) -> str:
        lines = []
        for argv in ILLUSTRATIONS:
            code, out, err = cli(*argv)
            assert code == 0, err
            lines.append(out.strip())
        return "\n".join(lines) + "\n"

    def test_byte_identical_across_runs(self, cli):
        first = self.run_suite(cli)
        second = self.run_suite(cli)
        assert first == second

    def test_matches_frozen_golden(self, cli):
        assert self.run_suite(cli) == GOLDEN


@pytest.mark.parametrize(
    "prec, offset",
    [("50", "0.13533528323661269189"), ("30", "0.13533528323661269189"), ("10", "0.1353352832")],
)
def test_decimal_offset_prints_with_the_digits_of_a_real(cli, prec, offset):
    # min(20, --prec) digits, as a real result prints
    code, out, _ = cli("integrate", "exp_neg", "2", "w", "--prec", prec)
    assert (code, out) == (0, f"-w^(-w) + {offset}\n")
    code, out, _ = cli("integrate", "exp_neg", "2", "1/2", "--prec", prec)
    assert len(out.strip().lstrip("-").replace(".", "").lstrip("0")) == len(offset.replace(".", "").lstrip("0"))


@pytest.mark.parametrize("prec", ["50", "10"])
def test_taylor_coefficients_print_with_the_digits_of_a_real(cli, prec):
    real = cli("eval", "ei", "3", "--prec", prec)[1].strip()
    code, out, _ = cli("eval", "ei", "3+w^-1", "--terms", "1", "--prec", prec)
    assert (code, out) == (0, f"{real} + ...\n")


class TestInputBoundary:
    """Bad input ends in exit 2 (usage) or a DomainError (exit 1), never a traceback."""

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = run(list(argv))
        except SystemExit as done:  # argparse rejects the argv
            code = done.code
        return code, capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ("parse", "1/0"),
            ("eval", "ei", "1/0"),
            ("eval", "ei", "1/0*w"),
            ("sum", "series![1/0]", "3"),
            ("borel", "1/0"),
        ],
    )
    def test_a_zero_denominator_is_a_syntax_error(self, capsys, argv):
        code, err = self.outcome(capsys, argv)
        assert code == 2 and err.startswith("syntax error: zero denominator")

    @pytest.mark.parametrize("argv", [("parse", "x/0"), ("parse", "1/(0)"), ("parse", "0^-1"), ("sum", "x/0", "3")])
    def test_a_zero_divisor_is_a_syntax_error(self, capsys, argv):
        code, err = self.outcome(capsys, argv)
        assert code == 2 and err.startswith("syntax error: division by zero")

    @pytest.mark.parametrize(
        "argv",
        [
            ("eval", "ei", "3", "--prec", "-5"),
            ("eval", "ei", "3", "--prec", "0"),
            ("eval", "ei", "w", "--terms", "0"),
            ("eval", "ei", "w", "--terms", "-2"),
            ("eval", "ei", "w", "--terms", "x"),
            ("--terms", "0", "eval", "ei", "w"),
            ("borel", "series![1, 1]", "--order", "-1"),
            *[("eval", "ei", "3", "--tol", tol) for tol in ("0", "-1", "nan", "inf")],
        ],
    )
    def test_an_option_out_of_range_is_a_usage_error(self, capsys, argv):
        code, err = self.outcome(capsys, argv)
        assert code == 2 and "error: argument --" in err and "Traceback" not in err

    @pytest.mark.parametrize("name", ["monomial_x", "monomial_", "monomial_-1", "monomial_1.5"])
    def test_a_malformed_monomial_is_an_unknown_entry(self, capsys, name):
        code, err = self.outcome(capsys, ("eval", name, "2"))
        assert code == 1 and err.startswith(f"error: DomainError: unknown catalog entry {name!r}")

    def test_a_bad_precision_from_the_environment_is_an_error(self, capsys, monkeypatch):
        monkeypatch.setenv("TSR_PRECISION", "0")
        code, err = self.outcome(capsys, ("eval", "ei", "3"))
        assert code == 1 and err.startswith("error: DomainError: precision must be at least one digit")

    @pytest.mark.parametrize("value", ["abc", "1.5", ""])
    def test_a_precision_from_the_environment_that_is_no_whole_number_is_an_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("TSR_PRECISION", value)
        code, err = self.outcome(capsys, ("eval", "ei", "3"))
        assert code == 1 and err.startswith(f"error: DomainError: TSR_PRECISION must be a whole number of digits, got {value!r}")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("sum", "log(x)", "-1"), "log x has no real value at x = -1.0"),
            (("sum", "log(x)", "0"), "log x has no real value at x = 0.0"),
            (("sum", "exp(-x)*x^(1/2)", "-1"), "x^(1/2) has no real value at x = -1.0"),
            (("sum", "exp(700*x)", "2", "--json"), "--json writes a double, and the sum 1.0286666608519891832e+608 is beyond the double range"),
            (("eval", "ei", "1000", "--json"), "--json writes a double, and the value 1.9720451371412383028e+431 is beyond the double range"),
            (("integrate", "erfi_integrand", "1", "30", "--json"), "--json writes a double, and the value 1.222148765104476398e+389 is beyond the double range"),
            (("sum", "#ei", "1e10000000"), "decimal exponents are limited to 10000 in size, got '1e10000000'"),
            (("eval", "ei", "-1E+1_000_000"), "decimal exponents are limited to 10000 in size, got '-1E+1_000_000'"),
        ],
    )
    def test_a_sum_without_a_real_double_value_is_a_domain_error(self, capsys, argv, message):
        # these printed a bare ValueError (a complex log or power, an
        # infinite double's rounding); the decimal exponents took seconds
        # to build 10^e before the range check
        with time_budget(1.0):
            assert self.outcome(capsys, argv) == (1, f"error: DomainError: {message}\n")

    def test_a_sum_beyond_the_double_range_prints_as_text(self, cli):
        assert cli("sum", "exp(700*x)", "2")[:2] == (0, "1.0286666608519891832e+608  (error <= 1.15e+588)\n")

    def test_a_real_value_beyond_the_double_range_prints_as_text(self, cli):
        # --json refuses it (above); the text form prints its digits
        assert cli("eval", "ei", "1000")[:2] == (0, "1.9720451371412383028e+431\n")
        assert cli("integrate", "erfi_integrand", "1", "30")[:2] == (0, "1.222148765104476398e+389\n")

    @pytest.mark.parametrize("text", ["garbage", "[]", "5", '{"log": 5}', '{"minus": {"series": {"": {"oracle": "nope", "order": 3}}}}'])
    def test_malformed_json_input_is_a_domain_error(self, capsys, monkeypatch, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, err = self.outcome(capsys, ("sum", "-", "5"))
        assert code == 1 and err.startswith("error: DomainError: - holds no transseries JSON: ")

    def test_a_missing_json_file_is_a_domain_error(self, capsys, tmp_path):
        code, err = self.outcome(capsys, ("sum", f"@{tmp_path / 'none.json'}", "5"))
        assert code == 1 and err.startswith(f"error: DomainError: @{tmp_path / 'none.json'} holds no transseries JSON: FileNotFoundError")

    def test_the_smallest_values_are_accepted(self, cli):
        assert cli("eval", "ei", "w", "--terms", "1")[:2] == (0, "w^(w-1) + ...\n")
        assert cli("borel", "series![1, 1]", "--order", "0")[:2] == (0, "1\n")
        assert cli("eval", "monomial_2", "3")[:2] == (0, "9\n")
        assert cli("eval", "ei", "3", "--prec", "1")[:2] == (0, "1.0e+1\n")
