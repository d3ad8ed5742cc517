"""Generated argvs over the CLI's verbs: every one ends well.

Hypothesis draws argvs for ``parse``, ``diff``, ``antidiff``, ``mul``,
``sum``, ``borel``, ``eval``, ``integrate`` and ``weights`` from the
grammars' atoms (x, the named series, exponentials at both signs of the
rate, log x, powers, rationals, + - * / ^ and parentheses), with points
finite, finite plus 1/w, r*w + s and outside the grammar, catalog entries
and a few names that are not, and the common options.  Each argv must end
within a time budget in exit 0, 1 or 2 (argparse's own refusals included),
an exit 1 must name a ``TsrError`` subclass, and the ``--json`` of an
exit-0 ``parse``, ``diff`` or ``antidiff`` must read back to itself.  The
property is derandomized, so it runs the same argvs every time.
"""

import contextlib
import io
import json
import re

from conftest import time_budget
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tsr import errors
from tsr.cli import run
from tsr.transseries import ts_from_json, ts_to_json

ATOMS = ("x", "#ei", "#erfi", "#stirling", "#airy_u", "#airy_u_alt", "exp(-x)", "exp(x)", "exp(-3/2*x)", "exp(2*x)", "log(x)", "x^(1/2)", "x^2", "1/x", "3", "1/3", "series![1, 2]")  # fmt: skip
BROKEN = ("", "(", "x/0", "1/0", "#nope", "exp(x", "x^x", "exp(x^2)", "log(log(x))", "2**x")
POINTS = ("3", "1/2", "-1", "0", "2.5", "20", "3+w^-1", "w", "omega", "2*w+1", "w-3", "1/2*w", "-w", "w^2", "w^(1/2)", "w+w^-1", "nan", "1e400", "1e8", "1e300", "-1e300", "abc", "1/0")  # fmt: skip
ENTRIES = ("exp", "exp_neg", "ei_integrand", "ei", "erfi_integrand", "erfi_integral", "airy_ai", "airy_bi", "loggamma", "gamma", "exp_neg_over_x", "monomial_2", "nope")  # fmt: skip
ADDRESSES = ("+", "++-", "-+-+", "", "+x", "0")

#: every subclass of TsrError, by name
TSR_ERRORS = {cls.__name__ for cls in vars(errors).values() if isinstance(cls, type) and issubclass(cls, errors.TsrError)}


@st.composite
def expressions(draw, depth: int = 2):
    if depth == 0 or draw(st.booleans()):
        return draw(st.sampled_from(ATOMS))
    left, right = draw(expressions(depth - 1)), draw(expressions(depth - 1))
    op = draw(st.sampled_from((" + ", " - ", "*", "/", "^")))
    if op == "^":
        return f"({left})^{draw(st.integers(0, 3))}"
    text = left + op + right
    return f"({text})" if draw(st.booleans()) else text


def maybe_broken(inner):
    return st.one_of(inner, st.sampled_from(BROKEN))


OPTIONS = st.lists(
    st.one_of(
        st.just(("--json",)),
        st.tuples(st.just("--terms"), st.sampled_from(("1", "3", "8", "0"))),
        st.tuples(st.just("--prec"), st.sampled_from(("5", "15", "30", "0"))),
    ),
    max_size=2,
).map(lambda opts: tuple(a for opt in opts for a in opt))

ARGVS = st.one_of(
    st.tuples(st.sampled_from(("parse", "diff", "antidiff")), maybe_broken(expressions())),
    st.tuples(st.just("mul"), maybe_broken(expressions()), expressions()),
    st.tuples(st.just("sum"), maybe_broken(expressions()), st.sampled_from(POINTS)),
    st.tuples(st.just("borel"), maybe_broken(expressions()), st.just("--order"), st.sampled_from(("0", "4", "8"))),
    st.tuples(st.just("eval"), st.sampled_from(ENTRIES), st.sampled_from(POINTS)),
    st.tuples(st.just("integrate"), st.sampled_from(ENTRIES), st.sampled_from(POINTS), st.sampled_from(POINTS)),
    st.tuples(st.just("weights"), st.sampled_from(ADDRESSES), st.sampled_from(((), ("--literal",)))).map(lambda t: (*t[:2], *t[2])),
)


def outcome(argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``tsr`` on argv; argparse's refusal is exit 2."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ARGVS, OPTIONS)
def test_every_argv_ends_in_a_documented_way(argv, options):
    argv += options
    with time_budget(5.0):
        code, out, err = outcome(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 1:
        found = re.match(r"error: (\w+): ", err)
        assert found and found.group(1) in TSR_ERRORS, (argv, err)
    if code == 0 and argv[0] in ("parse", "diff", "antidiff") and "--json" in argv:
        # the JSON reads back to itself, at the --terms it was written with
        terms = int(argv[len(argv) - argv[::-1].index("--terms")]) if "--terms" in argv else 8
        obj = json.loads(out)
        assert ts_to_json(ts_from_json(obj), terms) == obj, argv
