"""Self-tests of the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import mpmath as mp
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, execute, refs, run, speed  # noqa: E402
from perfbench.spans import Span, Tracer, self_times, totals  # noqa: E402
from perfbench.stats import median, quantile  # noqa: E402
from perfbench.workloads import TEMPLATES, WORKLOADS, Dyadic, Op, generate, repeat_share, variants  # noqa: E402


# -- quantiles -----------------------------------------------------------------------


def test_quantile_reports_sample_count_and_tail():
    p = quantile(list(range(1, 41)), 0.75)
    assert (p.n, p.beyond) == (40, 10)
    assert p.value == pytest.approx(30.5, abs=0.01)  # q n + 1/2 on 1..n


def test_quantile_is_order_free_and_rejects_empty():
    assert median([5, 1, 4, 2, 3]).value == pytest.approx(3.0)
    assert median([4.0, 1.0, 3.0, 2.0]).value == pytest.approx(2.5)
    with pytest.raises(ValueError):
        quantile([], 0.5)


def test_quantile_moves_less_than_one_order_statistic():
    # a sample with a gap at the median: nearest rank jumps, the estimate does not
    low, high = [10.0] * 20 + [20.0] * 21, [10.0] * 21 + [20.0] * 20
    assert abs(median(low).value - median(high).value) < 2.0


# -- spans ------------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("op", 0.0, 10.0, -1, 0),
        Span("child", 2.0, 5.0, 0, 0),
        Span("grandchild", 3.0, 4.0, 1, 0),
        Span("child", 6.0, 7.0, 0, 0),
    ]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert totals(spans)["child"] == (3.0, 2)


def test_tracer_nests_and_closes_spans_on_error():
    tr = Tracer()
    tr.op = 7
    with pytest.raises(ZeroDivisionError):
        with tr.span("outer"):
            with tr.span("inner"):
                1 / 0
    outer, inner = tr.spans
    assert (outer.parent, inner.parent, inner.op) == (-1, 0, 7)
    assert outer.start <= inner.start <= inner.end <= outer.end


# -- workloads ------------------------------------------------------------------------------


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_ops(workload):
    assert generate(workload, 11) == generate(workload, 11)


def test_seeds_differ_and_composition_does_not():
    a, b = generate("resum_numeric", 1), generate("resum_numeric", 2)
    assert a != b
    assert [(op.kind, op.check) for op in a] == [(op.kind, op.check) for op in b]


def test_every_run_has_enough_ops_for_the_p75_tail():
    for workload in WORKLOADS:
        assert quantile(range(len(generate(workload, 0))), 0.75).beyond >= 9


@pytest.mark.parametrize("seed", range(5))
def test_clusters_never_repeat_an_input(seed):
    """Pools and jittered points draw without repetition within a block."""
    ei = [op.args[1] for op in generate("surreal_exact", seed) if op.key.startswith("extend|ei|") and "w" in op.args[1]]
    assert len(ei) == len(set(ei)) >= 18
    oracle = generate("oracle_mixed", seed)
    bi = [op.args[1] for op in oracle if op.args[:1] == ("airy_bi",) and op.args[-1] == 30]
    erfi = [op.args[1:3] for op in oracle if op.kind == "integrate" and op.args[0] == "erfi_integrand" and "w" in op.args[2]]
    assert len(bi) == len(set(bi)) >= 16 and len(erfi) == len(set(erfi)) == 9
    assert repeat_share(generate("surreal_exact", seed)) < 0.05


def test_repeat_share_ignores_terms_and_precision_but_not_points():
    ops = [
        Op("extend", ("ei", "w+1", 16, 50), "golden", "value", 1.0, ""),
        Op("extend", ("ei", "w+1", 32, 30), "golden", "value", 1.0, ""),
        Op("extend", ("ei", "w+2", 16, 50), "golden", "value", 1.0, ""),
        Op("cli", ("eval", "ei", "omega", "--terms", "8"), "golden", "value", 1.0, ""),
        Op("extend", ("ei", "w", 8, 50), "golden", "value", 1.0, ""),
    ]
    assert repeat_share(ops) == pytest.approx(2 / 5)


def test_dyadic_points_are_exact_in_decimal():
    rng = __import__("random").Random(0)
    for _ in range(50):
        text = Dyadic(5.0, 0.5).draw(rng)
        q = Fraction(text)
        assert q.denominator <= 64 and Fraction(4.5) <= q <= Fraction(5.5)
        assert Fraction(float(text)) == q


def test_every_exact_variant_has_an_expected_text():
    for workload, templates in TEMPLATES.items():
        expected = checks.load_expected(workload)
        for t in templates:
            if t.check in ("golden", "mixed"):
                missing = [op.key for op in variants(t) if op.key not in expected]
                assert not missing, missing


# -- passes and tracing ------------------------------------------------------------------------


def test_typical_takes_the_median_pass_and_any_failure():
    a = execute.Outcome(seconds=0.3, payload={"v": 1}, first_term_s=0.2)
    b = execute.Outcome(seconds=0.1, payload={"v": 1}, first_term_s=0.05, failure="wrong value")
    c = execute.Outcome(seconds=0.2, payload={"v": 1}, first_term_s=0.1)
    merged = run.typical([a, None, b, c])
    assert (merged.seconds, merged.first_term_s, merged.failure, merged.payload) == (0.2, 0.1, "wrong value", {"v": 1})


def test_typical_scales_each_pass_by_its_speed_factor():
    slow = execute.Outcome(seconds=0.2, first_term_s=0.1, scale=0.5)
    fast = execute.Outcome(seconds=0.1, first_term_s=0.05, scale=1.0)
    assert run.typical([slow, fast]).seconds == pytest.approx(0.1)
    assert run.typical([slow, fast], scaled=False).seconds == pytest.approx(0.15)


def test_speed_factor_is_reference_over_the_local_median():
    factors = speed.factors([2.0, 2.0, 4.0, 4.0, 4.0, 4.0])
    assert len(factors) == 5
    assert factors[0] == pytest.approx(speed.REFERENCE_MS / 3.0)  # loops 0-3
    assert factors[4] == pytest.approx(speed.REFERENCE_MS / 4.0)  # loops 2-5
    inside = [[], [], [8.0, 8.0, 8.0], [8.0], []]  # op 2 ran long enough to sample
    assert speed.factors([2.0, 2.0, 4.0, 4.0, 4.0, 4.0], inside)[2:4] == pytest.approx(
        [speed.REFERENCE_MS / 8.0, speed.REFERENCE_MS / 4.0]
    )


def test_sampler_times_the_loop_while_an_op_runs():
    with speed.Sampler().active() as sampler:
        t = time.process_time()
        while time.process_time() - t < 4 * speed.PERIOD_S:
            pass
    assert len(sampler.loops) >= speed.MIN_INSIDE and sampler.spent_s > 0


def test_forked_pass_returns_its_result_and_keeps_its_changes():
    state = {"n": 1}

    def bump():
        state["n"] += 1
        return state["n"]

    assert run.in_child(bump) == 2
    assert state["n"] == 1
    with pytest.raises(RuntimeError):
        run.in_child(lambda: 1 / 0)


def test_traced_op_equals_untraced_and_restores_tsr():
    op = Op("eb_sum", ("3*#ei - 1/2*#stirling", "6.0", 30), "ref", "value", 20.0, "")
    laplace_before = vars(execute._laplace_mod)["laplace"]
    ctx, tracer = execute.Context([op]), Tracer()
    plain, traced = execute.run_op(op, 0, ctx), execute.run_op(op, 0, ctx, tracer)
    assert not plain.error and plain.payload == traced.payload
    assert vars(execute._laplace_mod)["laplace"] is laplace_before
    names = {sp.name for sp in tracer.spans}
    assert {"resummation.resolve", "resummation.borel", "resummation.laplace", "transseries.coeffs"} <= names
    assert ctx.stats.kernel_evals > 0 and sum(ctx.stats.kernel_kinds.values()) == 1


# -- closed forms -----------------------------------------------------------------------------


def test_closed_forms():
    assert refs.erfi_at_omega_coefficients(4) == [Fraction(1, 2), Fraction(1, 4), Fraction(3, 8), Fraction(15, 16)]
    assert refs.ei_at_omega_coefficients(5) == [1, 1, 2, 6, 24]
    assert refs.borel_coefficients("#ei", 5) == [1] * 6
    assert refs.borel_coefficients("#stirling", 4) == [Fraction(1, 12), 0, Fraction(-1, 720), 0, Fraction(1, 30240)]
    assert refs.airy_u(1) == Fraction(5, 72)
    with mp.workdps(30):
        assert refs.series_sum("3/2*#ei", mp.mpf(7)) == 3 * refs.series_sum("#ei", mp.mpf(7)) / 2


def test_expected_texts_agree_with_closed_forms():
    expected = checks.load_expected("surreal_exact")
    assert expected["cli|integrate|exp|0|omega"] == "w^w - 1"
    for key, text in expected.items():
        if key.startswith("cli|") and key.endswith("--json"):
            op = Op("cli", tuple(key.split("|")[1:]), "golden", "value", 1.0, "")
            assert checks.closed_form_problem(op, {"stdout": text}) == "", key


# -- the output checker ------------------------------------------------------------------------


def _outcome(payload, error=""):
    return SimpleNamespace(payload=payload, error=error, detail="")


def test_checker_rejects_a_perturbed_value():
    op = Op("eb_value", ("ei", "5.0", 30), "ref", "value", 1.0, "")
    with mp.workdps(50):
        ref = checks.reference(op)
        good, bad = ref * (1 + mp.mpf("1e-14")), ref * (1 + mp.mpf("1e-8"))
    assert checks.check(op, _outcome({"type": "eb", "value": good, "err": 0}), ref, {}) == ""
    assert "off the reference" in checks.check(op, _outcome({"type": "eb", "value": bad, "err": 0}), ref, {})


def test_checker_rejects_a_perturbed_exact_text():
    op = Op("extend", ("ei", "w-3", 8, 50), "golden", "value", 1.0, "")
    expected = {op.key: "e^(-3)*(w^(w-1) + 4*w^(w-2))"}
    ok = _outcome({"type": "surreal", "text": expected[op.key]})
    perturbed = _outcome({"type": "surreal", "text": "e^(-3)*(w^(w-1) + 5*w^(w-2))"})
    assert checks.check(op, ok, None, expected) == ""
    assert checks.check(op, perturbed, None, expected) != ""


def test_checker_rejects_perturbed_closed_form_terms():
    op = Op("cli", ("eval", "ei", "omega", "--terms", "3", "--json"), "golden", "value", 1.0, "")
    terms = [{"exp": {}, "coef": c} for c in ("1", "1", "3")]
    stdout = json.dumps({"normal_form_terms": [{"prefactor": "1", "terms": terms}]})
    payload = {"type": "cli", "code": 0, "stdout": stdout + "\n", "stderr": ""}
    assert checks.check(op, _outcome(payload), None, {op.key: stdout}) != ""


def test_pinned_error_passes_and_other_errors_fail():
    op = Op("extend", ("loggamma", "2*w+1", 8, 50), "error", "UnsupportedPointError", 1.0, "")
    assert checks.check(op, _outcome(None, "UnsupportedPointError"), None, {}) == ""
    assert checks.check(op, _outcome(None, "ZeroDivisionError"), None, {}) != ""
    assert checks.check(op, _outcome({"type": "surreal", "text": "0"}), None, {}) != ""
