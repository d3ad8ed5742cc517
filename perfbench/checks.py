"""The output checker: every op's outcome against its pinned expectation.

Decimal outputs are compared with mpmath references (``refs.py``) at a
relative tolerance; exact outputs with the checked-in texts in
``expected/<workload>.json`` and, where a closed form is known, with it too.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import mpmath as mp

from . import refs

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"
FINITE_SUFFIX = "+w^-1"


def load_expected(workload: str) -> dict[str, str]:
    path = EXPECTED_DIR / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def _mp(text: str):
    """Exact value of a rational or dyadic decimal string, at the current precision."""
    q = Fraction(text)
    return mp.mpf(q.numerator) / q.denominator


def _cli_parts(op):
    """(verb, positional args, precision) of a CLI op."""
    argv = [str(a) for a in op.args]
    prec = int(argv[argv.index("--prec") + 1]) if "--prec" in argv else 50
    first_flag = next((i for i, a in enumerate(argv) if a.startswith("--")), len(argv))
    return argv[0], argv[1:first_flag], prec


def precision_of(op) -> int:
    if op.kind == "cli":
        return _cli_parts(op)[2]
    if op.kind == "laws":
        return 50
    return op.args[-1]


def reference(op):
    """The independent reference for a ref / mixed / taylor op (None otherwise)."""
    if op.check not in ("ref", "mixed", "taylor"):
        return None
    with mp.workdps(precision_of(op) + refs.GUARD_DIGITS):
        if op.kind == "cli":
            verb, pos, _ = _cli_parts(op)
            if verb == "eval":
                return refs.FUNCTION[pos[0]](_mp(pos[1]))
            if verb == "sum":
                return refs.series_sum(pos[0], _mp(pos[1]))
            if verb == "integrate":
                return refs.definite_integral(pos[0], _mp(pos[1]), _mp(pos[2]))
            raise ValueError(f"no reference for CLI verb {verb!r}")
        name = op.args[0]
        if op.kind == "extend" and op.check == "taylor":
            x0 = _mp(op.args[1][: -len(FINITE_SUFFIX)])
            return refs.taylor_coefficients(name, x0, op.args[2])
        if op.kind in ("extend", "eb_value"):
            return refs.FUNCTION[name](_mp(op.args[1]))
        if op.kind == "eb_sum":
            return refs.series_sum(name, _mp(op.args[1]))
        if op.kind == "integrate" and op.check == "mixed":
            # integral(a..w) = A(w) - A(a); the surreal part carries A(w)
            return -refs.ANTIDERIVATIVE[name](_mp(op.args[1]))
        if op.kind == "integrate":
            return refs.definite_integral(name, _mp(op.args[1]), _mp(op.args[2]))
    raise ValueError(f"no reference for {op.key}")


def tolerance(op) -> float:
    if op.kind == "cli":
        verb, pos, prec = _cli_parts(op)
        if verb == "sum":
            return max(refs.SUM_TOLERANCE, refs.CLI_DIGITS_TOLERANCE)
        return refs.rel_tolerance(pos[0], prec, integral=verb == "integrate", cli=True)
    if op.kind == "eb_sum":
        return max(refs.SUM_TOLERANCE, 10.0 ** -(op.args[-1] - 3))
    return refs.rel_tolerance(op.args[0], op.args[-1], integral=op.kind == "integrate")


def _close(got, ref, tol) -> bool:
    with mp.workdps(60):
        got, ref = mp.mpf(got), mp.mpf(ref)
        return abs(got - ref) <= tol * (abs(ref) if ref != 0 else 1)


def cli_number(stdout: str):
    """The leading decimal of `tsr eval|sum|integrate` text output."""
    return mp.mpf(stdout.split()[0])


def cli_error_estimate(stdout: str):
    """The E of 'value  (error <= E)'."""
    return mp.mpf(stdout.rsplit("<=", 1)[1].strip().rstrip(")"))


def decimal_result(payload):
    if payload["type"] == "cli":
        return cli_number(payload["stdout"])
    if payload["type"] in ("number", "eb"):
        return payload["value"]
    raise TypeError(f"no decimal value in a {payload['type']} result")


def closed_form_problem(op, payload) -> str:
    """Cross-check against a known closed form; '' when it holds or none applies."""
    if op.kind != "cli":
        return ""
    argv = [str(a) for a in op.args]
    if argv == ["integrate", "exp", "0", "omega"]:
        got = payload["stdout"].strip()
        return "" if got == "w^w - 1" else f"integral of exp over [0, w] is w^w - 1, got {got!r}"
    if "--json" not in argv:
        return ""
    terms = int(argv[argv.index("--terms") + 1])
    if argv[:3] == ["eval", "ei", "omega"]:
        want, label = refs.ei_at_omega_coefficients(terms), "Ei(w) coefficients (k-1)!"
    elif argv[:4] == ["integrate", "erfi_integrand", "0", "omega"]:
        want, label = refs.erfi_at_omega_coefficients(terms), "erfi integral coefficients"
    else:
        return ""
    groups = json.loads(payload["stdout"])["normal_form_terms"]
    got = [Fraction(t["coef"]) for g in groups for t in g["terms"]]
    if len(groups) != 1 or groups[0]["prefactor"] != "1" or got != want:
        return f"{label} differ from the closed form"
    return ""


def check(op, out, ref, expected: dict) -> str:
    """'' when the outcome matches the op's pin, else why it does not."""
    if out.error:
        if op.check == "error" and out.error == op.pin:
            return ""
        return f"{out.error}: {out.detail}"
    if op.check == "error":
        return f"expected {op.pin}, got a value"
    p = out.payload
    kind = op.check
    if kind == "golden":
        text = p["stdout"].rstrip("\n") if p["type"] == "cli" else p.get("text")
        if op.key not in expected:
            return "no expected output for this op"
        if text != expected[op.key]:
            return "exact output differs from the expected text"
        return closed_form_problem(op, p)
    if kind == "ref":
        tol = tolerance(op)
        return "" if _close(decimal_result(p), ref, tol) else f"value off the reference by more than {tol:g}"
    if kind == "mixed":
        if p["type"] != "mixed":
            return f"expected a surreal value plus a real offset, got {p['type']}"
        if expected.get(op.key) != p["text"]:
            return "exact part differs from the expected text"
        tol = refs.rel_tolerance(op.args[0], op.args[-1], integral=True)
        return "" if _close(p["offset"], ref, tol) else f"real offset off the reference by more than {tol:g}"
    if kind == "taylor":
        if p["type"] != "taylor":
            return f"expected decimal Taylor coefficients, got {p['type']}"
        tol = refs.rel_tolerance(op.args[0], op.args[-1])
        if len(p["coeffs"]) != len(ref):
            return "wrong number of Taylor coefficients"
        bad = [k for k, (g, r) in enumerate(zip(p["coeffs"], ref)) if not _close(g, r, tol)]
        return f"Taylor coefficients {bad} off by more than {tol:g}" if bad else ""
    if kind == "laws":
        failed = [law for law, ok, _ in p["results"] if not ok]
        return f"laws failed: {failed}" if failed or not p["results"] else ""
    if kind == "borel":
        series, order = op.args[1], int(op.args[op.args.index("--order") + 1])
        got = [Fraction(c) for c in json.loads(p["stdout"])["coeffs"]]
        return "" if got == refs.borel_coefficients(series, order) else "Borel coefficients differ from the closed form"
    raise ValueError(f"unknown check {kind!r}")


def estimate_missed(op, out, ref) -> bool:
    """A resummation whose error to the reference exceeds its reported error."""
    if out.error or ref is None or out.payload is None:
        return False
    p = out.payload
    if p["type"] == "eb":
        value, err = p["value"], p["err"]
    elif p["type"] == "cli" and op.args[0] == "sum":
        value, err = cli_number(p["stdout"]), cli_error_estimate(p["stdout"])
    else:
        return False
    with mp.workdps(60):
        return abs(mp.mpf(value) - ref) > mp.mpf(err)
