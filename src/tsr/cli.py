"""Command-line front end.

Verbs: parse, diff, antidiff, mul, borel, weights, sum, eval, integrate,
check, catalog.  Text output by default, --json for machine-readable form.
Exit codes: 0 success, 1 domain or numeric failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

import mpmath as mp
from mpmath import libmp

from . import errors, scanner
from .resummation import (
    QuadratureConfig,
    average_consistency_check,
    borel_transform,
    catalan_weight,
    catalan_weight_literal,
    eb_sum,
    parse_address,
)
from .surreal import parse_nf
from .transseries import (
    PowerSeries,
    groups_of,
    ts_antidiff,
    ts_diff,
    ts_from_json,
    ts_mul_minus,
    ts_parse,
    ts_print,
    ts_to_json,
)


#: the common options' values where they are given neither before nor after the verb
_DEFAULTS = {"terms": 8, "prec": None, "tol": 1e-10, "json": False}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # built on the first ``run`` and shared by every later one: parse_args
    # writes only the namespace it returns.  The common options go before
    # or after the verb and default to unset, so a verb's parser leaves one
    # given before the verb alone; ``run`` fills in _DEFAULTS (argparse
    # shares a parent's actions, defaults included, with every parser built
    # from it)
    common = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    positive = _checked(int, lambda n: n >= 1, "at least 1")
    tolerance = _checked(float, lambda t: math.isfinite(t) and t > 0, "finite and positive")
    common.add_argument("--terms", type=positive, help="series terms to print (default 8)")
    common.add_argument("--prec", type=positive, help="working decimal precision (default 50)")
    common.add_argument("--tol", type=tolerance, help="quadrature tolerance target")
    common.add_argument("--json", action="store_true", help="machine-readable output")

    ap = argparse.ArgumentParser(
        prog="tsr",
        description="transseries calculus, Ecalle-Borel resummation, and surreal integration",
        parents=[common],
    )
    sub = ap.add_subparsers(dest="verb", required=True)

    def add(verb, hlp):
        return sub.add_parser(verb, help=hlp, parents=[common])

    for verb, hlp in [
        ("parse", "parse an expression and print its normalized form"),
        ("diff", "differentiate a transseries expression"),
        ("antidiff", "antidifferentiate a transseries expression"),
    ]:
        add(verb, hlp).add_argument("expression")

    p = add("mul", "multiply two decaying transseries")
    p.add_argument("left")
    p.add_argument("right")

    p = add("borel", "Borel transform of a power series in 1/x")
    p.add_argument("expression")
    p.add_argument("--order", type=_checked(int, lambda n: n >= 0, "at least 0"), default=12)

    p = add("weights", "exact Catalan weight of an address like ++-")
    p.add_argument("address")
    p.add_argument("--literal", action="store_true", help="use the printed (inconsistent) formula")

    p = add("sum", "Ecalle-Borel sum a transseries (JSON or expression) at x")
    p.add_argument("transseries", help="expression, or @file.json / - for JSON input")
    p.add_argument("x", help="a finite real number, such as 10, 2.5 or 1/3")

    point_help = "a real number, 'omega', or a normal form like 'w+3' or '-w'"
    p = add("eval", "evaluate a catalog function at a point")
    p.add_argument("name")
    p.add_argument("point", help=point_help)

    p = add("integrate", "integrate a catalog function between two points")
    p.add_argument("name")
    p.add_argument("lower", help=point_help)
    p.add_argument("upper", help=point_help)

    p = add("check", "run the diagnostic suites")
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=["all", "averaging", "laws", "watson"],
    )

    p = add("catalog", "list catalog entries or dump the manifest")
    p.add_argument("--manifest", action="store_true")
    return ap


def _checked(kind, ok, what: str):
    """An argparse type: ``kind(text)``, refused unless ``ok`` holds for it."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text.strip()}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _point(text: str):
    text = text.strip().replace("omega", "w")
    try:
        return scanner.fraction(text)
    except (ValueError, ZeroDivisionError):
        return parse_nf(text)


def _real(text: str) -> Fraction:
    """A finite real number, exactly: an integer, a decimal or a ratio.  It
    must lie within the range of a double, as the JSON output's value does."""
    try:
        x = scanner.fraction(text)
    except (ValueError, ZeroDivisionError):
        x = None
    if x is None or abs(x) > sys.float_info.max:
        raise errors.DomainError(f"x must be a finite real number within the double range, got {text!r}")
    return x


def _json_input(src: str):
    """The transseries that the JSON on stdin (``-``) or in a file (``@path``)
    holds; an unreadable file, text that is not JSON and JSON that is not a
    transseries (``ts_from_json``) are each a DomainError."""
    try:
        if src == "-":
            obj = json.load(sys.stdin)
        else:
            with open(src[1:]) as fh:
                obj = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise errors.DomainError(f"{src} holds no transseries JSON: {type(exc).__name__}: {exc}") from None
    try:
        return ts_from_json(obj)
    except errors.DomainError as exc:
        raise errors.DomainError(f"{src} holds no transseries JSON: {exc}") from None


def _config(ns) -> QuadratureConfig:
    prec = ns.prec
    if prec is None:
        text = os.environ.get("TSR_PRECISION", "50")
        try:
            prec = int(text)
        except ValueError:
            raise errors.DomainError(f"TSR_PRECISION must be a whole number of digits, got {text!r}") from None
    return QuadratureConfig(abs_tol=ns.tol / 100, rel_tol=ns.tol, precision=prec)


def _emit_value(ns, payload: dict, text: str) -> None:
    if ns.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _emit_ts(ns, ts) -> None:
    """A T1 as JSON (each part as its list of groups) under --json, else as text."""
    print(json.dumps(ts_to_json(ts, ns.terms), sort_keys=True) if ns.json else ts_print(ts, ns.terms))


def _positional_points(argv: list[str]) -> list[str]:
    """argv with a leading space on each argument that starts with one '-'
    (-w, -1/x, -#ei, -+).  argparse reads such an argument as an option
    unless it is a plain negative number or contains a space; ``run`` takes
    the space off again."""
    return [" " + a if a[:1] == "-" and a[1:2] not in ("", "-") and a != "-h" else a for a in argv]


def run(argv=None) -> int:
    ns = build_parser().parse_args(_positional_points(sys.argv[1:] if argv is None else list(argv)))
    for name, value in vars(ns).items():
        if isinstance(value, str) and value.startswith(" -"):
            setattr(ns, name, value[1:])
    for name, value in _DEFAULTS.items():
        vars(ns).setdefault(name, value)
    try:
        return _dispatch(ns, _config(ns))
    except errors.ExpressionSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except errors.TsrError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def _dispatch(ns, cfg: QuadratureConfig) -> int:
    verb = ns.verb

    if verb in ("parse", "diff", "antidiff"):
        ts = ts_parse(ns.expression)
        if verb == "diff":
            ts = ts_diff(ts)
        elif verb == "antidiff":
            ts = ts_antidiff(ts)
        _emit_ts(ns, ts)
        return 0

    if verb == "mul":
        _emit_ts(ns, ts_mul_minus(ts_parse(ns.left), ts_parse(ns.right)))
        return 0

    if verb == "borel":
        ts = ts_parse(ns.expression)
        exponential = [g for g in groups_of(ts) if g.mu]
        parts = (("exponential groups", exponential), ("log part", ts.log.P), ("polynomial or constant part", ts.log.Q))
        left = [name for name, part in parts if part]
        if left:
            raise errors.DomainError(f"borel takes a power series in 1/x; it would leave out: {', '.join(left)}")
        poly = borel_transform(ts.minus[0].series if ts.minus else PowerSeries.zero(), ns.order)
        payload = {"coeffs": [str(c) for c in poly.coeffs]}
        _emit_value(ns, payload, " ".join(str(c) for c in poly.coeffs))
        return 0

    if verb == "weights":
        address = parse_address(ns.address)
        w = catalan_weight_literal(address) if ns.literal else catalan_weight(address)
        _emit_value(ns, {"address": address, "weight": str(w)}, str(w))
        return 0

    if verb == "sum":
        src = ns.transseries
        ts = _json_input(src) if src == "-" or src.startswith("@") else ts_parse(src)
        val, err = eb_sum(ts, _real(ns.x), cfg)
        text = mp.nstr(val, _digits(cfg))
        if ns.json and abs(val) > sys.float_info.max:
            raise errors.DomainError(f"--json writes a double, and the sum {text} is beyond the double range")
        # each emitted bound covers the value emitted with it: err plus the
        # rounding to the printed digits, or to the JSON double
        with mp.workdps(cfg.precision + 10):
            emitted = float(val) if ns.json else mp.mpf(text)
            n, e = _rounded_up(err + abs(val - emitted))
            bound = mp.nstr(mp.mpf(f"{n}e{e}"), 3)
        if ns.json:
            print(json.dumps({"error_estimate": _float_up(n, e), "value": emitted}, sort_keys=True))
        else:
            print(f"{text}  (error <= {bound})")
        return 0

    if verb == "eval":
        from .operators import extend

        entry = _entry(ns.name)
        point = _point(ns.point)
        result = extend(entry, point, ns.terms, cfg=cfg)
        return _print_result(ns, cfg, result)

    if verb == "integrate":
        from .operators import integrate

        entry = _entry(ns.name)
        result = integrate(entry, _point(ns.lower), _point(ns.upper), ns.terms, cfg=cfg)
        return _print_result(ns, cfg, result)

    if verb == "check":
        return _run_checks(ns, cfg)

    if verb == "catalog":
        from .operators import catalog, catalog_manifest

        if ns.manifest:
            print(json.dumps(catalog_manifest(), indent=2, sort_keys=True))
        else:
            for name in sorted(catalog()):
                print(name)
        return 0

    return 2


def _entry(name: str):
    from .operators import catalog, monomial_entry

    reg = catalog()
    if name in reg:
        return reg[name]
    power = name.removeprefix("monomial_")
    if power != name and power.isdecimal():
        return monomial_entry(int(power))
    raise errors.DomainError(f"unknown catalog entry {name!r}; see `tsr catalog`")


def _rounded_up(err) -> tuple[int, int]:
    """(n, e) with err <= n 10^e and 100 <= n <= 1000, or (0, 0) for 0: err
    to three significant digits, rounded up, so a bound stays a bound.  n is
    the ceiling of t >= err/10^e, from directed rounding at 64 bits past
    err's and 4|e| more up to |e| = 1000, where that makes n the least.
    Beyond, n may be a unit high, but no exact 10^e, a huge number, is built."""
    if not err:
        return 0, 0
    s, up = err._mpf_, libmp.round_ceiling
    wp = (s[2] + s[3]).bit_length() + 64
    e = libmp.to_int(libmp.mpf_div(libmp.mpf_log(s, wp), libmp.mpf_ln10(wp), wp), libmp.round_floor) - 3
    while True:  # from 10^e <= err/100 up to the third digit's unit
        wp = s[3] + 64 + (4 * abs(e) if abs(e) <= 1000 else 0)
        ten = libmp.mpf_pow_int(libmp.from_int(10), abs(e), wp, libmp.round_floor if e > 0 else up)
        t = libmp.mpf_div(s, ten, wp, up) if e > 0 else libmp.mpf_mul(s, ten, wp, up)
        if libmp.mpf_cmp(t, libmp.from_int(1000)) < 0:
            return libmp.to_int(libmp.mpf_ceil(t)), e
        e += 1


def _float_up(n: int, e: int) -> float:
    """The least double not below q = n 10^e, 0 <= n <= 1000.  An e below
    -400 is read as -400: for q under 10^-397 that double is the least
    positive one."""
    q = n * Fraction(10) ** max(e, -400)
    f = float(q)
    return f if Fraction(f) >= q else math.nextafter(f, math.inf)


def _digits(cfg: QuadratureConfig) -> int:
    """Digits printed for a decimal value: 20, or fewer at a lower precision."""
    return min(20, cfg.precision)


def _print_result(ns, cfg: QuadratureConfig, result) -> int:
    if isinstance(result, mp.mpf):
        text = mp.nstr(result, _digits(cfg))
        if ns.json and abs(result) > sys.float_info.max:
            raise errors.DomainError(f"--json writes a double, and the value {text} is beyond the double range")
        _emit_value(ns, {"value": float(result)}, text)
    else:
        digits = _digits(cfg)
        print(json.dumps(result.to_json(ns.terms, digits)) if ns.json else result.render(ns.terms, digits))
    return 0


def _run_checks(ns, cfg: QuadratureConfig) -> int:
    ok = True
    results = {}
    if ns.suite in ("all", "averaging"):
        rep = average_consistency_check(10)
        lit = average_consistency_check(2, catalan_weight_literal, "literal formula")
        results["averaging"] = {
            "consistent_family_passes": rep.passed,
            "total_mass": {n: str(m) for n, m in sorted(rep.total_mass.items())},
            "literal_formula_fails": not lit.passed,
            "literal_failure": {"at": lit.first_failure, "children_sum": str(lit.lhs), "parent": str(lit.rhs)},
        }
        if not ns.json:
            print(rep.summary())
            print("  total mass per length:", {n: str(m) for n, m in sorted(rep.total_mass.items())})
            print(lit.summary())
        ok = ok and rep.passed and not lit.passed
    if ns.suite in ("all", "watson"):
        from .resummation import CothKernel, sqrt_branch_kernel, watson_check

        results["watson"] = []
        for label, kernel, a, b in [
            ("sqrt-branch", sqrt_branch_kernel(1, 1), 1, 0),
            ("coth", CothKernel(), 2, 0),
        ]:
            rep = watson_check(kernel, a=a, b=b, K=3, cfg=cfg)
            results["watson"].append({"kernel": label, "passed": rep.passed, "fitted_C": rep.fitted_C})
            if not ns.json:
                print(rep.summary())
            ok = ok and rep.passed
    if ns.suite in ("all", "laws"):
        from .operators.laws import antidiff_laws, extension_laws, integral_laws

        results["laws"] = {}
        for suite in (antidiff_laws(cfg), extension_laws(cfg), integral_laws(cfg)):
            results["laws"][suite.suite] = {law: good for law, good, _ in suite.results}
            if not ns.json:
                print(suite.summary())
            ok = ok and suite.passed
    if ns.json:
        print(json.dumps({"passed": ok, "results": results}, sort_keys=True))
    return 0 if ok else 1


def main() -> None:
    # exact values print with all their digits, past the 4300 that Python
    # (3.10.7 on) allows an int-to-str conversion by default
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sys.exit(run())


if __name__ == "__main__":
    main()
