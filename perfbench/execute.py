"""Running ops through tsr's public API, untraced or traced.

Both paths call the entry points a user calls (``extend``, ``integrate``,
``CatalogFunction.eb_value``, ``eb_sum``, the law suites, ``tsr.cli.run``).
The traced path runs them with spans around the layer calls they make
(``layer_spans``): ``extend`` and ``antidiff_no`` inside ``integrate``;
``series.coeff``, the resolver, ``resolve_default``, ``borel_transform``,
``p_integral`` and ``laplace`` inside ``eb_sum``; and, in this module,
``LazyNF.terms(N)`` and ``render`` on every exact value.  Nothing of tsr is
copied here, so the traced result equals the untraced one by construction
and tsr's internals stay free to change.

Each op runs under a deadline (SIGALRM); a hit counts as a failure.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import signal
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import mpmath as mp

from tsr import cli as tsr_cli
from tsr.operators import (
    CatalogFunction,
    DecoratedValue,
    NumericTaylor,
    SurrealValue,
    antidiff_no,
    catalog,
    extend,
    integrate,
)
from tsr.operators.laws import antidiff_laws, extension_laws, integral_laws
from tsr.resummation import QuadratureConfig, eb_sum
from tsr.surreal import SurrealNF, nf_add, nf_cmp, nf_mul, parse_nf
from tsr.transseries import PowerSeries, ts_parse

from .spans import Tracer

# The modules whose globals the traced pass patches (``catalog`` and
# ``laplace`` are also function names in their packages).
_catalog_mod = importlib.import_module("tsr.operators.catalog")
_extension_mod = importlib.import_module("tsr.operators.extension")
_laplace_mod = importlib.import_module("tsr.resummation.laplace")
_kernels_mod = importlib.import_module("tsr.resummation.kernels")
_KERNEL_CLASSES = [
    c for c in vars(_kernels_mod).values() if isinstance(c, type) and issubclass(c, _kernels_mod.BorelFunction)
]

LAW_SUITES = {"antidiff": antidiff_laws, "extension": extension_laws, "integral": integral_laws}
#: The configuration `tsr check laws` builds from its defaults (--tol 1e-10).
LAW_CONFIG = {"abs_tol": 1e-12, "rel_tol": 1e-10, "precision": 50}
#: Output normal forms are cut to this many terms for the NF probes, so one
#: probe multiplication stays far below a millisecond.
PROBE_TERMS = 4
PROBE_PAIRS = 32
#: Finite surreal points are written x0 + 1/w.
FINITE_SUFFIX = "+w^-1"


class DeadlineHit(BaseException):
    """An op ran past its deadline (BaseException so tsr's handlers pass it on)."""


@contextlib.contextmanager
def deadline(seconds: float):
    def on_alarm(signum, frame):
        raise DeadlineHit()

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class _NullSpan:
    mark = None


class _NullTracer:
    """Stands in for a Tracer in untraced runs."""

    op = -1
    _span = _NullSpan()

    @contextlib.contextmanager
    def span(self, name):
        yield self._span


NULL_TRACER = _NullTracer()


@dataclass
class Outcome:
    seconds: float = 0.0
    payload: Optional[dict] = None
    error: str = ""  # exception class name; "" when the op returned
    detail: str = ""
    first_term_s: Optional[float] = None
    nfs: list = field(default_factory=list)  # truncated output normal forms
    failure: str = ""  # set by the checker; "" means the op passed
    scale: float = 1.0  # times this: the time at the reference speed (speed.py)


@dataclass
class LayerStats:
    """Counts taken at layer boundaries during a traced pass."""

    kernel_kinds: Counter = field(default_factory=Counter)
    kernel_evals: int = 0
    kernel_eval_s: float = 0.0


def parse_point(text: str):
    try:
        return Fraction(text)
    except ValueError:
        return parse_nf(text)


class Context:
    """Pre-parsed points (outside the timed region) and the traced pass's counters."""

    #: args[1:end] of these kinds are points
    POINT_ARGS = {"extend": 2, "integrate": 3}

    def __init__(self, ops):
        self._points = {
            text: parse_point(text)
            for op in ops
            if op.kind in self.POINT_ARGS
            for text in op.args[1 : self.POINT_ARGS[op.kind]]
        }
        self.stats = LayerStats()

    def point(self, text):
        return self._points[text]


# -- one op ------------------------------------------------------------------------


def run_op(op, op_id: int, ctx: Context, tracer: Optional[Tracer] = None) -> Outcome:
    tr = tracer or NULL_TRACER
    tr.op = op_id
    out = Outcome()
    spans = layer_spans(tr, ctx.stats) if tracer is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with deadline(op.deadline_s), tr.span("op"), spans:
            out.payload, out.first_term_s, out.nfs = _perform(op, ctx, tr, t0)
    except DeadlineHit:
        out.error, out.detail = "DeadlineHit", f"no result within {op.deadline_s} s"
    except Exception as exc:  # the op boundary: record the failure and go on
        out.error, out.detail = type(exc).__name__, str(exc)[:300]
    out.seconds = time.perf_counter() - t0
    if out.payload and out.payload["type"] == "cli" and out.payload["code"] != 0:
        out.error, out.detail = _cli_error(out.payload)
    return out


def _cli_error(payload) -> tuple[str, str]:
    """'error: Name: message' on stderr -> (Name, message)."""
    text = payload["stderr"].strip()
    if text.startswith("error: "):
        name, _, msg = text[len("error: ") :].partition(": ")
        return name, msg[:300]
    return f"exit {payload['code']}", text[:300]


def _perform(op, ctx: Context, tr, t0: float):
    kind = op.kind
    if kind == "extend":
        name, point, terms, prec = op.args
        cfg = QuadratureConfig(precision=prec)
        with tr.span("operators.extend"):
            result = extend(catalog()[name], ctx.point(point), terms, cfg=cfg)
        return settle(result, terms, t0, tr)
    if kind == "integrate":
        name, lo, hi, terms, prec = op.args
        cfg = QuadratureConfig(precision=prec)
        result = integrate(catalog()[name], ctx.point(lo), ctx.point(hi), terms, cfg=cfg)
        return settle(result, terms, t0, tr)
    if kind == "eb_value":
        name, x, prec = op.args
        val, err = catalog()[name].eb_value(float(x), QuadratureConfig(precision=prec))
        return {"type": "eb", "value": val, "err": err}, None, []
    if kind == "eb_sum":
        expr, x, prec = op.args
        cfg = QuadratureConfig(precision=prec)
        with tr.span("transseries.parse"):
            ts = ts_parse(expr)
        val, err = eb_sum(ts, float(x), cfg)
        return {"type": "eb", "value": val, "err": err}, None, []
    if kind == "laws":
        suite = op.args[0]
        with tr.span(f"operators.laws.{suite}"):
            report = LAW_SUITES[suite](QuadratureConfig(**LAW_CONFIG))
        return {"type": "laws", "results": [list(r) for r in report.results]}, None, []
    if kind == "cli":
        stdout, stderr = io.StringIO(), io.StringIO()
        with tr.span("cli.run"), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = tsr_cli.run([str(a) for a in op.args])
            except SystemExit as exc:  # argparse rejects the argv
                code = exc.code if isinstance(exc.code, int) else 2
        payload = {"type": "cli", "code": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
        # a non-lazy exact output is available when the call returns
        first = time.perf_counter() - t0 if code == 0 and op.check in ("golden", "borel") else None
        return payload, first, []
    raise ValueError(f"unknown op kind {kind!r}")


def settle(result, terms: int, t0: float, tr):
    """Pull N terms of every group (timing the first), then render."""
    if isinstance(result, NumericTaylor):
        return {"type": "taylor", "coeffs": list(result.coefficients)}, None, []
    if isinstance(result, (SurrealValue, DecoratedValue)):
        surreal = result.surreal if isinstance(result, DecoratedValue) else result
        first = None
        with tr.span("surreal.pull") as sp:
            groups = surreal.merged().groups
            if groups:
                groups[0].stream.term(0)
                sp.mark = time.perf_counter()
                first = sp.mark - t0
            nfs = [g.stream.truncate(terms) for g in groups]
        with tr.span("surreal.render"):
            text = surreal.render(terms)
        payload = {"type": "surreal", "text": text}
        if isinstance(result, DecoratedValue):
            payload = {"type": "mixed", "text": text, "offset": result.offset}
        return payload, first, nfs
    if isinstance(result, mp.mpf):
        return {"type": "number", "value": result}, None, []
    raise TypeError(f"unexpected result type {type(result).__name__}")


# -- spans around the layer calls inside tsr's own entry points -------------------------


class CountingKernel:
    """Forwards to a Borel kernel, counting and timing its evaluations."""

    EVALS = frozenset({"value", "lateral", "averaged", "usub_value"})

    def __init__(self, inner, stats: LayerStats):
        self._inner = inner
        self._stats = stats

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if name not in self.EVALS:
            return attr
        stats = self._stats

        def timed(*args):
            t = time.perf_counter()
            try:
                return attr(*args)
            finally:
                stats.kernel_eval_s += time.perf_counter() - t
                stats.kernel_evals += 1

        return timed


def _spanned(tr, name, fn):
    @functools.wraps(fn)
    def call(*args, **kwargs):
        with tr.span(name):
            return fn(*args, **kwargs)

    return call


def _outermost_spanned(tr, name, fn):
    """Like _spanned, but calls made inside an open span of the same wrapper
    (lazy coefficients defined through other coefficients) get none."""
    depth = [0]

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if depth[0]:
            return fn(*args, **kwargs)
        depth[0] += 1
        try:
            with tr.span(name):
                return fn(*args, **kwargs)
        finally:
            depth[0] -= 1

    return call


def _counted_laplace(tr, stats: LayerStats, fn):
    @functools.wraps(fn)
    def call(kernel, *args, **kwargs):
        stats.kernel_kinds[type(kernel).__name__] += 1
        with tr.span("resummation.laplace"):
            return fn(CountingKernel(kernel, stats), *args, **kwargs)

    return call


@contextlib.contextmanager
def layer_spans(tr, stats: LayerStats):
    """Run tsr's own entry points with a span around each layer call they make.

    The functions are replaced where tsr looks them up (module globals and
    class attributes) and restored afterwards, so the traced op runs the same
    code as the untraced one and its result is the same by construction.
    """
    patches = [
        (_laplace_mod, "resolve_default", lambda f: _spanned(tr, "resummation.resolve", f)),
        (_catalog_mod, "resolve_default", lambda f: _spanned(tr, "resummation.resolve", f)),
        (CatalogFunction, "resolver", lambda f: _spanned(tr, "resummation.resolve", f)),
        (_laplace_mod, "borel_transform", lambda f: _spanned(tr, "resummation.borel", f)),
        (_laplace_mod, "laplace", lambda f: _counted_laplace(tr, stats, f)),
        (PowerSeries, "coeff", lambda f: _outermost_spanned(tr, "transseries.coeffs", f)),
        (_extension_mod, "antidiff_no", lambda f: _spanned(tr, "operators.antidiff_no", f)),
        (_extension_mod, "extend", lambda f: _spanned(tr, "operators.extend", f)),
    ]
    patches += [
        (cls, "p_integral", lambda f: _spanned(tr, "resummation.p_integral", f))
        for cls in _KERNEL_CLASSES
        if "p_integral" in vars(cls)
    ]
    saved = []
    try:
        for owner, name, wrap in patches:
            original = vars(owner)[name]
            saved.append((owner, name, original))
            setattr(owner, name, wrap(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


# -- per-layer probes on the workload's own data ----------------------------------------


def _mean_us(fn, pairs, repeat: int = 3) -> float:
    t = time.perf_counter()
    for _ in range(repeat):
        for a, b in pairs:
            fn(a, b)
    return (time.perf_counter() - t) / (repeat * len(pairs)) * 1e6


def nf_probes(outcomes) -> dict[str, float]:
    """nf_add / nf_mul / nf_cmp on consecutive pairs of the run's outputs."""
    nfs = [SurrealNF(nf.terms[:PROBE_TERMS]) for out in outcomes for nf in out.nfs if not nf.is_zero()]
    pairs = list(zip(nfs, nfs[1:]))[:PROBE_PAIRS]
    if not pairs:
        return {"nf_add_us": 0.0, "nf_mul_us": 0.0, "nf_cmp_us": 0.0, "pairs": 0}
    return {
        "nf_add_us": _mean_us(nf_add, pairs),
        "nf_mul_us": _mean_us(nf_mul, pairs),
        "nf_cmp_us": _mean_us(nf_cmp, pairs),
        "pairs": len(pairs),
    }


def _timed_ms(fn, *args) -> Optional[float]:
    t = time.perf_counter()
    try:
        fn(*args)
    except Exception:  # a probe that fails is not timed; the op already counted it
        return None
    return (time.perf_counter() - t) * 1e3


def oracle_and_taylor_probes(ops, outcomes, ctx: Context) -> tuple[list[float], list[float]]:
    """CatalogFunction.oracle(x) at the real points and taylor_term(x0, k) at
    the finite points of the ops that succeeded, in ms per call."""
    oracle_ms, taylor_ms = [], []
    for op, out in zip(ops, outcomes):
        if out.failure or op.kind not in ("extend", "integrate"):
            continue
        name, prec = op.args[0], op.args[-1]
        f = catalog()[name]
        with mp.workdps(prec):
            if op.kind == "extend":
                text = op.args[1]
                if isinstance(ctx.point(text), Fraction):
                    oracle_ms.append(_timed_ms(f.oracle, _q2mp(ctx.point(text))))
                elif text.endswith(FINITE_SUFFIX):
                    x0 = Fraction(text[: -len(FINITE_SUFFIX)])
                    taylor_ms += [_timed_ms(f.taylor_term, x0, k) for k in range(op.args[2])]
            else:
                anti = antidiff_no(f)
                for text in op.args[1:3]:
                    pt = ctx.point(text)
                    if isinstance(pt, Fraction):
                        oracle_ms.append(_timed_ms(anti.oracle, _q2mp(pt)))
    return [v for v in oracle_ms if v is not None], [v for v in taylor_ms if v is not None]


def _q2mp(q: Fraction):
    return mp.mpf(q.numerator) / q.denominator


def nf_nodes(nf: SurrealNF) -> int:
    """Terms in a hereditary normal form, counted through every exponent."""
    return sum(1 + nf_nodes(e) for e, _ in nf.terms)
