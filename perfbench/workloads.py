"""Seeded operation lists for the three benchmark workloads.

A workload is a fixed sequence of operation templates, a block.  The seed
picks among variants of some templates (term counts, endpoints, points
drawn without repetition from a pool of similar cost, jittered real
points), so every seed puts about the same amount of work on the same
layers and the metrics stay comparable across seeds.  Within a block no op
repeats an earlier op's input unless the template says so (``repeat_share``
counts the exceptions).  The order and the working precisions are fixed:
mpmath fills caches (quadrature nodes, Bernoulli numbers, constants) at each
new precision, and an order that changed with the seed would move that cost
from op to op.

This module imports only the standard library: the set-up probe times the
input generation in a fresh process, and must not pull in mpmath or ``tsr``
before it starts its clock.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("surreal_exact", "resum_numeric", "oracle_mixed")

#: Nominal seconds of one pass over a block on the reference machine
#: (2 cores, Python 3.11, mpmath 1.3 with the pure-Python backend); only used
#: to size a run.  oracle_mixed's law suites, about 20 s, run once, in a
#: pass of their own, and are not counted here.
PASS_SECONDS = {"surreal_exact": 5.0, "resum_numeric": 7.0, "oracle_mixed": 6.0}
#: Ops of these kinds run once per run, in a pass of their own in the middle
#: of the run: long ops gain nothing from more samples, and between the
#: other passes they spread those over a longer stretch of time.
ONCE_KINDS = frozenset({"laws"})

# How an op's output is verified (``Template.check``, see ``checks.py``):
#   golden   exact text, compared with ``expected/<workload>.json``
#   ref      a decimal value, compared with an mpmath reference
#   mixed    a surreal part (golden) plus a decimal offset (ref)
#   taylor   decimal Taylor coefficients, compared with mpmath
#   laws     every law of the suite passes
#   borel    exact Borel coefficients, compared with closed forms
#   error    the op raises the pinned documented TsrError


class Pick(tuple):
    """A template argument the seed chooses from (values may repeat in a block)."""


class Pool(tuple):
    """A template argument drawn without repetition within a block.

    Templates that share a Pool get different values, so a cluster of ops
    of similar cost never repeats an input.
    """


@dataclass(frozen=True)
class Dyadic:
    """A real point drawn from center +- half on the 1/64 grid.

    Dyadic rationals are exact in binary and in decimal, so the program,
    the CLI's float parsing and the high-precision reference all see the
    same number.  Draws from one Dyadic are distinct within a block.
    """

    center: float
    half: float

    def draw(self, rng: random.Random) -> str:
        steps = int(self.half * 64)
        value = Fraction(self.center) + Fraction(rng.randint(-steps, steps), 64)
        return repr(float(value))


@dataclass(frozen=True)
class Template:
    kind: str  # extend | integrate | eb_value | eb_sum | laws | cli
    args: tuple
    check: str
    pin: str = "value"  # "value", or the name of the documented TsrError
    deadline_s: float = 20.0
    defect: str = ""  # known defect (ROADMAP item 2); the op still counts


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    check: str
    pin: str
    deadline_s: float
    defect: str

    @property
    def key(self) -> str:
        return "|".join([self.kind, *map(str, self.args)])

    @property
    def subject(self) -> tuple:
        """What the op computes on: its function or series and its points.

        Term counts, precisions and output flags are left out, so two ops
        with the same subject share work a cache across ops could reuse.
        """
        if self.kind in ("extend", "eb_value", "eb_sum"):
            return (self.kind == "eb_sum", *self.args[:2])
        if self.kind == "integrate":
            return (False, *self.args[:3])
        if self.kind == "cli":
            positional = tuple(a for a in self.args[1:] if not str(a).startswith("--"))
            argv = [str(a) for a in self.args]
            flags_with_values = {argv[k + 1] for k, a in enumerate(argv[:-1]) if a in ("--terms", "--prec", "--order")}
            positional = tuple(a for a in positional if str(a) not in flags_with_values)
            positional = tuple("w" if a == "omega" else a for a in positional)
            return (self.args[0] in ("sum", "borel"), *positional)
        return (self.kind, *self.args)


class _Block:
    """Per-block draw state: Pools and Dyadics draw without repetition."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.decks: dict = {}
        self.seen: dict = {}

    def resolve(self, arg):
        if isinstance(arg, Pool):
            deck = self.decks.get(arg)
            if deck is None:
                deck = self.decks[arg] = self.rng.sample(list(arg), len(arg))
            if not deck:
                raise ValueError(f"pool {arg} is exhausted within one block")
            return deck.pop()
        if isinstance(arg, Pick):
            return self.rng.choice(arg)
        if isinstance(arg, Dyadic):
            seen = self.seen.setdefault(arg, set())
            if len(seen) > 2 * int(arg.half * 64):
                raise ValueError(f"{arg} is exhausted within one block")
            value = arg.draw(self.rng)
            while value in seen:
                value = arg.draw(self.rng)
            seen.add(value)
            return value
        return arg


def interleave(base: list, extra: list) -> list:
    """``base`` with ``extra`` spread evenly through it.

    A cluster of ops of similar cost sits where a percentile falls; spread
    over the block, it samples the machine's speed at many moments, not one.
    """
    out, taken = [], 0
    for k, t in enumerate(extra):
        upto = round((k + 0.5) * len(base) / len(extra))
        out += base[taken:upto]
        out.append(t)
        taken = upto
    return out + base[taken:]


def draw(t: Template, block: _Block) -> Op:
    args = tuple(block.resolve(a) for a in t.args)
    return Op(t.kind, args, t.check, t.pin, t.deadline_s, t.defect)


def variants(t: Template) -> list[Op]:
    """Every op a template can produce (templates with Dyadic args excluded)."""
    if any(isinstance(a, Dyadic) for a in t.args):
        raise ValueError("templates with jittered reals have no finite variant set")
    axes = [a if isinstance(a, (Pick, Pool)) else (a,) for a in t.args]
    return [_split_pairs(Op(t.kind, args, t.check, t.pin, t.deadline_s, t.defect)) for args in itertools.product(*axes)]


# -- surreal_exact ---------------------------------------------------------------
# Exact normal forms at positive infinite points and exact Taylor expansions
# at finite points: tsr.surreal arithmetic and lazy streams behind
# operators.tau, with no resummation numerics.  Gamma at omega has deep
# hereditary exponents (a cost cliff between 16 and 17 terms); Ei at shifted
# points such as 2w+1 has wide, shallow ones, all computed before the first
# term appears.

HANG = "hangs: the tau stream of -e^(-x) searches forever for a next term"
FINITE_POINTS = Pick(("3+w^-1", "2+w^-1", "1/2+w^-1", "5/2+w^-1"))
#: Shifted infinite points where Ei costs about the same: ~50-90 ms at 16
#: terms, ~200-300 ms at 32.  2w+1 and w-3 have fixed ops of their own.
SHIFTED = Pool(
    (
        "w+1", "w-1", "w+2", "w-2", "w+3", "w-4", "w+5", "w+1/2", "w-1/2",
        "2*w-1", "2*w+3", "2*w-3", "2*w+5", "3*w+1", "3*w-2", "3*w+2",
        "1/2*w+1", "1/2*w-1", "4*w+1",
    )
)  # fmt: skip

#: Per block, by time: 14 cheap ops (a few ms up to ~30 ms), 12 x Ei at a
#: shifted point with 16 terms (the median of a run falls among them), 6 x Ei
#: at a shifted point with 32 terms and Gamma(w) at 12-16 terms (the 75th
#: percentile falls among them), then 5 heavy ops.  Every Ei point is
#: different.  The seed varies the points and the cheap ops' term counts.
_SURREAL_OTHERS = [
    # cheap
    Template("extend", (Pick(("exp", "exp_neg")), FINITE_POINTS, Pick((8, 12, 16)), 50), "golden"),
    Template("extend", (Pick(("erfi_integrand", "ei_integrand")), FINITE_POINTS, Pick((8, 12, 16)), 50), "golden"),
    Template("integrate", ("exp", Pick(("0", "2")), Pick(("2*w+1", "w-3", "1/2*w")), 8, 50), "golden"),
    Template("integrate", ("erfi_integrand", Pick(("0", "2")), "1/2*w", 8, 50), "golden"),
    Template("cli", ("integrate", "exp", "0", "omega"), "golden"),
    Template("cli", ("eval", "ei", "omega", "--terms", Pick(("8", "12", "16")), "--json"), "golden"),
    Template("cli", ("integrate", "erfi_integrand", "0", "omega", "--terms", Pick(("6", "8", "10")), "--json"), "golden"),
    Template("extend", ("erfi_integral", "1/2*w", Pick((8, 12, 16)), 50), "golden"),
    Template("extend", ("ei", "1/2*w", Pick((8, 12, 16)), 50), "golden"),
    Template("extend", ("ei", Pick(("2*w", "3*w")), Pick((16, 32)), 50), "golden"),
    Template("extend", ("loggamma", "w", Pick((8, 12, 16, 20, 24)), 50), "golden"),
    Template("extend", ("loggamma", "2*w+1", 8, 50), "error", pin="UnsupportedPointError"),
    Template("integrate", ("ei_integrand", "0", Pick(("w", "2*w+1", "w-3", "1/2*w")), 8, 50), "error", pin="DomainError"),
    Template("integrate", ("ei_integrand", "2", "w", 8, 50), "mixed"),
    Template("extend", ("gamma", "w", Pick((12, 14)), 50), "golden"),
    Template("cli", ("eval", "gamma", "omega", "--terms", "16"), "golden"),
    # heavy
    Template("extend", ("ei", "2*w+1", 48, 50), "golden"),
    Template("extend", ("erfi_integral", "2*w+1", 8, 50), "golden"),
    Template("extend", ("erfi_integral", "w-3", 8, 50), "golden"),
    Template("integrate", ("erfi_integrand", Pick(("0", "2")), Pick(("2*w+1", "w-3")), 8, 50), "golden"),
    Template("integrate", ("exp_neg", "2", "w", 8, 50), "mixed", deadline_s=0.5, defect=HANG),
]
_EI_16 = [Template("extend", ("ei", SHIFTED, 16, 50), "golden")] * 12  # the median cluster
_EI_32 = [Template("extend", ("ei", SHIFTED, 32, 50), "golden")] * 6  # the 75th-percentile cluster
SURREAL_EXACT = tuple(interleave(interleave(_SURREAL_OTHERS, _EI_16), _EI_32))

# -- resum_numeric ---------------------------------------------------------------
# Ecalle-Borel sums at real x: tsr.resummation (Borel transform, kernels,
# Pade, Laplace quadrature) with no surreal work.  Three working precisions
# separate the mpmath-bound quadrature from precision-independent Pade
# algebra.  Each (function, precision) pair has its own x stratum.

#: (function, digits, x center): every function, most at two or three
#: precisions.  airy_ai at 50+ and airy_bi at 50+ digits (1.5-17 s each) and
#: loggamma at 100 are left out to keep a pass near 9 s.
EB_VALUES = (
    ("ei", 30, 10.0),
    ("ei", 100, 15.0),
    ("erfi_integral", 30, 5.0),
    ("erfi_integral", 50, 10.0),
    ("erfi_integral", 100, 15.0),
    ("airy_ai", 30, 15.0),
    ("airy_bi", 30, 15.0),
    ("loggamma", 30, 10.0),
    ("loggamma", 50, 15.0),
    ("gamma", 30, 15.0),
    ("gamma", 50, 10.0),
    ("gamma", 100, 15.0),
)

#: Parsed expressions without attached kernels: the ``tsr sum`` path through
#: ``resolve_default`` (exact (11, 11) Pade).  Each has one x stratum and one
#: precision, and a defect note where the Pade fit misses the 1e-10 default
#: tolerance there.
PADE_MISS = "generic Pade fit misses the 1e-10 tolerance at small x"
SUM_EXPRESSIONS = (
    ("#ei", 5.0, 100, ""),
    ("#stirling", 10.0, 50, ""),
    ("#airy_u_alt", 15.0, 30, ""),
    ("3*#ei - 1/2*#stirling", 5.0, 30, ""),
    ("#ei + exp(-2*x)*#stirling", 15.0, 50, ""),
    ("#erfi", 5.0, 30, PADE_MISS),
)
CLI_SUMS = ("#ei", "#stirling")
#: The median cluster: ``c*#ei`` at 30 digits near x = 10 for ten different
#: c (different series, each fitted afresh, ~60-80 ms).
SCALED_EI = Pool(f"{c}*#ei" for c in ("2", "3", "4", "5", "1/2", "3/2", "5/2", "7/2", "1/3", "2/3", "5/4", "7/4"))
SCALED_SUMS = 10
#: Fixed (series, order) pairs: the coefficient caches (Bernoulli numbers,
#: Airy u_k) fill the same way for every seed.
BOREL_OPS = [(s, o) for s in ("#ei", "#stirling", "#airy_u", "#airy_u_alt", "#erfi") for o in (8, 16, 24)]


def _resum_templates() -> tuple:
    out = [Template("cli", ("borel", s, "--order", str(o), "--json"), "borel") for s, o in BOREL_OPS]
    for name, prec, center in EB_VALUES:
        deadline = 60.0 if name == "airy_bi" else 20.0
        out.append(Template("eb_value", (name, Dyadic(center, 0.5), prec), "ref", deadline_s=deadline))
    for expr, center, prec, defect in SUM_EXPRESSIONS:
        x = Dyadic(center, 0.5)
        if expr in CLI_SUMS:
            out.append(Template("cli", ("sum", expr, x, "--prec", str(prec)), "ref", defect=defect))
        else:
            out.append(Template("eb_sum", (expr, x, prec), "ref", deadline_s=40.0, defect=defect))
    return tuple(interleave(out, [Template("eb_sum", (SCALED_EI, Dyadic(10.0, 0.5), 30), "ref")] * SCALED_SUMS))


RESUM_NUMERIC = _resum_templates()

# -- oracle_mixed ----------------------------------------------------------------
# The real-line oracles in operators.catalog: real-point extension, numeric
# Taylor expansions at x0 + 1/w, integrals with real endpoints, and the three
# operator-law suites of `tsr check laws`.  Known defects stay in the list.

INF_POINTS = Pick(("w", "2*w+1", "w-3", "1/2*w"))
AIRY_GRID = (1, 2, 4, 8, 12, 16)
#: Grid points where the Airy Ai oracle misses its 1e-8 tolerance today.
AIRY_WRONG = {(8, 15), (12, 15), (16, 15), (12, 30), (16, 30)}
AIRY_DEFECT = "Airy Ai oracle loses accuracy as Ai decays (wrong sign at 16)"
#: Lower and upper endpoints of the erfi_integrand integrals of the
#: first-term cluster: nine of these ten pairs per block, a few ms each.
ERFI_PAIRS = Pool(f"{lo}|{hi}" for lo in ("1/2", "1", "3/2", "2", "5/2") for hi in ("w", "1/2*w"))


def _oracle_templates() -> tuple:
    out = []
    # The Airy Ai oracle loses accuracy as Ai decays; the grid is fixed so the
    # number of wrong values does not depend on the seed.
    for x in AIRY_GRID:
        for prec in (15, 30, 50):
            defect = AIRY_DEFECT if (x, prec) in AIRY_WRONG else ""
            if x == 16 and prec in (15, 30):
                out.append(Template("cli", ("eval", "airy_ai", "16", "--prec", str(prec)), "ref", defect=defect))
            else:
                out.append(Template("extend", ("airy_ai", str(x), 0, prec), "ref", defect=defect))
    for name, center, half, precs in (
        ("ei", 3.0, 2.0, (30, 50)),
        ("erfi_integral", 1.5, 1.0, (30, 50)),
        ("airy_bi", 9.0, 3.0, (30, 50)),  # clear of the cluster's [5.375, 5.625]
        ("loggamma", 4.0, 3.0, (50,)),
        ("gamma", 4.0, 3.0, (50,)),
        ("ei_integrand", 3.0, 2.0, (50,)),
        ("exp_neg_over_x", 3.0, 2.0, (50,)),
    ):
        for prec in precs:
            out.append(Template("extend", (name, Dyadic(center, half), 0, prec), "ref"))
    out.append(Template("cli", ("eval", "ei", Pick(("5", "7")), "--prec", "30"), "ref"))
    x0 = Pool(("2+w^-1", "3+w^-1", "4+w^-1", "5/2+w^-1", "7/2+w^-1"))
    out.append(Template("extend", ("gamma", "3+w^-1", 12, 50), "taylor", deadline_s=60.0))
    out.append(Template("extend", ("gamma", "5/2+w^-1", 8, 50), "taylor"))
    for name in ("ei", "airy_ai", "airy_bi", "loggamma", "erfi_integral"):
        out.append(Template("extend", (name, x0, 12, 50), "taylor"))
    out += [
        Template("integrate", ("ei_integrand", Pick(("1/2", "1", "2")), Pick(("3", "4", "5")), 8, 50), "ref"),
        Template("integrate", ("erfi_integrand", Pick(("1/2", "1")), Pick(("2", "5/2")), 8, 50), "ref"),
        Template("integrate", ("exp_neg", Pick(("1", "2")), Pick(("3", "4")), 8, 50), "ref"),
        Template("integrate", ("exp_neg_over_x", Pick(("1", "2")), Pick(("4", "5")), 8, 50), "ref"),
        Template("integrate", ("exp", Pick(("1", "2")), Pick(("3", "4")), 8, 50), "golden"),
        Template("integrate", ("exp", Pick(("1", "2")), "w", 8, 50), "golden"),
        Template("integrate", ("exp_neg_over_x", "2", "w", 8, 50), "mixed"),
        Template("integrate", ("ei_integrand", Pick(("2", "3")), INF_POINTS, 8, 50), "mixed"),
        Template(
            "cli",
            ("integrate", "ei", "2", "4"),
            "ref",
            defect="SingularPointError on a Pade pole; the value exists",
        ),
        Template("integrate", ("loggamma", "2", "4", 8, 50), "ref", defect="raw ZeroDivisionError"),
        Template("integrate", ("gamma", "2", "4", 8, 50), "ref", defect="raw AttributeError (no transseries)"),
        Template("integrate", ("exp_neg", "2", "w", 8, 50), "mixed", deadline_s=0.5, defect=HANG),
    ]
    # the first-term cluster: exact results, nine different endpoint pairs
    out = interleave(out, [Template("integrate", ("erfi_integrand", ERFI_PAIRS, 8, 50), "mixed")] * 9)
    # the median cluster: the Bi oracle at sixteen of the seventeen grid
    # points in [5.375, 5.625] (its cost grows with x)
    out = interleave(out, [Template("extend", ("airy_bi", Dyadic(5.5, 0.125), 0, 30), "ref")] * 16)
    # last, so the precision caches they fill do not speed up the ops above
    # in the traced run (the timed run gives them a pass of their own)
    out += [Template("laws", (s,), "laws", deadline_s=120.0) for s in ("antidiff", "extension", "integral")]
    return tuple(out)


ORACLE_MIXED = _oracle_templates()

TEMPLATES = {"surreal_exact": SURREAL_EXACT, "resum_numeric": RESUM_NUMERIC, "oracle_mixed": ORACLE_MIXED}


def passes_for(workload: str, seconds: float) -> int:
    """Passes over the block in one run: at least two, so every op has a
    second sample."""
    return max(2, round(seconds / PASS_SECONDS[workload]))


def generate(workload: str, seed: int) -> list[Op]:
    """The op list of one block: the same seed gives the same list."""
    if workload not in TEMPLATES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    block = _Block(random.Random(f"{workload}:{seed}"))
    return [_split_pairs(draw(t, block)) for t in TEMPLATES[workload]]


def _split_pairs(op: Op) -> Op:
    """Endpoint pairs drawn as one 'lo|hi' value become two arguments."""
    args = tuple(part for a in op.args for part in (a.split("|") if isinstance(a, str) and "|" in a else (a,)))
    return Op(op.kind, args, op.check, op.pin, op.deadline_s, op.defect)


def repeat_share(ops: list[Op]) -> float:
    """Share of ops whose subject (function or series, and points) equals an
    earlier op's in the list."""
    seen, repeats = set(), 0
    for op in ops:
        repeats += op.subject in seen
        seen.add(op.subject)
    return repeats / len(ops) if ops else 0.0
