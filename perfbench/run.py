"""The tsr benchmark: one workload, one seed, one closed-loop caller.

    python3 perfbench/run.py --workload surreal_exact --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports ``tsr`` from ``src/`` there.
With ``--trace 0`` the seed's block of ops runs in several passes, each in a
process forked from the same set-up state; an op's latency is the median
over its passes, each scaled to the reference speed (``speed.py``).  It prints one line per metric (name, value, unit,
sample count), an environment stamp, and as its last line a JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.
Full results (and, when traced, the spans) go to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.workloads import ONCE_KINDS, WORKLOADS, generate, passes_for, repeat_share  # noqa: E402

#: Fresh processes timed for setup_s, spread between the passes (the
#: machine's speed drifts over seconds); the median is reported.
SETUP_PROBES = 9
#: No op starts after this many seconds, so a run ends well within 180 s.
RUN_CAP_S = 140.0
#: The tail percentile: every workload has at least 39 ops per run, so at
#: least nine samples lie beyond it.
TAIL_Q = 75
KERNEL_CLASSES = ("ClosedFormKernel", "EntireSeriesKernel", "PadeKernel", "PolyKernel", "ScaledKernel")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def setup_probe(args) -> int:
    """Time import tsr.cli + catalog() + input generation in this fresh
    process, with the reference loop on each side."""
    from perfbench import speed

    before = [speed.loop_ms() for _ in range(speed.WINDOW)]
    t0 = time.perf_counter()
    import tsr.cli  # noqa: F401
    from tsr.operators import catalog

    catalog()
    generate(args.workload, args.seed)
    seconds = time.perf_counter() - t0
    after = [speed.loop_ms() for _ in range(speed.WINDOW)]
    print(json.dumps({"setup_s": seconds, "scale": speed.factors(before + after)[speed.WINDOW - 1]}))
    return 0


def measure_setup(args) -> tuple[float, float]:
    """One set-up probe in a fresh process, (raw, scaled) seconds; the
    caller waits for it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload]
    cmd += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["setup_s"] * probe["scale"]


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.rglob("*.py")):
        h.update(str(f.relative_to(path)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def environment_stamp(seed: int, loop_ms: float) -> dict:
    import mpmath

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "commit": _git_commit(),
        "src_sha256": _tree_digest(SRC / "tsr"),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": nproc,
        "seed": seed,
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
        "speed_loop_ms": loop_ms,  # the reference loop (speed.py) at the start
    }


# -- the runs ------------------------------------------------------------------------


def in_child(fn):
    """fn() in a process forked from this one; its pickled result comes back
    through a pipe.  The child starts from this process's state (caches
    included) and its own changes die with it, which a spawned worker could
    not give.  Forking is safe here: the benchmark starts no threads."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: never return into the caller's code
        os.close(r)
        code = 0
        try:
            data = pickle.dumps(("ok", fn()))
        except BaseException as exc:  # the child's boundary: report, then exit
            data, code = pickle.dumps(("error", f"{type(exc).__name__}: {exc}")), 1
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
        os._exit(code)
    os.close(w)
    with os.fdopen(r, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    if not data:
        raise RuntimeError("a forked pass ended without a result")
    status, value = pickle.loads(data)
    if status != "ok":
        raise RuntimeError(f"a forked pass failed: {value}")
    return value


def run_pass(ops, ctx, once: bool):
    """One closed-loop pass over the block: one op at a time.  It runs the
    ops of the ONCE_KINDS when ``once``, the others otherwise; the slots of
    the ops it skips are None."""
    from perfbench import execute, speed

    outs, timed, loop_times, inside = [], [], [], []
    for i, op in enumerate(ops):
        if (op.kind in ONCE_KINDS) != once:
            outs.append(None)
            continue
        if time.perf_counter() - T_START > RUN_CAP_S:
            outs.append(execute.Outcome(error="RunCap", detail=f"not started: run passed {RUN_CAP_S} s"))
            continue
        loop_times.append(speed.loop_ms())
        gc.collect()  # start every op from the same heap state, untimed
        with speed.Sampler().active() as sampler:
            out = execute.run_op(op, i, ctx)
        out.seconds -= sampler.spent_s
        out.nfs = []  # only the traced run probes them
        outs.append(out)
        timed.append(out)
        inside.append(sampler.loops)
    loop_times.append(speed.loop_ms())
    for out, factor in zip(timed, speed.factors(loop_times, inside)):
        out.scale = factor
    return outs, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_passes(ops, ctx, args):
    """The timed run: passes over the block, each forked from the set-up
    state, with the ONCE_KINDS ops in a pass of their own in the middle and
    the set-up probes spread between the passes."""
    n = passes_for(args.workload, args.seconds)
    plan = [False] * n
    if any(op.kind in ONCE_KINDS for op in ops):
        plan.insert((n + 1) // 2, True)
    m = len(plan)
    gaps = [SETUP_PROBES * (k + 1) // (m + 1) - SETUP_PROBES * k // (m + 1) for k in range(m + 1)]
    passes, rss, setup_s = [], [], []
    for k in range(m + 1):
        setup_s += [measure_setup(args) for _ in range(gaps[k])]
        if k < m:
            outs, peak = in_child(lambda: run_pass(ops, ctx, once=plan[k]))
            passes.append(outs)
            rss.append(peak)
    return passes, max(rss), setup_s


def run_traced(ops, ctx):
    """The traced run, in this process: every op untraced and traced,
    alternating which goes first; a law suite, one call either way, once."""
    from perfbench import execute
    from perfbench.spans import Tracer

    tracer = Tracer()
    plain, traced = [], []
    for i, op in enumerate(ops):
        if time.perf_counter() - T_START > RUN_CAP_S:
            skipped = execute.Outcome(error="RunCap", detail=f"not started: run passed {RUN_CAP_S} s")
            plain.append(skipped)
            traced.append(skipped)
            continue
        modes = (True,) if op.kind == "laws" else (False, True) if i % 2 == 0 else (True, False)
        for use_tracer in modes:
            gc.collect()
            out = execute.run_op(op, i, ctx, tracer if use_tracer else None)
            (traced if use_tracer else plain).append(out)
        if modes == (True,):
            plain.append(traced[-1])
    return plain, traced, tracer


def typical(samples, scaled: bool = True):
    """One outcome per op from its passes: the median latency and first-term
    time over the passes (at the reference speed, or raw), the first
    failure, the first pass's result."""
    from perfbench import execute

    runs = [o for o in samples if o is not None]
    timed = [o for o in runs if o.error != "RunCap"] or runs
    scales = [o.scale if scaled else 1.0 for o in timed]
    firsts = [o.first_term_s * k for o, k in zip(timed, scales) if o.first_term_s is not None]
    return execute.Outcome(
        seconds=statistics.median(o.seconds * k for o, k in zip(timed, scales)),
        payload=runs[0].payload,
        error=runs[0].error,
        detail=runs[0].detail,
        first_term_s=statistics.median(firsts) if len(firsts) == len(timed) else None,
        failure=next((o.failure for o in runs if o.failure), ""),
    )


def _same_result(a, b) -> bool:
    if a.error or b.error:
        return a.error == b.error
    return a.payload == b.payload


def end_to_end(outcomes, setup_s, peak_rss_mb) -> tuple[dict, dict]:
    from perfbench import stats

    lat_ms = [o.seconds * 1e3 for o in outcomes if o.error != "RunCap"]
    first_ms = [o.first_term_s * 1e3 for o in outcomes if o.first_term_s is not None and not o.failure]
    p50, tail = stats.median(lat_ms), stats.quantile(lat_ms, TAIL_Q / 100)
    first = stats.median(first_ms) if first_ms else None
    failed = sum(1 for o in outcomes if o.failure)
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "wall_s": (sum(o.seconds for o in outcomes), "s"),
        "op_p50_ms": (p50.value, "ms"),
        f"op_p{TAIL_Q}_ms": (tail.value, "ms"),
        "first_term_p50_ms": (first.value if first else 0.0, "ms"),
        "fail_ratio": (failed / len(outcomes), "1"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup_s)} fresh processes",
        "wall_s": f"{len(lat_ms)} ops, each at its median over the passes",
        "op_p50_ms": f"n={p50.n}",
        f"op_p{TAIL_Q}_ms": f"n={tail.n}, {tail.beyond} beyond",
        "first_term_p50_ms": f"n={first.n if first else 0} exact results",
        "fail_ratio": f"{failed} of {len(outcomes)}",
        "peak_rss_mb": "largest ru_maxrss of the pass processes",
    }
    return metrics, notes


def per_layer(ops, refs, plain, traced, tracer, ctx, layer_setup) -> tuple[dict, dict]:
    from perfbench import checks, execute, stats
    from perfbench.spans import totals

    tot = totals(tracer.spans)

    def self_s(name):
        return tot.get(name, (0.0, 0))[0]

    def count(name):
        return tot.get(name, (0.0, 0))[1]

    def whole_s(name):  # span time including the layer calls inside
        return sum(sp.duration for sp in tracer.spans if sp.name == name)

    pulls = [sp for sp in tracer.spans if sp.name == "surreal.pull" and sp.mark is not None and sp.duration > 0]
    shares = [(sp.mark - sp.start) / sp.duration for sp in pulls]
    cli_ms = [sp.duration * 1e3 for sp in tracer.spans if sp.name == "cli.run"]
    nf = execute.nf_probes(plain)
    oracle_ms, taylor_ms = execute.oracle_and_taylor_probes(ops, plain, ctx)
    evals = ctx.stats.kernel_evals
    misses = sum(checks.estimate_missed(op, out, ref) for op, out, ref in zip(ops, plain, refs))
    # per-op ratio, median: robust to the few ops that dominate a workload
    ratios = [t.seconds / p.seconds for p, t in zip(plain, traced) if p is not t and p.seconds > 0]

    def med(values):
        return stats.median(values).value if values else 0.0

    m = {
        "surreal.pull_s": (self_s("surreal.pull"), "s"),
        "surreal.first_term_share": (med(shares), "1"),
        "surreal.nf_mul_us": (nf["nf_mul_us"], "us"),
        "surreal.nf_add_us": (nf["nf_add_us"], "us"),
        "surreal.nf_cmp_us": (nf["nf_cmp_us"], "us"),
        "surreal.render_s": (self_s("surreal.render"), "s"),
        "surreal.nf_nodes": (sum(execute.nf_nodes(x) for o in plain for x in o.nfs), "count"),
        "operators.extend_s": (self_s("operators.extend"), "s"),
        "operators.antidiff_no_s": (self_s("operators.antidiff_no"), "s"),
        "operators.oracle_ms": (med(oracle_ms), "ms"),
        "operators.taylor_ms": (med(taylor_ms), "ms"),
        "operators.laws.antidiff_s": (whole_s("operators.laws.antidiff"), "s"),
        "operators.laws.extension_s": (whole_s("operators.laws.extension"), "s"),
        "operators.laws.integral_s": (whole_s("operators.laws.integral"), "s"),
        "operators.catalog_build_s": (layer_setup["catalog_build_s"], "s"),
        "cli.import_s": (layer_setup["import_s"], "s"),
        "cli.run_ms": (med(cli_ms), "ms"),
        "transseries.parse_s": (self_s("transseries.parse"), "s"),
        "transseries.coeffs_s": (self_s("transseries.coeffs"), "s"),
        "resummation.borel_s": (self_s("resummation.borel"), "s"),
        "resummation.kernel_resolve_s": (self_s("resummation.resolve"), "s"),
        "resummation.p_integral_s": (self_s("resummation.p_integral"), "s"),
        "resummation.laplace_s": (self_s("resummation.laplace") - ctx.stats.kernel_eval_s, "s"),
        "resummation.kernel_evals": (evals, "count"),
        "resummation.kernel_eval_us": (ctx.stats.kernel_eval_s / evals * 1e6 if evals else 0.0, "us"),
        "resummation.estimate_misses": (misses, "count"),
        "trace.overhead_ratio": (med(ratios) - 1 if ratios else 0.0, "1"),
    }
    for cls in KERNEL_CLASSES:
        m[f"resummation.kernel_kind.{cls}"] = (ctx.stats.kernel_kinds.get(cls, 0), "count")
    notes = {
        "surreal.pull_s": f"{count('surreal.pull')} pulls",
        "surreal.first_term_share": f"median of {len(shares)}",
        "surreal.nf_mul_us": f"mean over {nf['pairs']} output pairs",
        "surreal.render_s": f"{count('surreal.render')} renders",
        "operators.extend_s": f"{count('operators.extend')} calls",
        "operators.oracle_ms": f"median of {len(oracle_ms)} calls",
        "operators.taylor_ms": f"median of {len(taylor_ms)} calls",
        "cli.run_ms": f"median of {len(cli_ms)} ops",
        "transseries.parse_s": f"{count('transseries.parse')} parses",
        "resummation.laplace_s": f"{count('resummation.laplace')} calls, self time",
        "trace.overhead_ratio": f"median over {len(ratios)} ops of traced / untraced time, minus 1",
    }
    return m, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tsr" / "__init__.py").is_file():
        print(f"error: no tsr sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    t0 = time.perf_counter()
    import tsr.cli

    t1 = time.perf_counter()
    from tsr.operators import catalog

    catalog()
    t2 = time.perf_counter()
    ops = generate(args.workload, args.seed)
    if not Path(tsr.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: tsr was imported from {tsr.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    layer_setup = {"import_s": t1 - t0, "catalog_build_s": t2 - t1}
    from perfbench import speed

    loop_ms = statistics.median(speed.loop_ms() for _ in range(5))

    from perfbench import checks, execute

    ctx = execute.Context(ops)
    if args.trace:
        plain, traced, tracer = run_traced(ops, ctx)
        samples = [[p, t] for p, t in zip(plain, traced)]
    else:
        passes, peak_rss_mb, setup_s = run_passes(ops, ctx, args)
        samples = [list(s) for s in zip(*passes)]
    # References come after the timed runs: computing them first would warm
    # mpmath's caches (Bernoulli numbers, constants) for the program.
    expected = checks.load_expected(args.workload)
    refs = [checks.reference(op) for op in ops]
    for op, ref, outs in zip(ops, refs, samples):
        for out in outs:
            if out is not None:
                out.failure = checks.check(op, out, ref, expected)
    if not args.trace:
        plain = [typical(outs) for outs in samples]
        raw = [typical(outs, scaled=False) for outs in samples]

    unexpected = [(op, o) for op, o in zip(ops, plain) if o.failure and not op.defect]
    mismatched = [op for op, a, b in zip(ops, plain, traced) if not _same_result(a, b)] if args.trace else []
    if args.trace:
        metrics, notes = per_layer(ops, refs, plain, traced, tracer, ctx, layer_setup)
    else:
        metrics, notes = end_to_end(plain, [scaled for _, scaled in setup_s], peak_rss_mb)
        raw_metrics, _ = end_to_end(raw, [seconds for seconds, _ in setup_s], peak_rss_mb)
        for name, (value, unit) in raw_metrics.items():
            if raw_metrics[name] != metrics[name]:
                notes[name] += f"; raw {value:.6g} {unit}"

    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{name:36s} {value:14.6g} {unit:6s} {note}")
    for op, o in zip(ops, plain):
        if o.failure:
            tag = "known defect" if op.defect else "UNEXPECTED"
            print(f"fail [{tag}] {op.key}: {o.failure[:160]}")
    for op in mismatched:
        print(f"traced result differs from untraced: {op.key}")

    stamp = environment_stamp(args.seed, loop_ms)
    stamp["repeat_share"] = repeat_share(ops)
    if not args.trace:
        stamp["passes"] = len(passes)
    failed = sum(1 for o in plain if o.failure)
    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "stamp": stamp,
        "workload": args.workload,
        "metrics": {k: {"value": v, "unit": u, "note": notes.get(k, "")} for k, (v, u) in metrics.items()},
        "raw_metrics": {} if args.trace else {k: {"value": v, "unit": u} for k, (v, u) in raw_metrics.items()},
        "ops": [
            {
                "key": op.key,
                "seconds": o.seconds,
                "raw_seconds": r.seconds,
                "first_term_s": o.first_term_s,
                "failure": o.failure,
                "defect": op.defect,
            }
            for op, o, r in zip(ops, plain, plain if args.trace else raw)
        ],
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        tracer.dump(stem.with_suffix(".spans.jsonl"))
    print(json.dumps({"stamp": stamp}))
    result = {
        "correct": not unexpected and not mismatched,
        "attempted": len(plain),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
