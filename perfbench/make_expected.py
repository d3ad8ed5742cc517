"""Regenerate the exact expected outputs in perfbench/expected/.

    python3 perfbench/make_expected.py [--workload NAME]

Runs every variant of every exact-output template once and writes the
rendered text (or CLI stdout) per op key.  Outputs with a known closed form
are cross-checked against it first, and ops that are known defects get
their expected text from the closed form, since the program cannot produce
it yet.  Exact output must stay byte-identical across optimisations, so
regenerating these files is a change to the benchmark, not to the program.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, execute  # noqa: E402
from perfbench.workloads import TEMPLATES, variants  # noqa: E402

#: Expected texts the program cannot produce today (known defects).
PINNED = {
    # integral of e^-s over [2, w] = e^-2 - e^-w: the surreal part is -w^(-w)
    "integrate|exp_neg|2|w|8|50": "-w^(-w)",
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(TEMPLATES))
    args = ap.parse_args(argv)
    status = 0
    for workload, templates in TEMPLATES.items():
        if args.workload and workload != args.workload:
            continue
        ops = [op for t in templates if t.check in ("golden", "mixed") for op in variants(t)]
        ops = list({op.key: op for op in ops}.values())
        if not ops:
            continue
        ctx = execute.Context(ops)
        expected = {}
        for i, op in enumerate(ops):
            if op.key in PINNED:
                expected[op.key] = PINNED[op.key]
                continue
            out = execute.run_op(op, i, ctx)
            if out.error:
                print(f"{workload}: {op.key}: {out.error}: {out.detail}", file=sys.stderr)
                status = 1
                continue
            p = out.payload
            text = p["stdout"].rstrip("\n") if p["type"] == "cli" else p["text"]
            problem = checks.closed_form_problem(op, p)
            if problem:
                print(f"{workload}: {op.key}: {problem}", file=sys.stderr)
                status = 1
                continue
            expected[op.key] = text
            print(f"{workload}: {op.key}: {out.seconds:.3f} s", flush=True)
        path = checks.EXPECTED_DIR / f"{workload}.json"
        path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(expected)} expected outputs to {path.relative_to(ROOT)}")
    return status


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"done in {time.perf_counter() - t0:.1f} s")
    sys.exit(code)
