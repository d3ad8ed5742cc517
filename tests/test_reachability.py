"""Every function defined under ``src/tsr`` is reached by a product path.

A fresh interpreter replays, under ``sys.setprofile``, what the product is
pinned to do:

- the CLI cases of the golden corpora (``eval_matrix``, ``t1_verbs``,
  ``exact_streams`` as text and ``--json``, and ``cli_paths``);
- the library cases of ``resum_values`` and ``taylor_terms``;
- one block of each benchmark workload (``perfbench``, seed 777).

It records every Python function called.  A function of ``src/tsr`` that
none of them calls fails the test, named as ``file:function``, unless
``ALLOWED`` lists it with its reason.  Code that only the tests reach
belongs under ``tests/`` (``tests/reference`` holds the independent
references); a product path that no corpus reaches gets a pin.  The replay
runs in its own process, so no cache that an earlier test filled hides a
call.  Run ``python tests/test_reachability.py`` to print the unreached
functions.
"""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
SRC = ROOT / "src"
PACKAGE = SRC / "tsr"

#: Functions the product calls that no pinned case reaches, each with its reason.
ALLOWED = {
    "cli.py:main": "the console-script entry point; the replay calls `run`, which it wraps",
    "operators/values.py:SurrealValue.sign": "each value kind signs itself, so the law suites need not ask which kind they hold",
    "operators/values.py:NumericTaylor.sign": "each value kind signs itself, so the law suites need not ask which kind they hold",
    "operators/values.py:NumericTaylor.numeric_const": "each value kind reads itself as a real constant for the law suites",
    "operators/values.py:DecoratedValue.numeric_const": "each value kind reads itself as a real constant for the law suites",
    "resummation/kernels.py:ClosedFormKernel._transform.up": "steps L_a up to a >= 1, which only P-integrated kernels carry",
    "resummation/kernels.py:ClosedFormKernel._transform.up_log": "steps M_a up to a >= 1, which only P-integrated kernels carry",
    "resummation/kernels.py:PadeKernel.taylor": "the kernel interface's exact coefficients, which watson_check reads of any kernel",
    "resummation/kernels.py:AiryKernel.taylor": "the kernel interface's exact coefficients, which watson_check reads of any kernel",
    "surreal/normal_form.py:SurrealNF.__setattr__": "the guard that keeps a normal form immutable: it only raises",
    "surreal/normal_form.py:SurrealNF.__rsub__": "q - a for a rational q, beside __radd__ and __rmul__",
    "surreal/normal_form.py:SurrealNF.__str__": "printing, for messages and debugging",
    "surreal/normal_form.py:SurrealNF.__repr__": "printing, for messages and debugging",
    "transseries/series.py:PowerSeries.__repr__": "printing, for messages and debugging",
}


def defined() -> dict:
    """(path, first line) of every function under src/tsr -> its name,
    ``file:Class.method`` with nested functions after a dot.  The first line
    is the first decorator's, as in the function's code object."""
    out = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[(str(path), first)] = f"{rel}:{prefix}{child.name}"
                    visit(child, f"{prefix}{child.name}.")
                elif isinstance(child, ast.ClassDef):
                    visit(child, f"{prefix}{child.name}.")
                else:
                    visit(child, prefix)

        visit(ast.parse(path.read_text()), "")
    return out


def replay() -> list:
    """The names of the functions under src/tsr that the pinned cases do not call."""
    import test_golden_matrix
    import test_golden_paths
    import test_golden_resum
    import test_golden_streams
    import test_golden_t1
    import test_golden_taylor
    from perfbench import execute, workloads

    from tsr.cli import run

    def cli(argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            run(list(argv))

    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    sys.setprofile(profile)
    try:
        for argv in test_golden_matrix.CASES + test_golden_t1.CASES:
            cli(argv)
        for argv in test_golden_streams.CASES:
            cli(argv)
            cli((*argv, "--json"))
        for argv in test_golden_paths.CASES:
            test_golden_paths.record(argv)
        for case in test_golden_resum.CASES:
            test_golden_resum._record(case)
        for case in test_golden_taylor.CASES:
            test_golden_taylor._record(case)
        for name in workloads.WORKLOADS:
            ops = workloads.generate(name, 777)
            ctx = execute.Context(ops)
            for i, op in enumerate(ops):
                execute.run_op(op, i, ctx)
    finally:
        sys.setprofile(None)
    return sorted(name for key, name in defined().items() if key not in seen)


def test_every_function_is_reached_or_allowed():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (SRC, TESTS, ROOT))))
    done = subprocess.run([sys.executable, __file__], capture_output=True, text=True, timeout=300, env=env, cwd=ROOT)
    assert done.returncode == 0, done.stderr[-3000:]
    unreached = json.loads(done.stdout)
    assert [name for name in unreached if name not in ALLOWED] == []
    # an entry for a function that is reached, or gone, is stale
    assert sorted(set(ALLOWED) - set(unreached)) == []


def test_no_product_module_imports_from_the_tests():
    test_side = {path.stem for path in TESTS.glob("*.py")} | {"reference", "tests", "perfbench"}
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            found += [f"{path.relative_to(PACKAGE)}: {n}" for n in names if n.split(".")[0] in test_side]
    assert found == []


if __name__ == "__main__":
    print(json.dumps(replay(), indent=1))
