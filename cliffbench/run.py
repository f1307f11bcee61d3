"""The cliffcomp benchmark: one command, three workloads, checked outputs.

Run from the root of a checkout:

    python3 cliffbench/run.py --workload query --seed 1 --seconds 20 --trace 0

Each workload is a fixed batch of operations drawn from --seed (see
batches.py), run in this one process by a single caller, each operation
after the previous one returns (a closed loop).  A run repeats whole
rounds of the batch and starts another only while it is expected to end
within --seconds; a traced run does one round.  Every output is checked
(checks.py).  The package is imported from the checkout's src/; CLI
operations go through cliffcomp.cli.run(argv) in-process, structure
operations call the library.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
(spans.py).  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import batches
import checks
import qmath
import spans

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_SPAWNS = 15
IMPORT_TIMER = ("import time; t0 = time.perf_counter(); import cliffcomp.cli; "
                "print(time.perf_counter() - t0)")


def fail(msg: str) -> None:
    print(f"cliffbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """cliffcomp from the checkout's src/, and no other copy."""
    if not (SRC / "cliffcomp" / "cli.py").is_file():
        fail(f"no src/cliffcomp under {ROOT}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import cliffcomp

    if Path(cliffcomp.__file__).resolve().parent != (SRC / "cliffcomp").resolve():
        fail(f"imported cliffcomp from {cliffcomp.__file__}, not from {SRC}")


def setup_seconds() -> float:
    """Median time a fresh interpreter takes to import cliffcomp.cli, which
    every CLI call pays.  It is timed inside the child, so the interpreter's
    own start-up, which no change to the program moves, stays out.  One
    spawn first, not counted, byte-compiles the package."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", IMPORT_TIMER]
    times = [float(subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                                  text=True).stdout) for _ in range(SETUP_SPAWNS + 1)]
    return statistics.median(times[1:])


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


# ---------------------------------------------------------------------------
# operations.  Each returns (seconds, error, check): error says why the
# operation failed and is None when it completed; check is a function to
# run on its output after the clock stops.

class Runner:
    def __init__(self, tracer):
        self.tracer = tracer
        self.op_id = 0
        self.not_covered = 0
        self.bundles: dict = {}

    def timed(self, fn, *args):
        """Seconds spent in fn(*args), its result, and the exception it raised."""
        if self.tracer is not None:
            fn = self.tracer.operation(self.op_id, fn)
        self.op_id += 1
        t0 = perf_counter()
        try:
            res, exc = fn(*args), None
        except Exception as e:  # an operation that raises counts as failed
            res, exc = None, e
        return perf_counter() - t0, res, exc


def call_cli(argv: list):
    from cliffcomp import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.run(argv)
    return rc, out.getvalue(), err.getvalue()


def cli_error(rc: int, err: str) -> str:
    return f"exit {rc} {err.strip()[:160]}"


def untimed_cli(argv: list) -> dict:
    rc, out, err = call_cli(argv)
    if rc not in (0, 3):
        raise RuntimeError(f"cliffcomp {' '.join(argv)} exited {rc}: {err.strip()}")
    return json.loads(out)


def query_op(r: Runner, op: dict):
    form, target = op["form"], op.get("target")
    dt, res, exc = r.timed(call_cli, batches.cli_args(op["cmd"], form, target))
    if exc is not None:
        return dt, repr(exc), None
    rc, out, err = res
    if op["cmd"] == "mcd" and rc == 3 and json.loads(err)["error"] == "not-covered":
        r.not_covered += 1  # the method's documented answer: completed
        return dt, None, lambda: checks.check_mcd(json.loads(out), not_covered=True)
    if rc != 0:
        return dt, cli_error(rc, err), None
    result = json.loads(out)
    if op["cmd"] == "invariants":
        return dt, None, lambda: checks.check_invariants(form, result)
    if op["cmd"] == "mcd":
        return dt, None, lambda: checks.check_mcd(result, not_covered=False)
    return dt, None, lambda: checks.check_bound(result)


def witness_op(r: Runner, op: dict, expected: dict):
    form, target = op["form"], op["target"]
    key = json.dumps([form, target], sort_keys=True)
    if op["cmd"] == "compose":
        r.bundles.pop(key, None)
        dt, res, exc = r.timed(call_cli, batches.cli_args("compose", form, target))
        if exc is not None:
            return dt, repr(exc), None
        if res[0] != 0:
            return dt, cli_error(res[0], res[2]), None
        bundle = json.loads(res[1])
        r.bundles[key] = res[1]
        mcd, lower = expected[key]

        def check():
            checks.check_witness_type(form, target, bundle)
            checks.check_witness_degree(bundle, mcd)
            checks.check_witness_bound(bundle, lower)
        return dt, None, check
    text = r.bundles.pop(key, None)
    if text is None:
        return 0.0, "no bundle to replay: its compose failed", None
    dt, res, exc = r.timed(call_cli, ["verify", "--object", text])
    if exc is not None:
        return dt, repr(exc), None
    rc, out, err = res
    if rc != 0:
        return dt, cli_error(rc, err), None
    return dt, None, lambda: checks.check_replay(json.loads(text), rc, json.loads(out))


def witness_expectations(ops: list) -> dict:
    """mcd and lower bound per request, read before the clock starts."""
    expected = {}
    for op in ops:
        key = json.dumps([op["form"], op["target"]], sort_keys=True)
        if key not in expected:
            mcd = untimed_cli(batches.cli_args("mcd", op["form"], op["target"]))
            bound = untimed_cli(batches.cli_args("bound", op["form"], op["target"]))
            expected[key] = (mcd, bound["lower_bound"]["value"])
    return expected


def _space(form: dict):
    from cliffcomp import quadform

    F = _field(form["field"])
    M = [[F.parse(str(v)) for v in row] for row in qmath.coeff_matrix(form["obj"])]
    return quadform.QuadraticSpace(F, M)


def _field(name: str):
    from cliffcomp import scalars

    return scalars.QQ if name == "Q" else scalars.PrimeField(qmath.char_of(name))


def even_structure(form: dict):
    from cliffcomp import algebra, clifford

    C, C0, _, _, tau = clifford.even_clifford(_space(form))
    return C.dim, C0.dim, len(algebra.center_basis(C0)), len(tau.sym_basis())


def pair_structure(form: dict):
    from cliffcomp import clifford, qpair

    pair, aux = qpair.pair_from_form(_space(form))
    data = clifford.clifford_of_pair(pair)
    clifford.split_compare(data, aux)
    return data.C.dim


def tensor_structure(form: dict):
    from cliffcomp import algebra, clifford, qpair

    F = _field(form["field"])
    Q1, Q2 = (algebra.QuaternionAlgebra(F, F.parse(str(a)), F.parse(str(b)))
              for a, b in form["obj"]["quaternion_pair"])
    return clifford.clifford_of_pair(qpair.pair_on_quaternion_tensor(Q1, Q2)).C.dim


def structure_op(r: Runner, op: dict):
    form = op["form"]
    n = form["n"]
    fn = {"even": even_structure, "pair": pair_structure, "tensor": tensor_structure}[op["cmd"]]
    dt, res, exc = r.timed(fn, form)
    if exc is not None:
        return dt, repr(exc), None
    if op["cmd"] != "even":
        return dt, None, lambda: checks.check_pair_dim(n, res)
    C_dim, C0_dim, center_dim, sym_dim = res

    def check():
        checks.check_clifford_dims(n, C_dim, C0_dim)
        checks.check_center_dim(n, center_dim)
        if form["field"] != "GF(2)":
            checks.check_involution_type(n, C0_dim, sym_dim)
    return dt, None, check


# ---------------------------------------------------------------------------
# a run

def run_rounds(workload: str, seed: int, seconds: float, tracer) -> dict:
    ops = batches.BATCHES[workload](seed)
    expected = witness_expectations(ops) if workload == "witness" else None
    if tracer is not None:
        tracer.install()
    runner = Runner(tracer)
    execute = {"query": lambda op: query_op(runner, op),
               "witness": lambda op: witness_op(runner, op, expected),
               "structure": lambda op: structure_op(runner, op)}[workload]
    stats = {"rounds": 0, "attempted": 0, "failed": 0, "round_s": [], "wrong": [], "failures": [],
             "best": [math.inf] * len(ops), "ok": [True] * len(ops)}
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for i, op in enumerate(ops):
            dt, error, check = execute(op)
            stats["attempted"] += 1
            stats["best"][i] = min(stats["best"][i], dt)
            if error is not None:
                stats["failed"] += 1
                stats["ok"][i] = False
                if stats["rounds"] == 0:
                    stats["failures"].append(f"{op['cmd']} {json.dumps(op['form']['obj'])} "
                                             f"{json.dumps(op.get('target'))}: {error}")
                continue
            try:
                check()
            except checks.CheckFailed as e:
                stats["ok"][i] = False
                stats["wrong"].append(f"{op['cmd']} {json.dumps(op['form']['obj'])}: {e}")
        stats["rounds"] += 1
        stats["round_s"].append(perf_counter() - round_start)
        elapsed = perf_counter() - start
        if tracer is not None or elapsed * (stats["rounds"] + 1) / stats["rounds"] > seconds:
            break
    if tracer is not None:
        tracer.uninstall()
    stats["not_covered"] = runner.not_covered
    stats["batch"] = len(ops)
    return stats


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(batches.BATCHES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    import_program()

    tracer = spans.Tracer() if args.trace else None
    setup = None if args.trace else setup_seconds()
    st = run_rounds(args.workload, args.seed, args.seconds, tracer)

    ok = [t for t, good in zip(st["best"], st["ok"]) if good]
    ops_per_s = len(ok) / sum(st["best"])
    if tracer is None:
        metrics = {
            "setup_s": (setup, "s"),
            "ops_per_s": (ops_per_s, "1/s"),
            "op_geomean_ms": (1000 * math.exp(statistics.fmean(math.log(t) for t in ok)), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        metrics = dict(tracer.metrics(), **{"src.lines": (src_lines(), "lines")})
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(OUT / f"spans-{stem}.json")

    print(f"workload {args.workload}, seed {args.seed}: {st['rounds']} round(s) of {st['batch']} "
          f"operations; attempted {st['attempted']}, failed {st['failed']}, "
          f"not-covered answers {st['not_covered']}, wrong outputs {len(st['wrong'])}; "
          f"round times {' '.join(f'{t:.2f}' for t in st['round_s'])} s")
    if tracer is not None:
        print(f"  traced ops_per_s = {ops_per_s} 1/s (tracing overhead; not a metric)")
    for line in st["failures"][:20]:
        print(f"  failed in round 1: {line}")
    for line in st["wrong"][:20]:
        print(f"  WRONG {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    result = {"correct": not st["wrong"], "attempted": st["attempted"], "failed": st["failed"],
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    (OUT / f"result-{stem}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
