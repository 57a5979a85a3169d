"""ebusopt benchmark: end-to-end solve metrics and a per-layer traced run.

    python3 perfbench/run.py --workload chains --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: ebusopt is imported from
``./src`` and the same path is handed to the solver subprocess through
PYTHONPATH.  A closed loop with one client: one op in flight, the solver
child single-threaded.  The run repeats whole passes over the workload's
instances until ``--seconds`` have passed, checks every op's outputs, and
prints one JSON line last: the ``end_to_end`` metrics of BENCHMARK.json
with ``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  The exit
code is 0 only if every check passed.

With ``--trace 1`` the first half of the time runs untraced and the second
half traced; the traced ops give the per-layer figures, and the difference
of the two halves' median op times is the tracing overhead.  The spans go
to ``.bench_out/trace-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

from spans import CHECK, OP, Recorder, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("chains", "synth20", "synth300-build")
SETUP_PROBES = 2          # fresh interpreters timed for setup, besides this one
TAIL_BEYOND = 10
ACCOUNT_TOL = 0.05


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ebusopt", "__init__.py")):
        print(f"perfbench: no ebusopt sources in {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")

    if args.workload == "all":
        codes = [subprocess.run([sys.executable, os.path.abspath(__file__),
                                 "--workload", w, "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in WORKLOADS]
        return max(codes)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup(args.workload, args.seed)[1]}))
        return 0
    return run(args)


def setup(name: str, seed: int):
    """Import ebusopt and generate the workload's instances, timed."""
    start = time.perf_counter()
    import workloads
    workload = workloads.make_workload(name, seed)
    return workload, time.perf_counter() - start


def probe_setup(name: str, seed: int) -> float:
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, check=True, timeout=120)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    samples = [probe_setup(args.workload, args.seed)
               for _ in range(SETUP_PROBES)]
    workload, own = setup(args.workload, args.seed)
    samples.append(own)

    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-"
                                f"{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    passes = workload.passes()
    try:
        if args.trace:
            plain, _ = measure(workload, Recorder(False), passes,
                               args.seconds / 2, workdir)
            rec = Recorder(True)
            traced, _ = measure(workload, rec, passes, args.seconds / 2,
                                workdir, first_id=len(plain))
            ops = plain + traced
        else:
            ops, loop_s = measure(workload, Recorder(False), passes,
                                  args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [op for op in ops if op["problems"]]
    for op in failed:
        print(f"# FAILED op {op['op']} ({op['job']}): "
              + "; ".join(op["problems"]), file=sys.stderr)
    env = environment()
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# {args.workload} seed={args.seed}: {len(ops)} ops attempted, "
          f"{len(failed)} failed, fail_frac {len(failed) / len(ops):.4g}")

    if args.trace:
        layers = layer_metrics(traced)
        layers["bench.trace_overhead_s"] = (
            statistics.median(op["wall_s"] for op in traced)
            - statistics.median(op["wall_s"] for op in plain))
        metrics = {m["name"]: {"value": layers.get(m["name"], 0.0),
                               "unit": m["unit"]}
                   for m in spec["per_layer"]}
        write_trace(args, env, rec, traced, metrics)
    else:
        metrics = end_to_end(ops, loop_s, statistics.median(samples))
        unknown = set(metrics) ^ {m["name"] for m in spec["end_to_end"]}
        if unknown:
            raise SystemExit(f"perfbench: metrics out of step with "
                             f"BENCHMARK.json: {sorted(unknown)}")
        metrics = {m["name"]: {"value": metrics[m["name"]],
                               "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    for name, m in metrics.items():
        print(f"#   {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


def measure(workload, rec, passes, seconds: float, workdir: str,
            first_id: int = 0):
    """Whole passes until ``seconds`` are up; the loop time leaves checks
    out.  Returns the op records and the loop time."""
    ops: list = []
    start, excluded = time.perf_counter(), rec.excluded_s
    while not ops or time.perf_counter() - start < seconds:
        for job in next(passes):
            ops.append(run_op(workload, job, rec, workdir,
                              first_id + len(ops)))
    return ops, time.perf_counter() - start - (rec.excluded_s - excluded)


def run_op(workload, job, rec, workdir: str, op_id: int) -> dict:
    rec.op = op_id
    root = len(rec.spans)
    excluded = rec.excluded_s
    start = time.perf_counter()
    res = None
    try:
        with rec.span(OP):
            res = workload.run_op(job, rec, workdir)
        problems = list(res.problems)
    except Exception as exc:  # a failed op is counted, and the loop goes on
        problems = [f"{type(exc).__name__}: {exc}"]
    wall = time.perf_counter() - start - (rec.excluded_s - excluded)
    op = {"op": op_id, "job": job.label, "wall_s": wall,
          "problems": problems}
    if rec.traced:
        op["layers"], op["sizes"] = layer_values(res, rec.spans, root, wall)
        unaccounted = op["layers"]["bench.unaccounted_s"]
        if abs(unaccounted) > ACCOUNT_TOL * wall:
            problems.append(f"layers leave {unaccounted:.4f} s of the "
                            f"{wall:.4f} s op unaccounted")
    return op


def layer_values(res, spans: list, root: int, wall: float):
    """Per-layer self times and counts of one traced op, and its model
    sizes by kind."""
    own = self_times(spans, root)
    v = {f"{name}_s": t for name, t in own.items()
         if name not in (OP, CHECK)}
    v["bench.unaccounted_s"] = own[OP]
    v["bench.check_s"] = own.get(CHECK, 0.0)
    waits = [s["end"] - s["start"] for s in spans[root:]
             if s["name"] == "solverbridge.wait"]
    if waits:
        # the wait's self time is child start-up plus the parent's parse of
        # the solution file, which the op times once more on its own
        v["solverbridge.wait_s"] = sum(waits)
        v["solverbridge.spawn_s"] = (own["solverbridge.wait"]
                                     - own.get("lpformat.sol_parse", 0.0))
    v["pipeline.python_s"] = wall - v.get("refsolver.highs_s", 0.0)
    if res is None:
        return v, {}

    v["chargemodel.curve_knots"] = sum(len(c.times)
                                       for c in res.curves.values())
    v["chargemodel.segments"] = sum(d.segment_count
                                    for d in res.domains.values())
    stats = res.graph.stats()
    v["netgraph.nodes"] = sum(stats["nodes"].values())
    v["netgraph.arcs"] = sum(stats["arcs"].values())
    v["netgraph.egress_arcs"] = stats["arcs"].get("egress", 0)
    rows = res.model.rows_by_tag()
    v["milp.vars"] = res.model.num_variables
    v["milp.rows"] = sum(rows.values())
    v["milp.nnz"] = sum(len(r.coeffs) for r in res.model.rows)
    v["lpformat.model_bytes"] = res.model_bytes
    sizes = {"arcs": stats["arcs"], "rows": rows, "vars": v["milp.vars"],
             "nnz": v["milp.nnz"], "lp_bytes": res.model_bytes}

    solver = res.solver_trace
    if solver and solver["objective"] is not None:
        obj = solver["objective"]
        scale = max(abs(obj), 1e-9)
        if solver["lp_bound"] is not None:
            v["refsolver.lp_bound"] = solver["lp_bound"]
            v["refsolver.root_gap"] = (obj - solver["lp_bound"]) / scale
        if solver["bound"] is not None:
            v["refsolver.mip_gap"] = (obj - solver["bound"]) / scale
    if res.schedule is not None:
        v["validate.courses"] = len(res.schedule.courses)
        ratios = [c.max_abs_eps / c.eps_bound
                  for rep in (res.exact, res.approx) for c in rep.courses
                  if c.eps_bound]
        v["validate.max_eps_ratio"] = max(ratios, default=0.0)
    return v, sizes


def layer_metrics(ops: list) -> dict:
    """Median over the traced ops that passed of each per-layer value; a
    layer the workload never runs reads 0."""
    good = [op for op in ops if not op["problems"]] or ops
    names = {k for op in good for k in op["layers"]}
    return {k: statistics.median(op["layers"].get(k, 0.0) for op in good)
            for k in names}


def tail(walls: list):
    """The highest percentile with at least TAIL_BEYOND samples above it,
    with its sample count; the maximum when there are too few samples."""
    s = sorted(walls)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 0
    return s[-1 - TAIL_BEYOND], TAIL_BEYOND


def end_to_end(ops: list, loop_s: float, setup_s: float) -> dict:
    good = [op["wall_s"] for op in ops if not op["problems"]]
    walls = good or [op["wall_s"] for op in ops]
    tail_s, beyond = tail(walls)
    print(f"# op_s.tail: {beyond} of {len(walls)} samples beyond it "
          f"(p{100.0 * (len(walls) - beyond) / len(walls):.0f})")
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": setup_s,
        "op_s.p50": statistics.median(walls),
        "op_s.tail": tail_s,
        "ops_per_min": 60.0 * len(good) / loop_s,
        "ok_frac": len(good) / len(ops),
        "peak_rss_mb": peak_kib / 1024.0,
    }


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def write_trace(args, env: dict, rec, ops: list, metrics: dict) -> None:
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "env": env, "metrics": metrics, "ops": ops,
                   "spans": rec.spans}, fh, indent=1)
    print(f"# trace written to {path}")


if __name__ == "__main__":
    sys.exit(main())
