"""Solver command for the benchmark's traced run.

Does what ``python -m ebusopt.refsolver`` does -- read the model file,
solve it with HiGHS, write the solution file -- with a timer around each
step, and then solves the LP relaxation once for the root bound.  The
spans and the solver figures go to ``SOLUTION.trace.json``, which the
benchmark merges into its trace.  The untraced runs never use this file.

    python3 perfbench/tracedsolver.py MODEL SOLUTION --time-limit S --threads N
"""

from __future__ import annotations

import argparse
import json
import time

from ebusopt.lpformat import write_solution_text
from ebusopt.refsolver import load_model, solve_parsed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tracedsolver")
    parser.add_argument("model")
    parser.add_argument("solution")
    parser.add_argument("--time-limit", type=float, default=None)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args(argv)

    spans = []

    def timed(name, fn, *a, **kw):
        start = time.perf_counter()
        out = fn(*a, **kw)
        spans.append({"name": name, "start": start,
                      "end": time.perf_counter()})
        return out

    fmt = "mps" if args.model.endswith(".mps") else "lp"
    model = timed(f"lpformat.read_{fmt}", load_model, args.model)
    status, values, objective, bound = timed(
        "refsolver.highs", solve_parsed, model, time_limit=args.time_limit)
    timed("lpformat.sol_write", write_solution_text, args.solution, values,
          status, objective, bound)
    _, _, lp_bound, _ = timed("refsolver.relax", solve_parsed, model,
                              time_limit=args.time_limit, relax=True)
    with open(args.solution + ".trace.json", "w") as fh:
        json.dump({"spans": spans, "status": status, "objective": objective,
                   "bound": bound, "lp_bound": lp_bound}, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
