"""Reference MILP solver CLI: reads an LP or MPS file, solves with HiGHS.

Runs as a standalone executable (`ebusopt-solve model.lp out.sol`) so the
package's solver bridge can treat it exactly like any other external solver:
model file in, solution file out, status carried in the file header.  The
actual branch-and-bound is HiGHS, reached through scipy.optimize.milp.

Solution files are plain text: `# status/objective/bound` headers followed
by `name value` lines.  Exit code 0 covers every properly diagnosed outcome
(optimal, infeasible, time limit); 2 means the model file could not be read
(missing, not text, or a malformed line, which the message names); 3 means
the solver itself failed.

``solve_arrays`` is the one HiGHS call site: this CLI reaches it with the
``lpformat.ProblemArrays`` that the reader of the file returns,
``milp.solve_model`` with ``emitted_arrays`` of the model's own arrays,
which are the same arrays with no model file written and no solution file
written back; only this CLI writes a solution file.  scipy is imported on
first use, so importing this module stays cheap.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from .lpformat import (SENSES, LpFormatError, ModelArrays, ProblemArrays,
                       read_lp, read_mps, write_solution_text)

_STATUS = {
    0: "optimal",
    1: "iteration-limit",
    2: "infeasible",
    3: "unbounded",
    4: "error",
}


def load_model(path: str) -> ProblemArrays:
    if path.endswith(".mps"):
        return read_mps(path)
    if path.endswith(".lp"):
        return read_lp(path)
    # sniff: MPS starts with NAME/ROWS; the reader reports a file that is
    # not text
    with open(path, errors="replace") as fh:
        head = fh.read(400).lstrip()
    if head.upper().startswith(("NAME", "ROWS", "*")):
        return read_mps(path)
    return read_lp(path)


def emitted_arrays(m: ModelArrays, fmt: str = "lp",
                   relax: bool = False) -> ProblemArrays:
    """What ``read_lp`` (or ``read_mps``) returns for the file ``write_lp``
    (or ``write_mps``) emits from ``m``, built without the file.

    The writers print every number so that it reads back bit for bit, except
    that -0.0 reads back as 0.0; adding 0.0 does the same here.  Columns
    follow the reader's first-seen order: for LP the objective terms, then
    row terms, bound lines and binaries, with columns that appear in none of
    them left out; for MPS every column in model order.
    """
    n = len(m.names)
    binary = m.binary
    if fmt == "mps":
        order = np.arange(n)
    elif fmt == "lp":
        bounded = (binary & relax) | (~binary & ((m.lb != 0.0)
                                                 | (m.ub != math.inf)))
        seen = np.concatenate([np.flatnonzero(m.obj != 0.0), m.cols,
                               np.flatnonzero(bounded),
                               np.flatnonzero(binary & (not relax))])
        cols, first = np.unique(seen, return_index=True)
        order = cols[np.argsort(first)]
    else:
        raise LpFormatError(f"unknown model format {fmt!r}")
    pos = np.full(n, -1)
    pos[order] = np.arange(len(order))
    rhs = m.rhs + 0.0
    # the rows keep their entries; each row's columns become ascending in
    # the new order
    indices = pos[m.cols]
    by_row = np.lexsort((indices, m.row_of_entry()))
    return ProblemArrays(
        names=[m.names[j] for j in order.tolist()], c=m.obj[order] + 0.0,
        indptr=m.start, indices=indices[by_row], data=m.vals[by_row] + 0.0,
        row_lb=np.where(m.sense == SENSES.index("<="), -np.inf, rhs),
        row_ub=np.where(m.sense == SENSES.index(">="), np.inf, rhs),
        lb=np.where(binary, 0.0, m.lb + 0.0)[order],
        ub=np.where(binary, 1.0, m.ub + 0.0)[order],
        integrality=(binary & (not relax))[order].astype(float))


def solve_arrays(p: ProblemArrays, time_limit: float | None = None,
                 mip_gap: float = 1e-9):
    """Solve with HiGHS; returns (status, values, objective, bound).

    Status is "optimal", "feasible" (a limit hit with an incumbent),
    "time-limit" (a limit hit without one), "infeasible", "unbounded" or
    "error".
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    options = {"mip_rel_gap": mip_gap}
    if time_limit is not None:
        if time_limit <= 0:
            return "time-limit", {}, None, None
        options["time_limit"] = float(time_limit)

    constraints = []
    if len(p.row_lb):
        a = csr_matrix((p.data, p.indices, p.indptr),
                       shape=(len(p.row_lb), len(p.names)))
        constraints = [LinearConstraint(a, p.row_lb, p.row_ub)]
    res = milp(c=p.c, constraints=constraints, integrality=p.integrality,
               bounds=Bounds(p.lb, p.ub), options=options)

    status = _STATUS.get(res.status, "error")
    if status == "iteration-limit":
        status = "time-limit"
    sign = 1.0 if p.minimize else -1.0
    values = {}
    objective = None
    bound = None
    if res.x is not None:
        values = {name: float(v) for name, v in zip(p.names, res.x)}
        objective = sign * float(res.fun)
        if status == "time-limit":
            status = "feasible"
    dual = getattr(res, "mip_dual_bound", None)
    if dual is not None and math.isfinite(dual):
        bound = sign * float(dual)
    elif objective is not None and status == "optimal":
        bound = objective
    if res.x is None and status not in ("infeasible", "unbounded"):
        status = "time-limit" if time_limit is not None else status
    return status, values, objective, bound


def solve_parsed(model: ProblemArrays, time_limit: float | None = None,
                 relax: bool = False, mip_gap: float = 1e-9):
    """Returns (status, values, objective, bound); ``relax`` drops
    integrality."""
    if relax:
        model = dataclasses.replace(
            model, integrality=np.zeros_like(model.integrality))
    return solve_arrays(model, time_limit, mip_gap)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ebusopt-solve",
        description="solve an LP/MPS model file with HiGHS and write a "
                    "plain-text solution file")
    parser.add_argument("model")
    parser.add_argument("solution")
    parser.add_argument("--time-limit", type=float, default=None)
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for command-template compatibility")
    parser.add_argument("--relax", action="store_true",
                        help="solve the LP relaxation of the integrality")
    parser.add_argument("--mip-gap", type=float, default=1e-9)
    args = parser.parse_args(argv)

    try:
        model = load_model(args.model)
    except (OSError, LpFormatError) as exc:
        print(f"ebusopt-solve: cannot read model: {exc}", file=sys.stderr)
        return 2
    try:
        status, values, objective, bound = solve_parsed(
            model, time_limit=args.time_limit, relax=args.relax,
            mip_gap=args.mip_gap)
    except Exception as exc:  # solver-internal failure
        print(f"ebusopt-solve: solver failure: {exc}", file=sys.stderr)
        return 3
    write_solution_text(args.solution, values, status, objective, bound)
    print(f"ebusopt-solve: status={status}"
          + (f" objective={objective:.9g}" if objective is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
