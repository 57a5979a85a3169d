"""Reference MILP solver CLI: reads an LP or MPS file, solves with HiGHS.

Runs as a standalone executable (`ebusopt-solve model.lp out.sol`) so the
package's solver bridge can treat it exactly like any other external solver:
model file in, solution file out, status carried in the file header.  The
actual branch-and-bound is HiGHS: the ``_Highs`` object that scipy bundles
(``scipy.optimize._highspy._core``), given the CSR rows as a row-wise
``HighsLp``.

Solution files are plain text: `# status/objective/bound` headers followed
by `name value` lines.  Exit code 0 covers every properly diagnosed outcome
(optimal, infeasible, time limit); 2 means the model file could not be read
(missing, not text, or a malformed line, which the message names); 3 means
the solver itself failed.

``solve_arrays`` is the one HiGHS call site, and the one place where the
rows' senses and right-hand sides become HiGHS's row bounds: this CLI
reaches it with the ``lpformat.ModelArrays`` that the reader of the file
returns, ``milp.solve_model`` with ``lpformat.emitted_arrays`` of the
model's own arrays, which are the same arrays with no model file written
and no solution file written back; only this CLI writes a solution file.
A model HiGHS refuses raises, so it is never reported as a status.

``solve_arrays`` sets three HiGHS options besides ``time_limit``: no
console log; ``mip_rel_gap`` 1e-9 (``MIP_REL_GAP``), so an "optimal"
status is optimal to the objective's last digits, not to HiGHS's default
1e-4; and no feasibility-jump heuristic, which HiGHS 1.12 (scipy 1.17.1)
otherwise runs before the root LP.  That pass took 7-16 ms on each
worst-case chain's over model, and HiGHS kept none of its incumbents:
without it the chains and the 20-trip benchmark instance take the same
nodes and LP iterations to the same solution vector (``BENCH_22.json``).
On the small ``charger_toy`` it finds the optimum before the root LP
does; without it the root LP finds the same one, and only the signs of
some zeros and the last bit of one value move.

scipy is imported on first use, so importing this module stays cheap.
The HiGHS module is private to scipy; ``tests/test_milp.py`` pins the
names and options used here, so a scipy release that moves them fails
there.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from .lpformat import (SENSES, LpFormatError, ModelArrays, read_lp, read_mps,
                       write_solution_text)

MIP_REL_GAP = 1e-9

# HiGHS model status name -> status; any other status is "error"
_STATUS = {
    "kOptimal": "optimal",
    "kTimeLimit": "time-limit",
    "kIterationLimit": "time-limit",
    "kInfeasible": "infeasible",
    "kUnbounded": "unbounded",
}


def load_model(path: str) -> ModelArrays:
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


def solve_arrays(p: ModelArrays, time_limit: float | None = None):
    """Solve with HiGHS; returns (status, values, objective, bound).

    Status is "optimal", "feasible" (a limit hit with an incumbent),
    "time-limit" (a limit hit without one), "infeasible", "unbounded" or
    "error".  A MIP hands back its incumbent after a limit; a pure LP
    hands back values only when optimal.  The bound is HiGHS's dual bound
    when it has an incumbent, and otherwise the optimal LP objective.  A
    model HiGHS refuses (a NaN or infinite rhs, an infinite coefficient)
    raises ``RuntimeError``; so does a NaN coefficient, which HiGHS would
    take and report a status for.
    """
    from scipy.optimize._highspy import _core

    if time_limit is not None and time_limit <= 0:
        return "time-limit", {}, None, None
    if not np.isfinite(p.vals).all():
        raise RuntimeError("HiGHS refused the model: a matrix coefficient "
                           "is not finite")
    n, m = len(p.names), len(p.rhs)
    row_lb = np.where(p.sense == SENSES.index("<="), -np.inf, p.rhs)
    row_ub = np.where(p.sense == SENSES.index(">="), np.inf, p.rhs)
    lp = _core.HighsLp()
    lp.num_col_, lp.num_row_ = n, m
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = p.obj, p.lb, p.ub
    lp.row_lower_, lp.row_upper_ = row_lb, row_ub
    a = lp.a_matrix_
    a.format_ = _core.MatrixFormat.kRowwise
    a.num_col_, a.num_row_ = n, m
    a.start_, a.index_, a.value_ = p.start, p.cols, p.vals
    lp.a_matrix_ = a

    highs = _core._Highs()
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("mip_rel_gap", MIP_REL_GAP)
    highs.setOptionValue("mip_heuristic_run_feasibility_jump", False)
    if time_limit is not None:
        highs.setOptionValue("time_limit", float(time_limit))
    if highs.passModel(lp) == _core.HighsStatus.kError:
        raise RuntimeError("HiGHS refused the model")
    integer = np.flatnonzero(p.integer)
    if len(integer):
        highs.changeColsIntegrality(
            len(integer), integer.astype(np.int32),
            np.full(len(integer), _core.HighsVarType.kInteger))
    highs.run()
    status = _STATUS.get(highs.getModelStatus().name, "error")
    info = highs.getInfo()
    has_x = status == "optimal" or (
        len(integer) > 0 and status == "time-limit"
        and info.objective_function_value != math.inf)

    sign = 1.0 if p.minimize else -1.0
    values, objective, bound = {}, None, None
    if has_x:
        values = dict(zip(p.names, highs.getSolution().col_value))
        objective = sign * float(info.objective_function_value)
        if status == "time-limit":
            status = "feasible"
        if len(integer) and math.isfinite(info.mip_dual_bound):
            bound = sign * float(info.mip_dual_bound)
        elif status == "optimal":
            bound = objective
    elif status not in ("infeasible", "unbounded") and time_limit is not None:
        status = "time-limit"
    return status, values, objective, bound


def solve_parsed(model: ModelArrays, time_limit: float | None = None,
                 relax: bool = False):
    """Returns (status, values, objective, bound); ``relax`` makes the
    integer columns continuous."""
    if relax:
        model = dataclasses.replace(
            model, integer=np.zeros_like(model.integer))
    return solve_arrays(model, time_limit)


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
    args = parser.parse_args(argv)

    try:
        model = load_model(args.model)
    except (OSError, LpFormatError) as exc:
        print(f"ebusopt-solve: cannot read model: {exc}", file=sys.stderr)
        return 2
    try:
        status, values, objective, bound = solve_parsed(
            model, time_limit=args.time_limit, relax=args.relax)
    except Exception as exc:  # solver-internal failure
        print(f"ebusopt-solve: solver failure: {exc}", file=sys.stderr)
        return 3
    write_solution_text(args.solution, values, status, objective, bound)
    print(f"ebusopt-solve: status={status}"
          + (f" objective={objective:.9g}" if objective is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
