"""Reference MILP solver CLI: reads an LP or MPS file, solves with HiGHS.

Runs as a standalone executable (`ebusopt-solve model.lp out.sol`) so the
package's solver bridge can treat it exactly like any other external solver:
model file in, solution file out, status carried in the file header.  The
actual branch-and-bound is HiGHS: the ``_Highs`` object that scipy bundles
(``scipy.optimize._highspy._core``), given the model in one ``passModel``
call with the CSR rows row-wise and the integrality beside them.

Solution files are plain text: `# status/objective/bound` headers followed
by `name value` lines.  Exit code 0 covers every properly diagnosed outcome
(optimal, infeasible, time limit); 2 means the model file could not be read
(missing, not text, or a malformed line, which the message names) or an
argument is invalid, such as a time limit that is NaN or not above 0 or a
solution path that cannot be written; 3 means the solver itself failed or
HiGHS could not be loaded.

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

HiGHS is loaded on the first solve, by ``highs_core``; importing this
module loads no scipy module.  ``highs_core`` imports the top-level
``scipy`` package, which is cheap and runs scipy's distributor hooks, and
then loads the extension file ``optimize/_highspy/_core*.so`` from that
package's folder under the name scipy gives it.  It does not run
``scipy.optimize/__init__.py``, which imports scipy's optimizers with
``scipy.sparse`` and ``scipy.linalg`` though the extension needs none of
them: on a 2-CPU x86-64 host with scipy 1.17.1 that import took
0.37-0.46 s and 49 MiB, the direct load 0.012-0.021 s and 3.3 MiB.  The
module is registered in ``sys.modules``, so a later ``import
scipy.optimize`` reuses it, and a process that imported
``scipy.optimize`` first gets scipy's own object; either way the
extension is initialised once.  The module is private to scipy;
``tests/test_milp.py`` pins its file and the names and options used
here, so a scipy release that moves them fails there, and a solve
without the file fails naming the folder it looked in.
"""

from __future__ import annotations

import argparse
import importlib.machinery
import importlib.util
import math
import os
import sys

import numpy as np

from .lpformat import (SENSES, LpFormatError, ModelArrays, read_lp, read_mps,
                       write_solution_text)

MIP_REL_GAP = 1e-9

HIGHS_MODULE = "scipy.optimize._highspy._core"

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


def highs_core():
    """scipy's bundled HiGHS extension, loaded without ``scipy.optimize``.

    Returns the module already in ``sys.modules`` under ``HIGHS_MODULE``
    if there is one, else loads ``_core`` from the ``optimize/_highspy``
    folder of the installed scipy and registers it there.  Raises
    ``ImportError`` naming the folder when the file is not in it.
    """
    core = sys.modules.get(HIGHS_MODULE)
    if core is not None:
        return core
    import scipy
    folder = os.path.join(os.path.dirname(scipy.__file__), "optimize",
                          "_highspy")
    found = importlib.machinery.PathFinder.find_spec("_core", [folder])
    if found is None:
        raise ImportError(f"scipy's HiGHS extension _core is not in {folder}")
    spec = importlib.util.spec_from_file_location(HIGHS_MODULE, found.origin)
    core = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(core)
    sys.modules[HIGHS_MODULE] = core
    return core


def solve_arrays(p: ModelArrays, time_limit: float | None = None):
    """Solve with HiGHS; returns (status, values, objective, bound).

    Status is "optimal", "feasible" (a limit hit with an incumbent),
    "time-limit" (a limit hit without one), "infeasible", "unbounded" or
    "error".  A MIP hands back its incumbent after a limit; a pure LP
    hands back values only when optimal.  The bound is HiGHS's dual bound
    when it has an incumbent, and otherwise the optimal LP objective.  A
    model HiGHS refuses (a NaN or infinite rhs, an infinite coefficient)
    raises ``RuntimeError``; so do a NaN coefficient, which HiGHS would
    take and report a status for, and arrays whose lengths disagree,
    which HiGHS would read past the end of.  A NaN time limit raises
    ``ValueError``: HiGHS would take it and run with no limit.
    """
    if time_limit is not None and math.isnan(time_limit):
        raise ValueError("time limit is NaN")
    core = highs_core()

    if time_limit is not None and time_limit <= 0:
        return "time-limit", {}, None, None
    if not np.isfinite(p.vals).all():
        raise RuntimeError("HiGHS refused the model: a matrix coefficient "
                           "is not finite")
    n, m, nnz = len(p.names), len(p.rhs), len(p.vals)
    # passModel reads these lengths through raw pointers
    if {len(p.obj), len(p.lb), len(p.ub), len(p.integer)} != {n} or \
            len(p.start) != m + 1 or len(p.cols) != nnz:
        raise RuntimeError("HiGHS refused the model: array lengths disagree")
    row_lb = np.where(p.sense == SENSES.index("<="), -np.inf, p.rhs)
    row_ub = np.where(p.sense == SENSES.index(">="), np.inf, p.rhs)
    highs = core._Highs()
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("mip_rel_gap", MIP_REL_GAP)
    highs.setOptionValue("mip_heuristic_run_feasibility_jump", False)
    if time_limit is not None:
        highs.setOptionValue("time_limit", float(time_limit))
    # integrality codes are HighsVarType's: 0 continuous, 1 integer
    passed = highs.passModel(
        n, m, nnz, core.MatrixFormat.kRowwise, core.ObjSense.kMinimize, 0.0,
        p.obj, p.lb, p.ub, row_lb, row_ub, p.start.astype(np.int32),
        p.cols.astype(np.int32), p.vals, p.integer.astype(np.int32))
    if passed == core.HighsStatus.kError:
        raise RuntimeError("HiGHS refused the model")
    mip = bool(p.integer.any())
    highs.run()
    status = _STATUS.get(highs.getModelStatus().name, "error")
    info = highs.getInfo()
    has_x = status == "optimal" or (
        mip and status == "time-limit"
        and info.objective_function_value != math.inf)

    sign = 1.0 if p.minimize else -1.0
    values, objective, bound = {}, None, None
    if has_x:
        values = dict(zip(p.names, highs.getSolution().col_value))
        objective = sign * float(info.objective_function_value)
        if status == "time-limit":
            status = "feasible"
        if mip and math.isfinite(info.mip_dual_bound):
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
    return solve_arrays(model.relaxed() if relax else model, time_limit)


def _time_limit(text: str) -> float:
    """A ``--time-limit`` in seconds: a number above 0."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"a time limit of {text} s cannot run")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ebusopt-solve",
        description="solve an LP/MPS model file with HiGHS and write a "
                    "plain-text solution file")
    parser.add_argument("model")
    parser.add_argument("solution")
    parser.add_argument("--time-limit", type=_time_limit, default=None)
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for command-template compatibility")
    args = parser.parse_args(argv)

    try:
        model = load_model(args.model)
    except (OSError, LpFormatError) as exc:
        print(f"ebusopt-solve: cannot read model: {exc}", file=sys.stderr)
        return 2
    try:
        status, values, objective, bound = solve_arrays(
            model, time_limit=args.time_limit)
    except Exception as exc:  # solver-internal failure
        print(f"ebusopt-solve: solver failure: {exc}", file=sys.stderr)
        return 3
    try:
        write_solution_text(args.solution, values, status, objective, bound)
    except OSError as exc:
        print(f"ebusopt-solve: cannot write solution: {exc}", file=sys.stderr)
        return 2
    print(f"ebusopt-solve: status={status}"
          + (f" objective={objective:.9g}" if objective is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
