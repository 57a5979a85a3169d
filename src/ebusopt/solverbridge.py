"""Subprocess bridge to an external MILP solver.

The solver is described by a command template with placeholders {model},
{solution}, {timelimit}, and {threads}; anything that reads a model file and
writes a solution file one of the bundled parsers understands can be plugged
in.  ``milp.solve_model`` comes here only when ``external_command`` finds a
template (given, or in EBUSOPT_SOLVER_CMD); it then writes the model file
the command reads.  Otherwise it solves with HiGHS in process and no file
is written.  The default template below runs the bundled HiGHS-backed
reference solver in a fresh interpreter, which reproduces the in-process
result through a file.
Each solve owns one subprocess and kills it once the time limit plus a
grace period has passed, keeping whatever incumbent made it into the
solution file.  ``SolverError.output`` and ``RawSolution.solver_output``
keep the last 4000 characters of the solver's stdout and stderr.
"""

from __future__ import annotations

import os
import shlex
import string
import subprocess
import sys
from typing import Optional

from .lpformat import LpFormatError, RawSolution, parse_solution_file

SOLVER_ENV_VAR = "EBUSOPT_SOLVER_CMD"

DEFAULT_SOLVER_CMD = (
    "{python} -m ebusopt.refsolver {model} {solution} "
    "--time-limit {timelimit} --threads {threads}"
)

_TIMEOUT_GRACE_S = 30.0
_OUTPUT_TAIL = 4000     # characters of the solver's output that are kept


class SolverError(RuntimeError):
    """The external solver could not be run or produced unusable output."""

    def __init__(self, message: str, command: str = "", output: str = ""):
        super().__init__(message)
        self.command = command
        self.output = output


def external_command(template: Optional[str] = None) -> Optional[str]:
    """The solver command template in force: ``template``, else
    EBUSOPT_SOLVER_CMD; None when the solve stays in process."""
    return template or os.environ.get(SOLVER_ENV_VAR) or None


def resolve_solver_command(template: Optional[str] = None) -> str:
    cmd = external_command(template) or DEFAULT_SOLVER_CMD
    return cmd.replace("{python}", sys.executable)


def solve_external(model_path, command_template: Optional[str] = None,
                   time_limit: Optional[float] = None,
                   threads: int = 1) -> RawSolution:
    """Run the solver command on a model file and parse its solution file,
    the model path with ``.sol`` for its extension.

    A command that cannot be started (not found, a directory, a file
    without the x bit or in no executable format), a nonzero exit or
    unparseable output raises SolverError carrying the captured
    diagnostics; a wall-clock timeout (time limit plus grace) kills
    the subprocess and returns status "time-limit" with the best incumbent
    found in the solution file, if any.
    """
    model_path = str(model_path)
    solution_path = model_path.rsplit(".", 1)[0] + ".sol"
    if os.path.exists(solution_path):
        os.unlink(solution_path)

    command = _fill(resolve_solver_command(command_template),
                    model=shlex.quote(model_path),
                    solution=shlex.quote(solution_path),
                    timelimit=_fmt_limit(time_limit), threads=threads)
    argv = shlex.split(command)
    wall_limit = None if time_limit is None else time_limit + _TIMEOUT_GRACE_S
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=wall_limit)
    except FileNotFoundError as exc:
        raise SolverError(f"solver executable not found: {exc}",
                          command=command) from exc
    except OSError as exc:  # a directory, no x bit, not an executable format
        raise SolverError(f"solver executable cannot run: {exc}",
                          command=command) from exc
    except subprocess.TimeoutExpired as exc:
        # the captured output comes as bytes here even with text=True
        out = (_decoded(exc.stdout) + _decoded(exc.stderr))[-_OUTPUT_TAIL:]
        if os.path.exists(solution_path):
            try:
                sol = parse_solution_file(solution_path)
                sol.status = "time-limit"
                sol.solver_output = out
                return sol
            except LpFormatError:
                pass
        return RawSolution(values={}, status="time-limit",
                           solver_output=out)

    output = ((proc.stdout or "") + (proc.stderr or ""))[-_OUTPUT_TAIL:]
    if proc.returncode != 0:
        raise SolverError(
            f"solver exited with code {proc.returncode}",
            command=command, output=output)
    if not os.path.exists(solution_path):
        raise SolverError("solver wrote no solution file",
                          command=command, output=output)
    try:
        sol = parse_solution_file(solution_path)
    except LpFormatError as exc:
        raise SolverError(f"cannot parse solution file: {exc}",
                          command=command, output=output) from exc
    sol.solver_output = output
    return sol


def _fill(template: str, **fields) -> str:
    """``template`` with its placeholders filled in from ``fields``.

    SolverError names the first placeholder that is not a field, or
    reports a stray brace.
    """
    try:
        for _, name, _, _ in string.Formatter().parse(template):
            if name is not None and name not in fields:
                raise SolverError(f"unknown placeholder {{{name}}} in solver "
                                  f"command", command=template)
        return template.format(**fields)
    except (ValueError, LookupError) as exc:
        raise SolverError(f"malformed solver command: {exc}",
                          command=template) from exc


def _decoded(out) -> str:
    if isinstance(out, bytes):
        return out.decode(errors="replace")
    return out or ""


def _fmt_limit(time_limit: Optional[float]) -> str:
    if time_limit is None:
        return "1000000"
    return format(float(time_limit), ".6g")
