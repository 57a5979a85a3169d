"""Independent oracles used in the tests.

The dict-row model-file writers at the bottom (``write_lp``, ``write_mps``
and ``parsed_model``) are the reference for the array-form writers and for
``refsolver.emitted_arrays``: they read a model only through its
``variables`` and ``rows`` record views.

The closed-form charge curves evaluate the max-power charge curve
analytically, bypassing the numerical integrator entirely:

- constant rate c (no CV phase):    zeta(t) = c * t
- linear CV ramp (rate k*(1-y)):    zeta(t) = 1 - (1-y_v) * exp(-k (t - t_cv))
- quadratic CV (rate c*(1-s^2)):    zeta(t) = y_v + w * tanh(c/w (t - t_cv))

with t_cv = y_v / c, w = 1 - y_v, k = c / w.
"""

import math

import numpy as np

from ebusopt.lpformat import LpFormatError, ParsedModel


class ClosedFormCurve:
    """Analytic zeta / zeta^-1 with the same operator interface as the package."""

    def __init__(self, soc_fn, time_fn, soc_cap, t_cv):
        self._soc = soc_fn
        self._time = time_fn
        self.soc_cap = soc_cap
        self.t_full = time_fn(soc_cap)
        self.t_cv = t_cv

    def soc_at(self, t):
        t = np.asarray(t, dtype=float)
        out = np.minimum(self._soc(np.maximum(t, 0.0)), self.soc_cap)
        return float(out) if out.ndim == 0 else out

    def time_at(self, y):
        y = np.asarray(y, dtype=float)
        out = self._time(np.clip(y, 0.0, self.soc_cap))
        return float(out) if out.ndim == 0 else out

    def increment(self, y, t):
        y = np.minimum(np.asarray(y, dtype=float), self.soc_cap)
        out = np.maximum(self.soc_at(self.time_at(y) + np.asarray(t)) - y, 0.0)
        return float(out) if np.ndim(out) == 0 else out

    def duration(self, y_start, y_end):
        return self.time_at(y_end) - self.time_at(y_start)


def constant_curve(c=0.5, soc_cap=0.999):
    return ClosedFormCurve(
        soc_fn=lambda t: c * t,
        time_fn=lambda y: y / c,
        soc_cap=soc_cap,
        t_cv=soc_cap / c,
    )


def linear_cv_curve(c=0.5, y_v=0.8, soc_cap=0.999):
    w = 1.0 - y_v
    k = c / w
    t_cv = y_v / c

    def soc(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < t_cv, c * t, 1.0 - w * np.exp(-k * (t - t_cv)))

    def time(y):
        y = np.asarray(y, dtype=float)
        with np.errstate(divide="ignore"):
            cv = t_cv + np.log(w / np.maximum(1.0 - y, 1e-300)) / k
        return np.where(y < y_v, y / c, cv)

    return ClosedFormCurve(soc, time, soc_cap, t_cv)


def quadratic_cv_curve(c=0.5, y_v=0.6, soc_cap=0.999):
    w = 1.0 - y_v
    t_cv = y_v / c

    def soc(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < t_cv, c * t, y_v + w * np.tanh(c / w * (t - t_cv)))

    def time(y):
        y = np.asarray(y, dtype=float)
        s = np.clip((y - y_v) / w, 0.0, 1.0 - 1e-15)
        cv = t_cv + w / c * np.arctanh(s)
        return np.where(y < y_v, y / c, cv)

    return ClosedFormCurve(soc, time, soc_cap, t_cv)


# ---------------------------------------------------------------------------
# Dict-row model-file writers (reference for the array-form writers)
# ---------------------------------------------------------------------------

def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return format(v, ".17g")


def _write_terms(fh, coeffs, name_of):
    items = list(coeffs)
    if not items:
        fh.write(" 0 __zero__")
        return
    for i, (var, coef) in enumerate(items):
        sign = "-" if coef < 0 else "+"
        mag = _num(abs(coef))
        fh.write(f" {sign} {mag} {name_of(var)}")
        if (i + 1) % 6 == 0 and i + 1 < len(items):
            fh.write("\n  ")


def write_lp(model, path, relax: bool = False) -> None:
    """CPLEX-style LP file; ``relax`` drops integrality (binaries become
    continuous in [0, 1])."""
    names = [v.name for v in model.variables]
    with open(path, "w") as fh:
        fh.write("\\ ebusopt model\n")
        fh.write("Minimize\n obj:")
        obj = [(i, v.obj) for i, v in enumerate(model.variables) if v.obj != 0.0]
        _write_terms(fh, obj, lambda i: names[i])
        fh.write("\nSubject To\n")
        for row in model.rows:
            fh.write(f" {row.name}:")
            _write_terms(fh, sorted(row.coeffs.items()), lambda i: names[i])
            sense = {"<=": "<=", ">=": ">=", "=": "="}[row.sense]
            fh.write(f" {sense} {_num(row.rhs)}\n")
        fh.write("Bounds\n")
        binaries = []
        for i, v in enumerate(model.variables):
            if v.binary:
                if relax:
                    fh.write(f" 0 <= {v.name} <= 1\n")
                else:
                    binaries.append(v.name)
                continue
            if v.ub == math.inf:
                if v.lb != 0.0:
                    fh.write(f" {v.name} >= {_num(v.lb)}\n")
            else:
                fh.write(f" {_num(v.lb)} <= {v.name} <= {_num(v.ub)}\n")
        if binaries:
            fh.write("Binaries\n")
            for i in range(0, len(binaries), 4):
                fh.write(" " + " ".join(binaries[i:i + 4]) + "\n")
        fh.write("End\n")


def parsed_model(model, fmt: str = "lp", relax: bool = False) -> ParsedModel:
    """What ``read_lp`` (or ``read_mps``) returns for the file ``write_lp``
    (or ``write_mps``) emits, built straight from the model.

    The writers print every number so that it reads back bit for bit, except
    that -0.0 reads back as 0.0; adding 0.0 does the same here.  Variable
    order is the reader's first-seen order: for LP the objective terms, then
    row terms, bound lines and binaries, with variables that appear in none
    of them left out; for MPS every column in model order.  Rows and the
    solver's problem are the same as for the file.
    """
    if fmt not in ("lp", "mps"):
        raise LpFormatError(f"unknown model format {fmt!r}")
    out = ParsedModel()
    touch = out.touch
    names = [v.name for v in model.variables]
    if fmt == "mps":
        for name in names:
            touch(name)
    for v in model.variables:
        if v.obj != 0.0:
            touch(v.name)
            out.objective[v.name] = v.obj
    for row in model.rows:
        coeffs = {}
        for i, coef in sorted(row.coeffs.items()):
            touch(names[i])
            coeffs[names[i]] = coef + 0.0
        out.rows.append((row.name, coeffs, row.sense, row.rhs + 0.0))
    binaries = []
    for v in model.variables:
        if v.binary:
            if relax:
                touch(v.name)
                out.upper[v.name] = 1.0
            else:
                binaries.append(v.name)
        elif v.lb != 0.0 or v.ub != math.inf:
            touch(v.name)
            out.lower[v.name] = v.lb + 0.0
            out.upper[v.name] = v.ub + 0.0
    for name in binaries:
        touch(name)
        out.integers.add(name)
        out.upper[name] = 1.0
    return out


def write_mps(model, path, relax: bool = False) -> None:
    names = [v.name for v in model.variables]
    sense_code = {"<=": "L", ">=": "G", "=": "E"}
    # column-major coefficient map
    col_entries: dict = {i: [] for i in range(len(names))}
    for i, v in enumerate(model.variables):
        if v.obj != 0.0:
            col_entries[i].append(("obj", v.obj))
    for row in model.rows:
        for i, coef in sorted(row.coeffs.items()):
            col_entries[i].append((row.name, coef))
    with open(path, "w") as fh:
        fh.write("NAME ebusopt\n")
        fh.write("ROWS\n N obj\n")
        for row in model.rows:
            fh.write(f" {sense_code[row.sense]} {row.name}\n")
        fh.write("COLUMNS\n")
        in_int = False
        for i, v in enumerate(model.variables):
            want_int = v.binary and not relax
            if want_int and not in_int:
                fh.write("    MARKER M1 'MARKER' 'INTORG'\n")
                in_int = True
            elif not want_int and in_int:
                fh.write("    MARKER M2 'MARKER' 'INTEND'\n")
                in_int = False
            entries = col_entries[i]
            if not entries:
                entries = [("obj", 0.0)]
            for j in range(0, len(entries), 2):
                chunk = entries[j:j + 2]
                parts = " ".join(f"{rn} {_num(c)}" for rn, c in chunk)
                fh.write(f"    {names[i]} {parts}\n")
        if in_int:
            fh.write("    MARKER M3 'MARKER' 'INTEND'\n")
        fh.write("RHS\n")
        for row in model.rows:
            if row.rhs != 0.0:
                fh.write(f"    RHS {row.name} {_num(row.rhs)}\n")
        fh.write("BOUNDS\n")
        for v in model.variables:
            if v.binary:
                if relax:
                    fh.write(f" UP BND {v.name} 1\n")
                else:
                    fh.write(f" BV BND {v.name}\n")
            else:
                if v.lb != 0.0:
                    fh.write(f" LO BND {v.name} {_num(v.lb)}\n")
                if v.ub != math.inf:
                    fh.write(f" UP BND {v.name} {_num(v.ub)}\n")
        fh.write("ENDATA\n")
