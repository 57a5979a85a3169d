"""Independent oracles used in the tests.

The dict-row model-file writers (``write_lp``, ``write_mps`` and
``parsed_model``) are the reference for the array-form writers and for
``refsolver.emitted_arrays``: they read a model only through its
``variables`` and ``rows`` record views.  The readers at the bottom
(``_tokenize_lp``, ``read_lp`` and ``read_mps``) lex an LP file one regex
match per position and read an MPS file line by line; they are the
reference for the package's readers.

The closed-form charge curves evaluate the max-power charge curve
analytically, bypassing the numerical integrator entirely:

- constant rate c (no CV phase):    zeta(t) = c * t
- linear CV ramp (rate k*(1-y)):    zeta(t) = 1 - (1-y_v) * exp(-k (t - t_cv))
- quadratic CV (rate c*(1-s^2)):    zeta(t) = y_v + w * tanh(c/w (t - t_cv))

with t_cv = y_v / c, w = 1 - y_v, k = c / w.
"""

import math
import re

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


# ---------------------------------------------------------------------------
# Per-position regex LP reader and line-by-line MPS reader (reference for
# the chunk-memo readers)
# ---------------------------------------------------------------------------

_SECTION_RE = re.compile(
    r"^\s*(minimize|minimise|min|maximize|maximise|max|subject\s+to|such\s+that"
    r"|s\.t\.|st|bounds?|binar(?:y|ies)|bin|generals?|gen|integers?|int|end)\s*$",
    re.IGNORECASE)

_TOKEN_RE = re.compile(
    r"(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?![\w.\[\]@#]))"
    r"|(?P<name>[A-Za-z_!\"#$%&(),;?@'`{}|~.][A-Za-z0-9_!\"#$%&(),;?@'`{}|~.\[\]]*)"
    r"|(?P<op><=|>=|=<|=>|=|\+|-|:)"
    r"|(?P<ws>\s+)")


def _tokenize_lp(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise LpFormatError(f"cannot tokenize LP text near {text[pos:pos+30]!r}")
        pos = m.end()
        if m.lastgroup == "ws":
            continue
        kind = m.lastgroup
        val = m.group()
        if kind == "op" and val in ("=<", "=>"):
            val = "<=" if val == "=<" else ">="
        tokens.append((kind, val))
    return tokens


def _parse_linear_expr(tokens, i):
    """Parse [+-] [coef] name ... ; returns (coeffs, next index)."""
    coeffs: dict = {}
    sign = 1.0
    pending_coef = None
    while i < len(tokens):
        kind, val = tokens[i]
        if kind == "op" and val in ("+", "-"):
            if val == "-":
                sign = -sign
            i += 1
        elif kind == "num":
            if pending_coef is not None:
                raise LpFormatError("two consecutive numbers in expression")
            pending_coef = float(val)
            i += 1
        elif kind == "name":
            coef = sign * (pending_coef if pending_coef is not None else 1.0)
            coeffs[val] = coeffs.get(val, 0.0) + coef
            sign, pending_coef = 1.0, None
            i += 1
        else:
            break
    return coeffs, pending_coef, sign, i


def read_lp(path) -> ParsedModel:
    with open(path) as fh:
        raw_lines = fh.readlines()
    # strip comments, find sections
    sections: list = []  # (kind, text)
    current, buf = None, []
    for line in raw_lines:
        line = line.split("\\", 1)[0].rstrip("\n")
        if not line.strip():
            continue
        m = _SECTION_RE.match(line)
        if m:
            if current is not None:
                sections.append((current, "\n".join(buf)))
            word = re.sub(r"\s+", " ", m.group(1).lower())
            if word in ("minimize", "minimise", "min"):
                current = "objective-min"
            elif word in ("maximize", "maximise", "max"):
                current = "objective-max"
            elif word in ("subject to", "such that", "s.t.", "st"):
                current = "constraints"
            elif word in ("bound", "bounds"):
                current = "bounds"
            elif word in ("binary", "binaries", "bin"):
                current = "binaries"
            elif word in ("general", "generals", "gen", "integer", "integers",
                          "int"):
                current = "generals"
            else:
                current = "end"
            buf = []
        else:
            buf.append(line)
    if current is not None:
        sections.append((current, "\n".join(buf)))

    model = ParsedModel()
    for kind, text in sections:
        if kind in ("objective-min", "objective-max"):
            model.minimize = kind == "objective-min"
            tokens = _tokenize_lp(text)
            i = 0
            if (len(tokens) >= 2 and tokens[0][0] == "name"
                    and tokens[1] == ("op", ":")):
                i = 2
            coeffs, pending, _, i = _parse_linear_expr(tokens, i)
            if i != len(tokens) or pending is not None:
                raise LpFormatError("trailing tokens in objective")
            coeffs.pop("__zero__", None)
            for var in coeffs:
                model.touch(var)
            model.objective = coeffs
        elif kind == "constraints":
            tokens = _tokenize_lp(text)
            i = 0
            while i < len(tokens):
                name = None
                if (i + 1 < len(tokens) and tokens[i][0] == "name"
                        and tokens[i + 1] == ("op", ":")):
                    name = tokens[i][1]
                    i += 2
                coeffs, pending, _, i = _parse_linear_expr(tokens, i)
                if pending is not None:
                    raise LpFormatError("constraint ends with a dangling number")
                if i >= len(tokens) or tokens[i][0] != "op" \
                        or tokens[i][1] not in ("<=", ">=", "="):
                    raise LpFormatError(f"constraint {name or coeffs}: missing sense")
                sense = tokens[i][1]
                i += 1
                sign = 1.0
                if i < len(tokens) and tokens[i] == ("op", "-"):
                    sign, i = -1.0, i + 1
                elif i < len(tokens) and tokens[i] == ("op", "+"):
                    i += 1
                if i >= len(tokens) or tokens[i][0] != "num":
                    raise LpFormatError(f"constraint {name}: missing rhs")
                rhs = sign * float(tokens[i][1])
                i += 1
                coeffs.pop("__zero__", None)
                for var in coeffs:
                    model.touch(var)
                model.rows.append((name or f"r{len(model.rows)}", coeffs,
                                   sense, rhs))
        elif kind == "bounds":
            for line in text.splitlines():
                _parse_bound_line(line, model)
        elif kind == "binaries":
            for var in text.split():
                model.touch(var)
                model.integers.add(var)
                model.lower[var] = 0.0
                model.upper[var] = min(model.upper.get(var, math.inf), 1.0)
        elif kind == "generals":
            for var in text.split():
                model.touch(var)
                model.integers.add(var)
    return model


def _parse_bound_line(line: str, model: ParsedModel) -> None:
    tokens = _tokenize_lp(line)
    if not tokens:
        return
    if len(tokens) == 2 and tokens[1][1].lower() == "free":
        var = tokens[0][1]
        model.touch(var)
        model.lower[var] = -math.inf
        return

    def read_value(i):
        sign = 1.0
        if tokens[i] == ("op", "-"):
            sign, i = -1.0, i + 1
        elif tokens[i] == ("op", "+"):
            i += 1
        kind, val = tokens[i]
        if kind == "num":
            return sign * float(val), i + 1
        if kind == "name" and val.lower() in ("inf", "infinity", "+inf"):
            return sign * math.inf, i + 1
        raise LpFormatError(f"bad bound value in {line!r}")

    # forms: v op b | b op v | b op v op b
    if tokens[0][0] == "name" and tokens[0][1].lower() not in ("inf", "infinity"):
        var = tokens[0][1]
        model.touch(var)
        sense = tokens[1][1]
        value, _ = read_value(2)
        if sense == "<=":
            model.upper[var] = value
        elif sense == ">=":
            model.lower[var] = value
        else:
            model.lower[var] = model.upper[var] = value
        return
    lo, i = read_value(0)
    if tokens[i][1] != "<=":
        raise LpFormatError(f"bad bound line {line!r}")
    var = tokens[i + 1][1]
    model.touch(var)
    model.lower[var] = lo
    if i + 2 < len(tokens):
        if tokens[i + 2][1] != "<=":
            raise LpFormatError(f"bad bound line {line!r}")
        hi, _ = read_value(i + 3)
        model.upper[var] = hi


def read_mps(path) -> ParsedModel:
    model = ParsedModel()
    section = None
    row_sense: dict = {}
    obj_row = None
    rows_order: list = []
    row_coeffs: dict = {}
    row_rhs: dict = {}
    integer_mode = False
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("*"):
                continue
            if not line[0].isspace():
                parts = line.split()
                section = parts[0].upper()
                if section == "ENDATA":
                    break
                continue
            parts = line.split()
            if section == "ROWS":
                code, name = parts[0].upper(), parts[1]
                if code == "N":
                    if obj_row is None:
                        obj_row = name
                else:
                    row_sense[name] = {"L": "<=", "G": ">=", "E": "="}[code]
                    rows_order.append(name)
                    row_coeffs[name] = {}
            elif section == "COLUMNS":
                if len(parts) >= 3 and parts[1].startswith("'MARKER'"):
                    integer_mode = parts[2].strip("'") == "INTORG"
                    continue
                if "'MARKER'" in parts:
                    integer_mode = "'INTORG'" in parts
                    continue
                var = parts[0]
                model.touch(var)
                if integer_mode:
                    model.integers.add(var)
                for j in range(1, len(parts) - 1, 2):
                    row, val = parts[j], float(parts[j + 1])
                    if row == obj_row:
                        model.objective[var] = model.objective.get(var, 0.0) + val
                    elif row in row_coeffs:
                        idx = row_coeffs[row]
                        idx[var] = idx.get(var, 0.0) + val
                    else:
                        raise LpFormatError(f"MPS column references unknown row "
                                            f"{row!r}")
            elif section == "RHS":
                for j in range(1, len(parts) - 1, 2):
                    row_rhs[parts[j]] = float(parts[j + 1])
            elif section == "RANGES":
                raise LpFormatError("MPS RANGES section is not supported")
            elif section == "BOUNDS":
                btype = parts[0].upper()
                var = parts[2]
                model.touch(var)
                if btype == "UP":
                    model.upper[var] = float(parts[3])
                elif btype == "LO":
                    model.lower[var] = float(parts[3])
                elif btype == "FX":
                    model.lower[var] = model.upper[var] = float(parts[3])
                elif btype == "BV":
                    model.integers.add(var)
                    model.lower[var] = 0.0
                    model.upper[var] = 1.0
                elif btype == "MI":
                    model.lower[var] = -math.inf
                elif btype == "PL":
                    model.upper[var] = math.inf
                elif btype == "UI":
                    model.integers.add(var)
                    model.upper[var] = float(parts[3])
                else:
                    raise LpFormatError(f"unsupported bound type {btype!r}")
    for name in rows_order:
        model.rows.append((name, row_coeffs[name], row_sense[name],
                           row_rhs.get(name, 0.0)))
    # integer variables with no explicit bounds default to [0, 1] in MPS
    for var in model.integers:
        if model.upper.get(var) == math.inf:
            model.upper[var] = 1.0
    return model
