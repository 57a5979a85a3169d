"""LP and MPS model files, and solver solution-file parsers.

``ModelArrays`` is the one array form of a model: column arrays plus rows in
CSR layout.  ``milp.MilpModel.arrays()`` produces it, and both writers and
the in-process solve (``refsolver.emitted_arrays``) read it.  Writers emit
byte-deterministic files (canonical variable and row order, no timestamps,
fixed float formatting, each distinct number formatted once) so identical
models produce identical bytes.  Readers cover the dialect the writers emit
plus the common core of both formats; they back the bundled reference solver
and the tests that cross-check the two encodings against each other.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional
from xml.etree import ElementTree

import numpy as np


class LpFormatError(ValueError):
    """Malformed model or solution file."""


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return format(v, ".17g")


# ---------------------------------------------------------------------------
# Parsed model container (shared by both readers)
# ---------------------------------------------------------------------------

@dataclass
class ParsedModel:
    minimize: bool = True
    objective: dict = field(default_factory=dict)    # var -> coefficient
    rows: list = field(default_factory=list)         # (name, coeffs, sense, rhs)
    lower: dict = field(default_factory=dict)        # var -> lb (default 0)
    upper: dict = field(default_factory=dict)        # var -> ub (default +inf)
    integers: set = field(default_factory=set)
    variables: list = field(default_factory=list)    # first-seen order

    def touch(self, name: str):
        if name not in self.lower:
            self.lower[name] = 0.0
            self.upper[name] = math.inf
            self.variables.append(name)


# ---------------------------------------------------------------------------
# The model in array form (what both writers and the in-process solve read)
# ---------------------------------------------------------------------------

SENSES = ("<=", ">=", "=")      # sense code -> row sense


@dataclass(frozen=True)
class ModelArrays:
    """A minimisation MILP in one array form.

    Columns are ``names`` with the parallel ``obj``, ``lb``, ``ub`` and
    ``binary`` (the bounds of a binary column are ignored).  Row ``r`` holds
    the columns ``cols[start[r]:start[r + 1]]``, ascending, with
    coefficients ``vals`` at the same positions; its sense is
    ``SENSES[sense[r]]``, its right-hand side ``rhs[r]`` and its tag
    ``tags[tag[r]]``.  Row names ``{tag}{r:07d}`` exist only in the files.
    """

    names: list
    obj: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    binary: np.ndarray          # bool
    start: np.ndarray           # int64, one entry more than there are rows
    cols: np.ndarray            # int64
    vals: np.ndarray
    sense: np.ndarray           # codes into SENSES
    rhs: np.ndarray
    tag: np.ndarray             # codes into tags
    tags: list

    def row_names(self) -> list:
        return [f"{self.tags[t]}{r:07d}" for r, t in enumerate(self.tag.tolist())]

    def row_of_entry(self) -> np.ndarray:
        """Row index of each entry of ``cols``/``vals``."""
        return np.repeat(np.arange(len(self.sense)), np.diff(self.start))


def _num_strings(values: np.ndarray) -> list:
    """``_num`` of each value, formatted once per distinct value."""
    distinct, inverse = np.unique(values, return_inverse=True)
    table = [_num(v) for v in distinct.tolist()]
    return [table[i] for i in inverse.tolist()]


def _lines_by_column(groups) -> list:
    """Merge ``(columns, lines)`` groups into one list in column order; the
    lines of one column keep the order of their groups."""
    pairs = [(j, line) for cols, lines in groups
             for j, line in zip(cols.tolist(), lines)]
    pairs.sort(key=itemgetter(0))
    return [line for _, line in pairs]


# ---------------------------------------------------------------------------
# LP writing
# ---------------------------------------------------------------------------

def _lp_terms(cols, vals, start, names) -> list:
    """`` {sign} {magnitude} {name}`` of every entry, with a line break after
    each sixth term of a row that goes on."""
    lengths = np.diff(start)
    pos = np.arange(len(cols)) - np.repeat(start[:-1], lengths)
    breaks = ((pos + 1) % 6 == 0) & (pos + 1 < np.repeat(lengths, lengths))
    terms = [f" {'-' if neg else '+'} {mag} {names[j]}"
             for neg, mag, j in zip((vals < 0).tolist(),
                                    _num_strings(np.abs(vals)), cols.tolist())]
    for k in np.flatnonzero(breaks).tolist():
        terms[k] += "\n  "
    return terms


def write_lp(m: ModelArrays, path, relax: bool = False) -> None:
    """CPLEX-style LP file; ``relax`` drops integrality (binaries become
    continuous in [0, 1])."""
    names = m.names
    in_obj = np.flatnonzero(m.obj != 0.0)
    obj = _lp_terms(in_obj, m.obj[in_obj], np.array([0, len(in_obj)]), names)
    terms = _lp_terms(m.cols, m.vals, m.start, names)
    starts = m.start.tolist()
    cont = ~m.binary
    ranged = np.flatnonzero(cont & (m.ub != math.inf))
    floored = np.flatnonzero(cont & (m.ub == math.inf) & (m.lb != 0.0))
    relaxed = np.flatnonzero(m.binary & relax)
    bounds = _lines_by_column((
        (relaxed, [f" 0 <= {names[j]} <= 1\n" for j in relaxed.tolist()]),
        (floored, [f" {names[j]} >= {lo}\n" for j, lo in
                   zip(floored.tolist(), _num_strings(m.lb[floored]))]),
        (ranged, [f" {lo} <= {names[j]} <= {hi}\n" for j, lo, hi in
                  zip(ranged.tolist(), _num_strings(m.lb[ranged]),
                      _num_strings(m.ub[ranged]))])))
    binaries = [names[j]
                for j in np.flatnonzero(m.binary & (not relax)).tolist()]
    with open(path, "w") as fh:
        fh.write("\\ ebusopt model\nMinimize\n obj:")
        fh.write("".join(obj) or " 0 __zero__")
        fh.write("\nSubject To\n")
        for r, (name, sense, rhs) in enumerate(zip(
                m.row_names(), m.sense.tolist(), _num_strings(m.rhs))):
            row = "".join(terms[starts[r]:starts[r + 1]]) or " 0 __zero__"
            fh.write(f" {name}:{row} {SENSES[sense]} {rhs}\n")
        fh.write("Bounds\n")
        fh.writelines(bounds)
        if binaries:
            fh.write("Binaries\n")
            for i in range(0, len(binaries), 4):
                fh.write(" " + " ".join(binaries[i:i + 4]) + "\n")
        fh.write("End\n")


# ---------------------------------------------------------------------------
# LP reading
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


# ---------------------------------------------------------------------------
# MPS writing / reading (free format)
# ---------------------------------------------------------------------------

def write_mps(m: ModelArrays, path, relax: bool = False) -> None:
    names = m.names
    n = len(names)
    row_names = m.row_names()
    # column-major entries: the objective first, then the rows in order; a
    # column with no entry gets "obj 0"
    in_obj = np.flatnonzero(m.obj != 0.0)
    used = np.zeros(n, dtype=bool)
    used[in_obj] = True
    used[m.cols] = True
    unused = np.flatnonzero(~used)
    col = np.concatenate([in_obj, unused, m.cols])
    row = np.concatenate([np.full(len(in_obj) + len(unused), -1),
                          m.row_of_entry()])
    val = np.concatenate([m.obj[in_obj], np.zeros(len(unused)), m.vals])
    order = np.argsort(col, kind="stable")
    col, row, val = col[order], row[order], val[order]
    first = np.searchsorted(col, np.arange(n + 1)).tolist()
    entries = [f"{'obj' if r < 0 else row_names[r]} {v}"
               for r, v in zip(row.tolist(), _num_strings(val))]
    sense_code = "LGE"              # MPS row type per code in SENSES
    with open(path, "w") as fh:
        fh.write("NAME ebusopt\n")
        fh.write("ROWS\n N obj\n")
        fh.writelines(f" {sense_code[s]} {name}\n"
                      for s, name in zip(m.sense.tolist(), row_names))
        fh.write("COLUMNS\n")
        in_int = False
        for j, (name, binary) in enumerate(zip(names, m.binary.tolist())):
            want_int = binary and not relax
            if want_int and not in_int:
                fh.write("    MARKER M1 'MARKER' 'INTORG'\n")
                in_int = True
            elif not want_int and in_int:
                fh.write("    MARKER M2 'MARKER' 'INTEND'\n")
                in_int = False
            mine = entries[first[j]:first[j + 1]]
            fh.writelines(f"    {name} {' '.join(mine[k:k + 2])}\n"
                          for k in range(0, len(mine), 2))
        if in_int:
            fh.write("    MARKER M3 'MARKER' 'INTEND'\n")
        fh.write("RHS\n")
        nonzero = np.flatnonzero(m.rhs != 0.0)
        fh.writelines(f"    RHS {row_names[r]} {rhs}\n" for r, rhs in
                      zip(nonzero.tolist(), _num_strings(m.rhs[nonzero])))
        fh.write("BOUNDS\n")
        cont = ~m.binary
        binaries = np.flatnonzero(m.binary)
        lower = np.flatnonzero(cont & (m.lb != 0.0))
        upper = np.flatnonzero(cont & (m.ub != math.inf))
        fh.writelines(_lines_by_column((
            (binaries, [f" UP BND {names[j]} 1\n" if relax
                        else f" BV BND {names[j]}\n"
                        for j in binaries.tolist()]),
            (lower, [f" LO BND {names[j]} {lo}\n" for j, lo in
                     zip(lower.tolist(), _num_strings(m.lb[lower]))]),
            (upper, [f" UP BND {names[j]} {hi}\n" for j, hi in
                     zip(upper.tolist(), _num_strings(m.ub[upper]))]))))
        fh.write("ENDATA\n")


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


# ---------------------------------------------------------------------------
# Solution files
# ---------------------------------------------------------------------------

@dataclass
class RawSolution:
    """Variable values plus solver status as parsed from a solution file."""

    values: dict
    objective: Optional[float] = None
    bound: Optional[float] = None
    status: str = "unknown"
    command: str = ""
    solver_output: str = ""

    def value(self, name: str) -> float:
        return self.values.get(name, 0.0)

    @property
    def has_incumbent(self) -> bool:
        return bool(self.values)


_META_KEYS = {"status", "objective", "bound"}


def write_solution_text(path, values: dict, status: str,
                        objective: Optional[float],
                        bound: Optional[float]) -> None:
    with open(path, "w") as fh:
        fh.write(f"# status {status}\n")
        if objective is not None:
            fh.write(f"# objective {format(objective, '.17g')}\n")
        if bound is not None:
            fh.write(f"# bound {format(bound, '.17g')}\n")
        for name, val in values.items():
            fh.write(f"{name} {format(val, '.17g')}\n")


def parse_solution_text(path) -> RawSolution:
    values: dict = {}
    meta: dict = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#") or line.startswith("//"):
                parts = line.lstrip("#/ ").split()
                if len(parts) >= 2 and parts[0].lower() in _META_KEYS:
                    meta[parts[0].lower()] = parts[1]
                continue
            parts = line.split()
            if parts[0].lower() in ("=obj=", "objective", "objective_value",
                                    "objvalue"):
                meta.setdefault("objective", parts[-1])
                continue
            if len(parts) < 2:
                continue
            try:
                values[parts[0]] = float(parts[1])
            except ValueError:
                continue
    status = meta.get("status", "unknown")
    if not values and status == "unknown":
        raise LpFormatError(f"no variable values or status found in {path}")

    def _f(key):
        try:
            return float(meta[key]) if key in meta else None
        except ValueError:
            return None

    return RawSolution(values=values, objective=_f("objective"),
                       bound=_f("bound"), status=status)


def parse_solution_xml(path) -> RawSolution:
    try:
        tree = ElementTree.parse(path)
    except ElementTree.ParseError as exc:
        raise LpFormatError(f"bad XML solution file: {exc}") from exc
    root = tree.getroot()
    values = {}
    for var in root.iter("variable"):
        name = var.get("name")
        val = var.get("value")
        if name is not None and val is not None:
            values[name] = float(val)
    objective = None
    status = "unknown"
    header = root.find("header")
    if header is not None:
        objective = header.get("objectiveValue")
        objective = float(objective) if objective is not None else None
        status = header.get("solutionStatusString", "unknown")
    if not values:
        raise LpFormatError(f"no variables in XML solution file {path}")
    return RawSolution(values=values, objective=objective, status=status)


def parse_solution_file(path) -> RawSolution:
    p = str(path)
    if p.endswith(".xml"):
        return parse_solution_xml(path)
    with open(path) as fh:
        head = fh.read(200).lstrip()
    if head.startswith("<?xml") or head.startswith("<CPLEXSolution"):
        return parse_solution_xml(path)
    return parse_solution_text(path)
