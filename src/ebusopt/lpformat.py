"""LP and MPS model files, and solver solution-file parsers.

``ModelArrays`` is the one array form of a model: column arrays plus rows in
CSR layout.  ``milp.MilpModel.arrays()`` produces it, and both writers and
the in-process solve (``refsolver.emitted_arrays``) read it.  Writers emit
byte-deterministic files (canonical variable and row order, no timestamps,
fixed float formatting, each distinct number formatted once) so identical
models produce identical bytes.  Readers cover the dialect the writers emit
plus the common core of both formats; they back the bundled reference solver
and the tests that cross-check the two encodings against each other.

The LP reader splits each section on whitespace and lexes each distinct
chunk once with ``_TOKEN_RE``, the one definition of the token grammar; a
memo that lives for one read hands out the same token tuples for every
repeat of a chunk.  The MPS reader runs one loop per section.  Both pause
the cyclic garbage collector while they build the parsed model, and report
a malformed file as ``LpFormatError`` naming the offending line.
"""

from __future__ import annotations

import gc
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain, groupby
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


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector.  A reader builds one large acyclic
    structure, and every collection its allocations trigger would only walk
    that structure again."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


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

_COMMENT_RE = re.compile(r"\\.*")
# a section header is a line holding only its keyword; the text searched has
# a newline added before and after it, so every line has one on each side
# (the lookahead keeps a failed line from retrying with fewer leading blanks)
_SECTION_RE = re.compile(
    r"\n[^\S\n]*(?![^\S\n])(minimize|minimise|min|maximize|maximise|max"
    r"|subject[^\S\n]+to|such[^\S\n]+that|s\.t\.|st|bounds?|binar(?:y|ies)|bin"
    r"|generals?|gen|integers?|int|end)[^\S\n]*(?=\n)",
    re.IGNORECASE)
_SECTION_KINDS = {
    **dict.fromkeys(("minimize", "minimise", "min"), "objective-min"),
    **dict.fromkeys(("maximize", "maximise", "max"), "objective-max"),
    **dict.fromkeys(("subject to", "such that", "s.t.", "st"), "constraints"),
    **dict.fromkeys(("bound", "bounds"), "bounds"),
    **dict.fromkeys(("binary", "binaries", "bin"), "binaries"),
    **dict.fromkeys(("general", "generals", "gen", "integer", "integers",
                     "int"), "generals"),
    "end": "end"}

_TOKEN_RE = re.compile(
    r"(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?![\w.\[\]@#]))"
    r"|(?P<name>[A-Za-z_!\"#$%&(),;?@'`{}|~.][A-Za-z0-9_!\"#$%&(),;?@'`{}|~.\[\]]*)"
    r"|(?P<op><=|>=|=<|=>|=|\+|-|:)")

_OP_ALIASES = {"=<": "<=", "=>": ">="}
_COLON = ("op", ":")
_SIGNS = {("op", "+"): 1.0, ("op", "-"): -1.0}
_OBJECTIVE_END = (("op", "="), ("num", "0"))


class _ChunkTokens(dict):
    """Whitespace-free chunk -> its tokens, lexed with ``_TOKEN_RE`` on the
    first lookup of the chunk."""

    def __missing__(self, chunk: str) -> tuple:
        tokens = []
        pos = 0
        while pos < len(chunk):
            m = _TOKEN_RE.match(chunk, pos)
            if m is None:
                raise LpFormatError(
                    f"cannot tokenize LP text near {chunk[pos:pos + 30]!r}")
            pos = m.end()
            val = m.group()
            tokens.append((m.lastgroup, _OP_ALIASES.get(val, val)))
        self[chunk] = tokens = tuple(tokens)
        return tokens


def _tokenize_lp(text: str, memo: Optional[_ChunkTokens] = None):
    """Iterator over the ``(kind, text)`` tokens of ``text``.

    No token spans whitespace, and the one lookahead (after a number) passes
    both before whitespace and at the end of a chunk, so the tokens of the
    text are those of its ``split()`` chunks in turn; the text is split line
    by line, so that only one line's chunks exist at a time.  ``memo`` lexes
    each distinct chunk once and hands out the same token tuples after that;
    one read shares it across its sections and drops it when it returns.
    """
    if memo is None:
        memo = _ChunkTokens()
    chunks = chain.from_iterable(map(str.split, text.split("\n")))
    return chain.from_iterable(map(memo.__getitem__, chunks))


def _lp_sections(path) -> list:
    """``(kind, text)`` of each section of an LP file, comments removed."""
    try:
        with open(path) as fh:
            text = _COMMENT_RE.sub("", "\n" + fh.read() + "\n")
    except UnicodeDecodeError as exc:
        raise LpFormatError(f"{path} is not a text file: {exc}") from None
    heads = list(_SECTION_RE.finditer(text))
    ends = [h.start() for h in heads[1:]] + [len(text)]
    return [(_SECTION_KINDS[" ".join(h.group(1).lower().split())],
             text[h.end():e]) for h, e in zip(heads, ends)]


def _lp_rows(tokens, model: ParsedModel, rows: list) -> None:
    """Append the rows ``[name:] expression sense [+|-] rhs`` read from the
    token iterator ``tokens`` to ``rows``, touching their variables.

    An expression is a run of ``[+|-]... [coefficient] variable`` terms; a
    variable named twice sums its coefficients and ``__zero__`` is dropped.
    """
    lower, touch = model.lower, model.touch
    for head in tokens:
        name, body = None, tokens
        if head[0] == "name":
            second = next(tokens, None)
            if second == _COLON:
                name = head[1]
            else:
                body = chain((head,) if second is None else (head, second),
                             tokens)
        else:
            body = chain((head,), tokens)
        label = name or f"r{len(rows)}"
        coeffs: dict = {}
        sign, coef, sense = 1.0, None, None
        for kind, val in body:
            if kind == "name":
                coeffs[val] = coeffs.get(val, 0.0) + (
                    sign if coef is None else sign * coef)
                sign, coef = 1.0, None
            elif kind == "num":
                if coef is not None:
                    raise LpFormatError(
                        f"row {label}: two consecutive numbers")
                coef = float(val)
            elif val == "-":
                sign = -sign
            elif val != "+":
                sense = val
                break
        if coef is not None:
            raise LpFormatError(f"row {label} ends with a dangling number")
        if sense not in SENSES:
            raise LpFormatError(f"row {label}: missing sense")
        rhs = next(tokens, None)
        sign = _SIGNS.get(rhs)
        if sign is None:
            sign = 1.0
        else:
            rhs = next(tokens, None)
        if rhs is None or rhs[0] != "num":
            raise LpFormatError(f"row {label}: missing rhs")
        coeffs.pop("__zero__", None)
        for var in coeffs:
            if var not in lower:
                touch(var)
        rows.append((label, coeffs, sense, sign * float(rhs[1])))


@_gc_paused()
def read_lp(path) -> ParsedModel:
    """Parse an LP file.  Its sections share one token memo, so each distinct
    chunk is lexed once per read."""
    model = ParsedModel()
    memo = _ChunkTokens()
    for kind, text in _lp_sections(path):
        if kind in ("objective-min", "objective-max"):
            # the objective reads as the one row "[name:] expression = 0"
            model.minimize = kind == "objective-min"
            rows: list = []
            _lp_rows(chain(_tokenize_lp(text, memo), _OBJECTIVE_END), model,
                     rows)
            if len(rows) != 1:
                raise LpFormatError("trailing tokens in objective")
            model.objective = rows[0][1]
        elif kind == "constraints":
            _lp_rows(_tokenize_lp(text, memo), model, model.rows)
        elif kind == "bounds":
            for line in text.split("\n"):
                tokens = list(_tokenize_lp(line, memo))
                if tokens:
                    try:
                        _parse_bound(tokens, model)
                    except (IndexError, LpFormatError) as exc:
                        raise LpFormatError(
                            f"bad bound line {line.strip()!r}: {exc}") from exc
        elif kind in ("binaries", "generals"):
            for var in text.split():
                model.touch(var)
                model.integers.add(var)
                if kind == "binaries":
                    model.lower[var] = 0.0
                    model.upper[var] = min(model.upper[var], 1.0)
    return model


def _bound_value(tokens: list, i: int):
    """The value ``[+|-] number`` or ``[+|-] inf`` at ``tokens[i]``, and the
    index after it."""
    sign = _SIGNS.get(tokens[i])
    if sign is None:
        sign = 1.0
    else:
        i += 1
    kind, val = tokens[i]
    if kind == "num":
        return sign * float(val), i + 1
    if kind == "name" and val.lower() in ("inf", "infinity", "+inf"):
        return sign * math.inf, i + 1
    raise LpFormatError(f"bad bound value {val!r}")


def _parse_bound(tokens: list, model: ParsedModel) -> None:
    """Apply the tokens of one bound line: ``v free``, ``v sense b``,
    ``b <= v`` or ``b <= v <= b``."""
    if len(tokens) == 2 and tokens[1][1].lower() == "free":
        var = tokens[0][1]
        model.touch(var)
        model.lower[var] = -math.inf
        return
    if tokens[0][0] == "name" and tokens[0][1].lower() not in ("inf", "infinity"):
        var = tokens[0][1]
        model.touch(var)
        sense = tokens[1][1]
        value, _ = _bound_value(tokens, 2)
        if sense == "<=":
            model.upper[var] = value
        elif sense == ">=":
            model.lower[var] = value
        else:
            model.lower[var] = model.upper[var] = value
        return
    lo, i = _bound_value(tokens, 0)
    if tokens[i][1] != "<=":
        raise LpFormatError(f"expected '<=' after {lo}")
    var = tokens[i + 1][1]
    model.touch(var)
    model.lower[var] = lo
    if i + 2 < len(tokens):
        if tokens[i + 2][1] != "<=":
            raise LpFormatError(f"expected '<=' after {var}")
        model.upper[var], _ = _bound_value(tokens, i + 3)


# ---------------------------------------------------------------------------
# MPS writing / reading (free format)
# ---------------------------------------------------------------------------

_MPS_TYPES = "LGE"              # MPS row type per code in SENSES
_MARKERS = ("    MARKER M2 'MARKER' 'INTEND'\n",     # before a continuous run
            "    MARKER M1 'MARKER' 'INTORG'\n")     # before an integer run


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
    first = np.searchsorted(col, np.arange(n + 1))
    entries = [f"{'obj' if r < 0 else row_names[r]} {v}"
               for r, v in zip(row.tolist(), _num_strings(val))]
    # two entries a line: each even entry of a column opens one, and takes
    # the next entry along if that is in the same column
    starts = np.flatnonzero((np.arange(len(col)) - first[col]) % 2 == 0)
    paired = starts + 1 < first[col[starts] + 1]
    lines = [f"    {names[j]} {entries[k]} {entries[k + 1]}\n" if pair
             else f"    {names[j]} {entries[k]}\n"
             for k, j, pair in zip(starts.tolist(), col[starts].tolist(),
                                   paired.tolist())]
    # each run of integer columns sits between an INTORG and an INTEND line
    want_int = m.binary & (not relax)
    runs = np.flatnonzero(want_int != np.append(False, want_int[:-1]))
    for k, integer in zip(np.searchsorted(starts, first[runs]).tolist(),
                          want_int[runs].tolist()):
        lines[k] = _MARKERS[integer] + lines[k]
    if n and want_int[-1]:
        lines.append("    MARKER M3 'MARKER' 'INTEND'\n")
    with open(path, "w") as fh:
        fh.write("NAME ebusopt\n")
        fh.write("ROWS\n N obj\n")
        fh.writelines(f" {_MPS_TYPES[s]} {name}\n"
                      for s, name in zip(m.sense.tolist(), row_names))
        fh.write("COLUMNS\n")
        fh.writelines(lines)
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


_MPS_SENSES = dict(zip(_MPS_TYPES, SENSES))


def _mps_lines(fh):
    """``(section, parts)`` of each data line of an MPS file up to ENDATA.
    A header line starts with neither whitespace nor the "*" of a comment;
    blank lines and comments split into no parts or a "*" part."""
    section = None
    try:
        for line in fh:
            parts = line.split()
            if not parts or parts[0][0] == "*":
                continue
            if not line[0].isspace():
                section = parts[0].upper()
                if section == "ENDATA":
                    return
                continue
            yield section, parts
    except UnicodeDecodeError as exc:
        raise LpFormatError(f"{fh.name} is not a text file: {exc}") from None


@_gc_paused()
def read_mps(path) -> ParsedModel:
    """Parse a free-format MPS file, one loop per section."""
    model = ParsedModel()
    lower, upper, touch = model.lower, model.upper, model.touch
    integers, objective = model.integers, model.objective
    obj_row = None
    rows_order: list = []
    row_sense: dict = {}
    row_coeffs: dict = {}
    row_rhs: dict = {}
    integer_mode = False
    with open(path) as fh:
        for section, group in groupby(_mps_lines(fh), key=itemgetter(0)):
            lines = map(itemgetter(1), group)
            try:
                if section == "ROWS":
                    for parts in lines:
                        code, name = parts[0].upper(), parts[1]
                        if code == "N":
                            if obj_row is None:
                                obj_row = name
                        else:
                            row_sense[name] = _MPS_SENSES[code]
                            row_coeffs[name] = {}
                            rows_order.append(name)
                elif section == "COLUMNS":
                    for parts in lines:
                        if len(parts) >= 3 and parts[1].startswith("'MARKER'"):
                            integer_mode = parts[2].strip("'") == "INTORG"
                            continue
                        if "'MARKER'" in parts:
                            integer_mode = "'INTORG'" in parts
                            continue
                        var = parts[0]
                        if var not in lower:
                            touch(var)
                        if integer_mode:
                            integers.add(var)
                        for j in range(1, len(parts) - 1, 2):
                            row, val = parts[j], float(parts[j + 1])
                            if row == obj_row:
                                objective[var] = objective.get(var, 0.0) + val
                                continue
                            coeffs = row_coeffs.get(row)
                            if coeffs is None:
                                raise ValueError(f"unknown row {row!r}")
                            coeffs[var] = coeffs.get(var, 0.0) + val
                elif section == "RHS":
                    for parts in lines:
                        for j in range(1, len(parts) - 1, 2):
                            row_rhs[parts[j]] = float(parts[j + 1])
                elif section == "RANGES":
                    for parts in lines:
                        raise ValueError("RANGES is not supported")
                elif section == "BOUNDS":
                    for parts in lines:
                        btype, var = parts[0].upper(), parts[2]
                        if var not in lower:
                            touch(var)
                        if btype == "UP":
                            upper[var] = float(parts[3])
                        elif btype == "LO":
                            lower[var] = float(parts[3])
                        elif btype == "FX":
                            lower[var] = upper[var] = float(parts[3])
                        elif btype == "BV":
                            integers.add(var)
                            lower[var] = 0.0
                            upper[var] = 1.0
                        elif btype == "MI":
                            lower[var] = -math.inf
                        elif btype == "PL":
                            upper[var] = math.inf
                        elif btype == "UI":
                            integers.add(var)
                            upper[var] = float(parts[3])
                        else:
                            raise ValueError(
                                f"unsupported bound type {btype!r}")
            except LpFormatError:                  # not a text file
                raise
            except (IndexError, KeyError, ValueError) as exc:
                raise LpFormatError(f"bad {section} line "
                                    f"{' '.join(parts)!r}: {exc}") from exc
    model.rows.extend((name, row_coeffs[name], row_sense[name],
                       row_rhs.get(name, 0.0)) for name in rows_order)
    # integer variables with no explicit bounds default to [0, 1] in MPS
    for var in integers:
        if upper[var] == math.inf:
            upper[var] = 1.0
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
