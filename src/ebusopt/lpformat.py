"""LP and MPS model files, and solver solution-file parsers.

``ModelArrays`` is the one array form of a model: column arrays (integer
columns keep their bounds, [0, 1] for a binary) plus rows in CSR layout
with a sense code and a right-hand side each.  ``milp.MilpModel.arrays()``
produces it, both writers read it, both readers return it, and
``refsolver.solve_arrays`` hands it to HiGHS.  Writers emit
byte-deterministic files (canonical variable and row order, no
timestamps, fixed float formatting) so identical models produce identical
bytes; they format and write a block of rows (LP) or columns (MPS) at a
time, each distinct number of a block formatted once, so no list of every
term, entry or line of a file exists at once.

Readers cover the dialect the writers emit plus the common core of both
formats; they back the bundled reference solver and the tests that
cross-check the two encodings against each other.  Both read the file as
a stream of lines and keep, besides the column names, only numeric
arrays: the entries of the rows in file order, which become CSR at the
end, with a column named twice in one row summed in file order and
explicit zeros kept.  Columns come in first-seen order, and
``emitted_arrays`` builds what a reader returns for a written file
without the file, so this module owns that order.

The LP reader splits each line on whitespace.  A chunk that is an
operator, one of a bounded set of numbers it read before, or one whole
match of ``_TOKEN_RE`` (the one definition of the token grammar) is one
token; any other chunk is lexed with ``_TOKEN_RE``.  The MPS reader
runs one loop per section.  Both pause the cyclic garbage collector while
they read, and report a malformed file as ``LpFormatError`` naming the
offending line, or the row and column of a number the format has no use
for (NaN anywhere, an infinite coefficient or right-hand side).
"""

from __future__ import annotations

import gc
import math
import re
from array import array
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
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


class _Records(Sequence):
    """Read-only sequence that builds each record when it is accessed;
    ``milp.MilpModel`` uses it too."""

    def __init__(self, length: int, record):
        self._length = length
        self._record = record

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, i: int):
        if i < 0:
            i += self._length
        if not 0 <= i < self._length:
            raise IndexError("record index out of range")
        return self._record(i)


# ---------------------------------------------------------------------------
# The model in array form
# ---------------------------------------------------------------------------

SENSES = ("<=", ">=", "=")      # sense code -> row sense


@dataclass(frozen=True)
class ModelArrays:
    """A minimisation MILP in one array form.

    Columns are ``names`` with the parallel ``obj``, ``lb``, ``ub`` and
    ``integer``.  Row ``r`` holds the columns ``cols[start[r]:start[r + 1]]``,
    ascending, with coefficients ``vals`` at the same positions; its sense
    is ``SENSES[sense[r]]``, its right-hand side ``rhs[r]`` and its tag
    ``tags[tag[r]]`` (the one tag ``"r"`` for arrays read from a file).
    Row names ``{tag}{r:07d}`` exist only in the files.  ``minimize`` is
    False for a file that maximises, whose objective ``obj`` holds negated.
    ``variables``, ``rows`` and ``objective`` are read-only views in the
    terms of the file: ``rows`` builds one ``(index, {column name:
    coefficient}, sense, rhs)`` record per access, ``objective`` one
    ``{column name: coefficient}`` dict of the nonzero coefficients.
    """

    names: list
    obj: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray         # bool
    start: np.ndarray           # int64, one entry more than there are rows
    cols: np.ndarray            # int64
    vals: np.ndarray
    sense: np.ndarray           # codes into SENSES
    rhs: np.ndarray
    tag: np.ndarray             # codes into tags
    tags: list
    minimize: bool = True

    def row_names(self, rows: np.ndarray) -> list:
        """The file names of the rows ``rows``."""
        tags = self.tags
        return [f"{tags[t]}{r:07d}"
                for r, t in zip(rows.tolist(), self.tag[rows].tolist())]

    def row_of_entry(self) -> np.ndarray:
        """Row index of each entry of ``cols``/``vals``."""
        return np.repeat(np.arange(len(self.sense)), np.diff(self.start))

    @property
    def variables(self) -> list:
        return self.names

    @property
    def rows(self) -> _Records:
        return _Records(len(self.rhs), self._row)

    @property
    def objective(self) -> dict:
        obj = self.obj if self.minimize else -self.obj
        nonzero = np.flatnonzero(obj)
        return dict(zip([self.names[j] for j in nonzero.tolist()],
                        obj[nonzero].tolist()))

    def _row(self, r: int) -> tuple:
        s, e = self.start[r], self.start[r + 1]
        return (r, dict(zip([self.names[j] for j in self.cols[s:e].tolist()],
                            self.vals[s:e].tolist())),
                SENSES[self.sense[r]], float(self.rhs[r]))


# ---------------------------------------------------------------------------
# Writing in blocks
# ---------------------------------------------------------------------------

_BLOCK = 1024       # rows (LP) or columns (MPS) formatted per write; a
                    # multiple of the four binaries of an LP line


def _blocks(n: int):
    """``(lo, hi)`` of each block of ``range(n)``."""
    return ((lo, min(lo + _BLOCK, n)) for lo in range(0, n, _BLOCK))


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

def _lp_terms(cols, vals, pos, length, names) -> list:
    """`` {sign} {magnitude} {name}`` of each entry, given its position in
    its row and the length of its row, with a line break after each sixth
    term of a row that goes on."""
    terms = [f" {'-' if neg else '+'} {mag} {names[j]}"
             for neg, mag, j in zip((vals < 0).tolist(),
                                    _num_strings(np.abs(vals)), cols.tolist())]
    for k in np.flatnonzero(((pos + 1) % 6 == 0)
                            & (pos + 1 < length)).tolist():
        terms[k] += "\n  "
    return terms


def write_lp(m: ModelArrays, path, relax: bool = False) -> None:
    """CPLEX-style LP file; ``relax`` makes the integer columns continuous.
    Every integer column is written as a binary."""
    names = m.names
    in_obj = np.flatnonzero(m.obj != 0.0)
    want_int = m.integer & (not relax)
    binaries = np.flatnonzero(want_int)
    with open(path, "w") as fh:
        fh.write("\\ ebusopt model\nMinimize\n obj:")
        if not len(in_obj):
            fh.write(" 0 __zero__")
        for lo, hi in _blocks(len(in_obj)):
            cols = in_obj[lo:hi]
            fh.writelines(_lp_terms(cols, m.obj[cols], np.arange(lo, hi),
                                    len(in_obj), names))
        fh.write("\nSubject To\n")
        for lo, hi in _blocks(len(m.rhs)):
            start = m.start[lo:hi + 1]
            s, e = int(start[0]), int(start[-1])
            lengths = np.diff(start)
            terms = _lp_terms(m.cols[s:e], m.vals[s:e],
                              np.arange(s, e) - np.repeat(start[:-1], lengths),
                              np.repeat(lengths, lengths), names)
            at = (start - s).tolist()
            fh.writelines(
                f" {name}:{''.join(terms[at[i]:at[i + 1]]) or ' 0 __zero__'}"
                f" {SENSES[sense]} {rhs}\n"
                for i, (name, sense, rhs) in enumerate(zip(
                    m.row_names(np.arange(lo, hi)), m.sense[lo:hi].tolist(),
                    _num_strings(m.rhs[lo:hi]))))
        fh.write("Bounds\n")
        for lo, hi in _blocks(len(names)):
            cont = ~want_int[lo:hi]
            lb, ub = m.lb[lo:hi], m.ub[lo:hi]
            ranged = lo + np.flatnonzero(cont & (ub != math.inf))
            floored = lo + np.flatnonzero(cont & (ub == math.inf) & (lb != 0.0))
            fh.writelines(_lines_by_column((
                (floored, [f" {names[j]} >= {low}\n" for j, low in
                           zip(floored.tolist(), _num_strings(m.lb[floored]))]),
                (ranged, [f" {low} <= {names[j]} <= {high}\n"
                          for j, low, high in zip(
                              ranged.tolist(), _num_strings(m.lb[ranged]),
                              _num_strings(m.ub[ranged]))]))))
        if len(binaries):
            fh.write("Binaries\n")
        for lo, hi in _blocks(len(binaries)):
            block = [names[j] for j in binaries[lo:hi].tolist()]
            fh.writelines(" " + " ".join(block[i:i + 4]) + "\n"
                          for i in range(0, len(block), 4))
        fh.write("End\n")


# ---------------------------------------------------------------------------
# Reading: what a reader has read so far
# ---------------------------------------------------------------------------

class _Rows:
    """Rows as a reader reads them: their entries as (row, column, value)
    in file order, and per row its sense code and right-hand side."""

    def __init__(self):
        self.row = array("q")
        self.col = array("q")
        self.val = array("d")
        self.sense = bytearray()
        self.rhs = array("d")

    def csr(self, n_rows: int, n_cols: int) -> tuple:
        """``(indptr, indices, data)``: the columns of each row ascending,
        each with 0.0 plus its values in file order."""
        key = np.array(self.row, np.int64)
        key *= n_cols
        key += np.array(self.col, np.int64)
        order = np.argsort(key, kind="stable")
        key = key[order]
        val = np.array(self.val)[order]
        del order
        first = np.flatnonzero(np.diff(key, prepend=-1))
        data = val[first] + 0.0
        if len(first) < len(key):
            # a column named twice in one row: sum its values in file order
            ends = np.append(first[1:], len(key))
            for k in np.flatnonzero(ends - first > 1).tolist():
                total = 0.0
                for v in val[first[k]:ends[k]].tolist():
                    total += v
                data[k] = total
        key = key[first]
        indptr = np.searchsorted(key, np.arange(n_rows + 1) * n_cols)
        return indptr, key % max(n_cols, 1), data


class _Reading:
    """A model file as a reader reads it: the columns in first-seen order
    with their bounds and integrality, the rows and the objective (one row
    whose sense and rhs are ignored)."""

    def __init__(self):
        self.index: dict = {}            # column name -> column
        self.tokens = dict(_OPS)         # LP chunk -> its one token
        self.lower = array("d")
        self.upper = array("d")
        self.integer = bytearray()
        self.rows = _Rows()
        self.objective = _Rows()
        self.minimize = True

    def column(self, name: str) -> int:
        """The column ``name``, added if new."""
        j = self.index.get(name)
        if j is None:
            j = self.index[name] = len(self.lower)
            self.lower.append(0.0)
            self.upper.append(math.inf)
            self.integer.append(0)
        return j

    def arrays(self) -> ModelArrays:
        """What was read, once the numbers the format has no use for are
        ruled out: NaN anywhere, and an infinite coefficient or rhs."""
        n, m = len(self.lower), len(self.rows.sense)
        start, cols, vals = self.rows.csr(m, n)
        _, obj_cols, obj_vals = self.objective.csr(1, n)
        obj = np.zeros(n)
        obj[obj_cols] = obj_vals
        if not self.minimize:
            obj = -obj
        a = ModelArrays(
            names=list(self.index), obj=obj, lb=np.array(self.lower),
            ub=np.array(self.upper), integer=np.array(self.integer, bool),
            start=start, cols=cols, vals=vals,
            sense=np.array(self.rows.sense, np.int8),
            rhs=np.array(self.rows.rhs), tag=np.zeros(m, np.int64),
            tags=["r"], minimize=self.minimize)
        bad = np.flatnonzero(~np.isfinite(a.vals))
        if len(bad):
            k = bad[0]
            raise LpFormatError(
                f"row at position {a.row_of_entry()[k]}, column "
                f"{a.names[a.cols[k]]!r}: coefficient {a.vals[k]} is not finite")
        bad = np.flatnonzero(~np.isfinite(obj_vals))
        if len(bad):
            raise LpFormatError(
                f"objective, column {a.names[obj_cols[bad[0]]]!r}: "
                f"coefficient {obj_vals[bad[0]]} is not finite")
        bad = np.flatnonzero(~np.isfinite(a.rhs))
        if len(bad):
            raise LpFormatError(f"row at position {bad[0]}: right-hand side "
                                f"{a.rhs[bad[0]]} is not finite")
        bad = np.flatnonzero(np.isnan(a.lb) | np.isnan(a.ub))
        if len(bad):
            raise LpFormatError(f"column {a.names[bad[0]]!r}: bound is NaN")
        return a


# ---------------------------------------------------------------------------
# LP reading
# ---------------------------------------------------------------------------

# a section header is a line holding only its keyword; the group that
# matched names the kind of section
_SECTION_RE = re.compile(
    r"\s*(?:(?P<minimize>minimize|minimise|min)"
    r"|(?P<maximize>maximize|maximise|max)"
    r"|(?P<constraints>subject\s+to|such\s+that|s\.t\.|st)"
    r"|(?P<bounds>bounds?)|(?P<binaries>binar(?:y|ies)|bin)"
    r"|(?P<generals>generals?|gen|integers?|int)|(?P<end>end))\s*",
    re.IGNORECASE)
_BEFORE_SECTIONS = (0, None)

_TOKEN_RE = re.compile(
    r"(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?![\w.\[\]@#]))"
    r"|(?P<name>[A-Za-z_!\"#$%&(),;?@'`{}|~.][A-Za-z0-9_!\"#$%&(),;?@'`{}|~.\[\]]*)"
    r"|(?P<op><=|>=|=<|=>|=|\+|-|:)")

# the chunks that are one operator token, and that token
_OPS = {op: ("op", {"=<": "<=", "=>": ">="}.get(op, op))
        for op in ("<=", ">=", "=<", "=>", "=", "+", "-", ":")}
_COLON = ("op", ":")
_SIGNS = {("op", "+"): 1.0, ("op", "-"): -1.0}
_OBJECTIVE_END = (("op", "="), ("num", "0"))
# the most numbers a reading keeps lexed; it starts over when it has as many
_NUMBERS_KEPT = 1 << 14
_SENSE_CODES = {sense: code for code, sense in enumerate(SENSES)}


def _lex(chunk: str) -> list:
    """The tokens of a whitespace-free chunk, lexed with ``_TOKEN_RE``."""
    tokens = []
    pos = 0
    while pos < len(chunk):
        m = _TOKEN_RE.match(chunk, pos)
        if m is None:
            raise LpFormatError(
                f"cannot tokenize LP text near {chunk[pos:pos + 30]!r}")
        pos = m.end()
        val = m.group()
        tokens.append(_OPS[val] if m.lastgroup == "op" else (m.lastgroup, val))
    return tokens


def _lp_tokens(lines, reading: _Reading):
    """Iterator over the ``(kind, text)`` tokens of ``lines``.

    No token spans whitespace, and the one lookahead (after a number) passes
    both before whitespace and at the end of a chunk, so the tokens of a
    line are those of its ``split()`` chunks in turn.  A chunk in
    ``reading.tokens`` (an operator, or one of at most ``_NUMBERS_KEPT``
    numbers read before) is that token; a chunk ``_TOKEN_RE`` matches whole
    is one token; every other chunk is lexed.
    """
    known, match = reading.tokens, _TOKEN_RE.match
    for line in lines:
        for chunk in line.split():
            token = known.get(chunk)
            if token is None:
                m = match(chunk)
                if m is None or m.end() != len(chunk):
                    yield from _lex(chunk)
                    continue
                token = m.lastgroup, chunk
                if token[0] == "num":
                    if len(known) >= len(_OPS) + _NUMBERS_KEPT:
                        known.clear()
                        known.update(_OPS)
                    known[chunk] = token
            yield token


def _lp_lines(fh):
    """``((number, kind), line)`` of each line of an LP file, comments
    removed, with the number and kind of the section it is in; a section
    header counts as an empty line of its section."""
    section = _BEFORE_SECTIONS
    try:
        for line in fh:
            if "\\" in line:
                line = line[:line.index("\\")]
            head = _SECTION_RE.fullmatch(line)
            if head:
                section = (section[0] + 1, head.lastgroup)
                line = ""
            yield section, line
    except UnicodeDecodeError as exc:
        raise LpFormatError(f"{fh.name} is not a text file: {exc}") from None


def _lp_rows(tokens, reading: _Reading, rows: _Rows) -> None:
    """Read the rows ``[name:] expression sense [+|-] rhs`` from the token
    iterator ``tokens`` into ``rows``, adding their columns to ``reading``.

    An expression is a run of ``[+|-]... [coefficient] variable`` terms; a
    variable named twice in a row sums its coefficients and ``__zero__`` is
    dropped.
    """
    column, index = reading.column, reading.index
    add_row, add_col, add_val = rows.row.append, rows.col.append, rows.val.append
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
        r = len(rows.sense)
        sign, coef, sense = 1.0, None, None
        for kind, val in body:
            if kind == "name":
                if val != "__zero__":
                    j = index.get(val)
                    add_row(r)
                    add_col(column(val) if j is None else j)
                    add_val(sign if coef is None else sign * coef)
                sign, coef = 1.0, None
            elif kind == "num":
                if coef is not None:
                    raise LpFormatError(
                        f"row {name or f'r{r}'}: two consecutive numbers")
                coef = float(val)
            elif val == "-":
                sign = -sign
            elif val != "+":
                sense = val
                break
        if coef is not None:
            raise LpFormatError(f"row {name or f'r{r}'} ends with a dangling "
                                "number")
        code = _SENSE_CODES.get(sense)
        if code is None:
            raise LpFormatError(f"row {name or f'r{r}'}: missing sense")
        rhs = next(tokens, None)
        sign = _SIGNS.get(rhs)
        if sign is None:
            sign = 1.0
        else:
            rhs = next(tokens, None)
        if rhs is None or rhs[0] != "num":
            raise LpFormatError(f"row {name or f'r{r}'}: missing rhs")
        rows.sense.append(code)
        rows.rhs.append(sign * float(rhs[1]))


@_gc_paused()
def read_lp(path) -> ModelArrays:
    """Read an LP file, one section at a time, as a stream of lines."""
    reading = _Reading()
    with open(path) as fh:
        for (_, kind), group in groupby(_lp_lines(fh), key=itemgetter(0)):
            lines = map(itemgetter(1), group)
            if kind in ("minimize", "maximize"):
                # the objective reads as the one row "[name:] expression = 0"
                reading.minimize = kind == "minimize"
                objective = _Rows()
                _lp_rows(chain(_lp_tokens(lines, reading), _OBJECTIVE_END),
                         reading, objective)
                if len(objective.sense) != 1:
                    raise LpFormatError("trailing tokens in objective")
                reading.objective = objective
            elif kind == "constraints":
                _lp_rows(_lp_tokens(lines, reading), reading, reading.rows)
            elif kind == "bounds":
                for line in lines:
                    tokens = list(_lp_tokens((line,), reading))
                    if tokens:
                        try:
                            _parse_bound(tokens, reading)
                        except (IndexError, LpFormatError) as exc:
                            raise LpFormatError(
                                f"bad bound line {line.strip()!r}: {exc}"
                            ) from exc
            elif kind in ("binaries", "generals"):
                for line in lines:
                    for var in line.split():
                        j = reading.column(var)
                        reading.integer[j] = 1
                        if kind == "binaries":
                            reading.lower[j] = 0.0
                            reading.upper[j] = min(reading.upper[j], 1.0)
    return reading.arrays()


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


def _parse_bound(tokens: list, reading: _Reading) -> None:
    """Apply the tokens of one bound line: ``v free``, ``v sense b``,
    ``b <= v`` or ``b <= v <= b``."""
    lower, upper = reading.lower, reading.upper
    if len(tokens) == 2 and tokens[1][1].lower() == "free":
        lower[reading.column(tokens[0][1])] = -math.inf
        return
    if tokens[0][0] == "name" and tokens[0][1].lower() not in ("inf", "infinity"):
        j = reading.column(tokens[0][1])
        sense = tokens[1][1]
        value, _ = _bound_value(tokens, 2)
        if sense == "<=":
            upper[j] = value
        elif sense == ">=":
            lower[j] = value
        else:
            lower[j] = upper[j] = value
        return
    lo, i = _bound_value(tokens, 0)
    if tokens[i][1] != "<=":
        raise LpFormatError(f"expected '<=' after {lo}")
    var = tokens[i + 1][1]
    j = reading.column(var)
    lower[j] = lo
    if i + 2 < len(tokens):
        if tokens[i + 2][1] != "<=":
            raise LpFormatError(f"expected '<=' after {var}")
        upper[j], _ = _bound_value(tokens, i + 3)


# ---------------------------------------------------------------------------
# MPS writing / reading (free format)
# ---------------------------------------------------------------------------

_MPS_TYPES = "LGE"              # MPS row type per code in SENSES
_MARKERS = ("    MARKER M2 'MARKER' 'INTEND'\n",     # before a continuous run
            "    MARKER M1 'MARKER' 'INTORG'\n")     # before an integer run


def write_mps(m: ModelArrays, path, relax: bool = False) -> None:
    """Free-format MPS file; ``relax`` makes the integer columns continuous.
    Every integer column is written as a binary."""
    names = m.names
    n = len(names)
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
    del order
    first = np.searchsorted(col, np.arange(n + 1))
    want_int = m.integer & (not relax)
    # the entries of a column name rows anywhere in the model
    row_names = m.row_names(np.arange(len(m.rhs)))
    with open(path, "w") as fh:
        fh.write("NAME ebusopt\n")
        fh.write("ROWS\n N obj\n")
        fh.writelines(f" {_MPS_TYPES[s]} {name}\n"
                      for s, name in zip(m.sense.tolist(), row_names))
        fh.write("COLUMNS\n")
        for lo, hi in _blocks(n):
            fh.writelines(_mps_column_lines(names, row_names, col, row, val,
                                            first, want_int, lo, hi))
        if n and want_int[-1]:
            fh.write("    MARKER M3 'MARKER' 'INTEND'\n")
        fh.write("RHS\n")
        nonzero = np.flatnonzero(m.rhs != 0.0)
        for lo, hi in _blocks(len(nonzero)):
            rows = nonzero[lo:hi]
            fh.writelines(f"    RHS {row_names[r]} {rhs}\n" for r, rhs in
                          zip(rows.tolist(), _num_strings(m.rhs[rows])))
        fh.write("BOUNDS\n")
        for lo, hi in _blocks(n):
            cont = ~want_int[lo:hi]
            binaries = lo + np.flatnonzero(want_int[lo:hi])
            lower = lo + np.flatnonzero(cont & (m.lb[lo:hi] != 0.0))
            upper = lo + np.flatnonzero(cont & (m.ub[lo:hi] != math.inf))
            fh.writelines(_lines_by_column((
                (binaries, [f" BV BND {names[j]}\n"
                            for j in binaries.tolist()]),
                (lower, [f" LO BND {names[j]} {low}\n" for j, low in
                         zip(lower.tolist(), _num_strings(m.lb[lower]))]),
                (upper, [f" UP BND {names[j]} {high}\n" for j, high in
                         zip(upper.tolist(), _num_strings(m.ub[upper]))]))))
        fh.write("ENDATA\n")


def _mps_column_lines(names, row_names, col, row, val, first, want_int,
                      lo: int, hi: int) -> list:
    """The COLUMNS lines of the columns ``lo`` to ``hi``, from the
    column-major entries ``col``, ``row`` (-1 for the objective) and
    ``val``, whose column ``j`` starts at ``first[j]``."""
    k0, k1 = int(first[lo]), int(first[hi])
    col = col[k0:k1]
    entries = [f"{'obj' if r < 0 else row_names[r]} {v}"
               for r, v in zip(row[k0:k1].tolist(), _num_strings(val[k0:k1]))]
    # two entries a line: each even entry of a column opens one, and takes
    # the next entry along if that is in the same column
    starts = np.flatnonzero((np.arange(k0, k1) - first[col]) % 2 == 0)
    paired = k0 + starts + 1 < first[col[starts] + 1]
    lines = [f"    {names[j]} {entries[k]} {entries[k + 1]}\n" if pair
             else f"    {names[j]} {entries[k]}\n"
             for k, j, pair in zip(starts.tolist(), col[starts].tolist(),
                                   paired.tolist())]
    # each run of integer columns sits between an INTORG and an INTEND line
    block = want_int[lo:hi]
    before = np.append(lo > 0 and want_int[lo - 1], block[:-1])
    runs = lo + np.flatnonzero(block != before)
    for k, integer in zip(np.searchsorted(k0 + starts, first[runs]).tolist(),
                          want_int[runs].tolist()):
        lines[k] = _MARKERS[integer] + lines[k]
    return lines


_MPS_SENSES = {t: code for code, t in enumerate(_MPS_TYPES)}


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
def read_mps(path) -> ModelArrays:
    """Read a free-format MPS file, one loop per section."""
    reading = _Reading()
    column, rows, objective = reading.column, reading.rows, reading.objective
    lower, upper, integer = reading.lower, reading.upper, reading.integer
    obj_row = None
    row_index: dict = {}             # row name -> row
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
                            continue
                        if name in row_index:
                            raise ValueError(f"row {name!r} named twice")
                        rows.sense.append(_MPS_SENSES[code])
                        rows.rhs.append(0.0)
                        row_index[name] = len(row_index)
                elif section == "COLUMNS":
                    for parts in lines:
                        if len(parts) >= 3 and parts[1].startswith("'MARKER'"):
                            integer_mode = parts[2].strip("'") == "INTORG"
                            continue
                        if "'MARKER'" in parts:
                            integer_mode = "'INTORG'" in parts
                            continue
                        j = column(parts[0])
                        if integer_mode:
                            integer[j] = 1
                        for k in range(1, len(parts) - 1, 2):
                            name, val = parts[k], float(parts[k + 1])
                            if name == obj_row:
                                objective.row.append(0)
                                objective.col.append(j)
                                objective.val.append(val)
                                continue
                            r = row_index.get(name)
                            if r is None:
                                raise ValueError(f"unknown row {name!r}")
                            rows.row.append(r)
                            rows.col.append(j)
                            rows.val.append(val)
                elif section == "RHS":
                    for parts in lines:
                        for k in range(1, len(parts) - 1, 2):
                            value = float(parts[k + 1])
                            r = row_index.get(parts[k])
                            if r is not None:
                                rows.rhs[r] = value
                elif section == "RANGES":
                    for parts in lines:
                        raise ValueError("RANGES is not supported")
                elif section == "BOUNDS":
                    for parts in lines:
                        btype, j = parts[0].upper(), column(parts[2])
                        if btype == "UP":
                            upper[j] = float(parts[3])
                        elif btype == "LO":
                            lower[j] = float(parts[3])
                        elif btype == "FX":
                            lower[j] = upper[j] = float(parts[3])
                        elif btype == "BV":
                            integer[j] = 1
                            lower[j] = 0.0
                            upper[j] = 1.0
                        elif btype == "MI":
                            lower[j] = -math.inf
                        elif btype == "PL":
                            upper[j] = math.inf
                        elif btype == "UI":
                            integer[j] = 1
                            upper[j] = float(parts[3])
                        else:
                            raise ValueError(
                                f"unsupported bound type {btype!r}")
            except LpFormatError:                  # not a text file
                raise
            except (IndexError, KeyError, ValueError) as exc:
                raise LpFormatError(f"bad {section} line "
                                    f"{' '.join(parts)!r}: {exc}") from exc
    del row_index
    # integer variables with no explicit bounds default to [0, 1] in MPS
    for j in np.flatnonzero(np.array(integer, bool)
                            & (np.array(upper) == math.inf)).tolist():
        upper[j] = 1.0
    return reading.arrays()


def emitted_arrays(m: ModelArrays, fmt: str = "lp",
                   relax: bool = False) -> ModelArrays:
    """What ``read_lp`` (or ``read_mps``) returns for the file ``write_lp``
    (or ``write_mps``) emits from ``m``, built without the file.

    The writers print every number so that it reads back bit for bit, except
    that -0.0 reads back as 0.0; adding 0.0 does the same here.  Columns
    follow the reader's first-seen order: for LP the objective terms, then
    row terms, bound lines and binaries, with columns that appear in none of
    them left out; for MPS every column in model order.
    """
    n = len(m.names)
    integer = m.integer & (not relax)
    if fmt == "mps":
        order = np.arange(n)
    elif fmt == "lp":
        bounded = ~integer & ((m.lb != 0.0) | (m.ub != math.inf))
        seen = np.concatenate([np.flatnonzero(m.obj != 0.0), m.cols,
                               np.flatnonzero(bounded),
                               np.flatnonzero(integer)])
        cols, first = np.unique(seen, return_index=True)
        order = cols[np.argsort(first)]
    else:
        raise LpFormatError(f"unknown model format {fmt!r}")
    pos = np.full(n, -1)
    pos[order] = np.arange(len(order))
    # the rows keep their entries; each row's columns become ascending in
    # the new order
    indices = pos[m.cols]
    by_row = np.lexsort((indices, m.row_of_entry()))
    return ModelArrays(
        names=[m.names[j] for j in order.tolist()], obj=m.obj[order] + 0.0,
        lb=m.lb[order] + 0.0, ub=m.ub[order] + 0.0, integer=integer[order],
        start=m.start, cols=indices[by_row], vals=m.vals[by_row] + 0.0,
        sense=m.sense, rhs=m.rhs + 0.0, tag=np.zeros(len(m.rhs), np.int64),
        tags=["r"])


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
    """Parse ``name value`` lines under ``# status/objective/bound`` headers.

    Comment lines (``#``, ``//``), objective lines (``=obj=`` and the like)
    and one-word lines are skipped; a value line whose value is not a number
    is an ``LpFormatError`` naming the line, never a variable read as 0.
    """
    values: dict = {}
    meta: dict = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
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
                raise LpFormatError(
                    f"{path}:{lineno}: value of {parts[0]!r} is not a "
                    f"number: {line!r}") from None
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
            values[name] = _xml_number(val, f"value of {name!r}", path)
    objective = None
    status = "unknown"
    header = root.find("header")
    if header is not None:
        objective = header.get("objectiveValue")
        if objective is not None:
            objective = _xml_number(objective, "objectiveValue", path)
        status = header.get("solutionStatusString", "unknown")
    if not values:
        raise LpFormatError(f"no variables in XML solution file {path}")
    return RawSolution(values=values, objective=objective, status=status)


def _xml_number(text: str, what: str, path) -> float:
    try:
        return float(text)
    except ValueError:
        raise LpFormatError(f"{path}: {what} is not a number: "
                            f"{text!r}") from None


def parse_solution_file(path) -> RawSolution:
    p = str(path)
    if p.endswith(".xml"):
        return parse_solution_xml(path)
    with open(path) as fh:
        head = fh.read(200).lstrip()
    if head.startswith("<?xml") or head.startswith("<CPLEXSolution"):
        return parse_solution_xml(path)
    return parse_solution_text(path)
