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
cross-check the two encodings against each other.  Both read the file a
block of ``_LINES`` lines at a time and keep, besides the column and row
names, only numeric arrays: the entries of the rows in file order, which
become CSR at the end, with a column named twice in one row summed in
file order and explicit zeros kept.  Columns come in first-seen order,
and ``emitted_arrays`` builds what a reader returns for a written file
without the file, so this module owns that order.

The LP reader finds the section headers of a block with one regex, splits
each section's text on whitespace, and tells the kind of every chunk from
its bytes with numpy: an operator, a number (which ``float`` must also
read) or a name is one token, and a block holding any other chunk is
lexed chunk by chunk with ``_TOKEN_RE``, the one definition of the token
grammar.  The row grammar is then checked with numpy over the kinds of
the tokens; a row that goes on past the end of a block waits for the next
one.  Bound lines are read the same way, in one pass per block: a ":"
token ends each line, and numpy over the first tokens of every line sorts
it into its bound form and applies the bounds in line order.  The MPS
reader splits each line and reads a run of data lines of one section at a
time, a block with a header, comment or MARKER line a line at a time.
Both read each distinct number of a block with one ``float``, look up each
column and row name in a dict, pause the cyclic garbage collector while
they read, and report a malformed file as ``LpFormatError``, naming where
they can the row, line or column at fault, and a number the format has no
use for (NaN anywhere, an infinite coefficient or right-hand side).
"""

from __future__ import annotations

import gc
import math
import re
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import chain, compress, count, islice, product, repeat
from operator import itemgetter
from typing import Optional
from xml.etree import ElementTree

import numpy as np


class LpFormatError(ValueError):
    """Malformed model or solution file."""


def _num(v: float) -> str:
    if abs(v) < 1e15 and v == int(v):      # abs first: int() of inf raises
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

    def relaxed(self) -> "ModelArrays":
        """These arrays with every integer column made continuous."""
        return replace(self, integer=np.zeros_like(self.integer))

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


def write_lp(m: ModelArrays, path) -> None:
    """CPLEX-style LP file; every integer column is written as a binary."""
    names = m.names
    in_obj = np.flatnonzero(m.obj != 0.0)
    binaries = np.flatnonzero(m.integer)
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
            cont = ~m.integer[lo:hi]
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

_LINES = 512        # lines a reader parses at a time


def _line_blocks(fh):
    """Lists of the next ``_LINES`` lines of the text file ``fh``."""
    try:
        while True:
            lines = list(islice(fh, _LINES))
            if not lines:
                return
            yield lines
    except UnicodeDecodeError as exc:
        raise LpFormatError(f"{fh.name} is not a text file: {exc}") from None


def _last_wins(target: np.ndarray, at: np.ndarray, values: np.ndarray) -> None:
    """``target[at] = values`` in order: where ``at`` repeats, the last value
    stays."""
    _, last = np.unique(at[::-1], return_index=True)
    last = len(at) - 1 - last
    target[at[last]] = values[last]


def _floats(texts) -> np.ndarray:
    """``float`` of each of ``texts``, taken once per distinct text."""
    texts = list(texts)
    distinct = dict.fromkeys(texts)
    value = dict(zip(distinct, map(float, distinct)))
    return np.fromiter(map(value.__getitem__, texts), float, len(texts))


def _grown(a: np.ndarray, n: int, fill) -> np.ndarray:
    """``a`` with room for at least ``n`` entries, the new ones ``fill``."""
    if n <= len(a):
        return a
    return np.concatenate([a, np.full(max(n, 2 * len(a)) - len(a), fill,
                                      a.dtype)])


class _Rows:
    """Rows as a reader reads them: their entries as (row, column, value)
    arrays in file order, and per row its sense code and right-hand side;
    ``rhs_set`` holds later ``(rows, values)`` assignments to the rhs."""

    def __init__(self):
        self.entries = []
        self.sense = []
        self.rhs = []
        self.rhs_set = []
        self.count = 0

    def add(self, sense: np.ndarray, rhs: np.ndarray) -> None:
        self.sense.append(sense)
        self.rhs.append(rhs)
        self.count += len(sense)

    def csr(self, n_rows: int, n_cols: int) -> tuple:
        """``(indptr, indices, data)``: the columns of each row ascending,
        each with 0.0 plus its values in file order."""
        key = np.concatenate([np.zeros(0, np.int64)]
                             + [row for row, _, _ in self.entries])
        key *= n_cols
        key += np.concatenate([np.zeros(0, np.int64)]
                              + [col for _, col, _ in self.entries])
        order = np.argsort(key, kind="stable")
        key = key[order]
        val = np.concatenate([np.zeros(0)]
                             + [val for _, _, val in self.entries])[order]
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


class _Columns(dict):
    """Column name -> column, in first-seen order: a new name gets the next
    column."""

    def __missing__(self, name: str) -> int:
        j = self[name] = len(self)
        return j


class _Reading:
    """A model file as a reader reads it: the columns in first-seen order
    with their bounds and integrality, the rows and the objective (one row
    whose sense and rhs are ignored)."""

    def __init__(self):
        self.index = _Columns()
        self.lower = np.zeros(0)         # per column, with room to grow
        self.upper = np.zeros(0)
        self.integer = np.zeros(0, bool)
        self.rows = _Rows()
        self.objective = _Rows()
        self.minimize = True

    def columns(self, names: list) -> np.ndarray:
        """The columns ``names``; those not seen before are added in the
        order they first appear."""
        j = np.fromiter(map(self.index.__getitem__, names), np.int64,
                        len(names))
        n = len(self.index)
        if n > len(self.lower):
            self.lower = _grown(self.lower, n, 0.0)
            self.upper = _grown(self.upper, n, math.inf)
            self.integer = _grown(self.integer, n, False)
        return j

    def arrays(self) -> ModelArrays:
        """What was read, once the numbers the format has no use for are
        ruled out: NaN anywhere, and an infinite coefficient or rhs."""
        n, m = len(self.index), self.rows.count
        start, cols, vals = self.rows.csr(m, n)
        _, obj_cols, obj_vals = self.objective.csr(1, n)
        obj = np.zeros(n)
        obj[obj_cols] = obj_vals
        if not self.minimize:
            obj = -obj
        rhs = np.concatenate([np.zeros(0)] + self.rows.rhs)
        for rows, values in self.rows.rhs_set:
            _last_wins(rhs, rows, values)
        a = ModelArrays(
            names=list(self.index), obj=obj, lb=self.lower[:n].copy(),
            ub=self.upper[:n].copy(), integer=self.integer[:n].copy(),
            start=start, cols=cols, vals=vals,
            sense=np.concatenate([np.zeros(0, np.int8)] + self.rows.sense),
            rhs=rhs, tag=np.zeros(m, np.int64), tags=["r"],
            minimize=self.minimize)
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
# matched names the kind of section.  The pattern finds a header after the
# newline that ends the line before it, and its lookahead (the first letters
# of the keywords) passes over most other lines at once.
_SECTION_RE = re.compile(
    r"\n[^\S\n]*(?=[mbsgie])(?:(?P<minimize>minimize|minimise|min)"
    r"|(?P<maximize>maximize|maximise|max)"
    r"|(?P<constraints>subject[^\S\n]+to|such[^\S\n]+that|s\.t\.|st)"
    r"|(?P<bounds>bounds?)|(?P<binaries>binar(?:y|ies)|bin)"
    r"|(?P<generals>generals?|gen|integers?|int)|(?P<end>end))[^\S\n]*"
    r"(?![^\n])",
    re.IGNORECASE)
_COMMENT_RE = re.compile(r"\\[^\n]*")

_TOKEN_RE = re.compile(
    r"(?P<num>[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?![\w.\[\]@#]))"
    r"|(?P<name>[A-Za-z_!\"#$%&(),;?@'`{}|~.][A-Za-z0-9_!\"#$%&(),;?@'`{}|~.\[\]]*)"
    r"|(?P<op><=|>=|=<|=>|=|\+|-|:)")

# token kinds: a number, a name, or an operator, named by its text; a
# sense's code in SENSES is its kind minus _LE
_KINDS = ("num", "name", "+", "-", ":") + SENSES
_NUM, _NAME, _PLUS, _MINUS, _COLON, _LE, _GE, _EQ = range(len(_KINDS))
# the chunks that are one operator token, and its kind
_OPS = {"<=": _LE, "=<": _LE, ">=": _GE, "=>": _GE, "=": _EQ, "+": _PLUS,
        "-": _MINUS, ":": _COLON}


_NAME_START = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_!\"#$%&(),;?@'`{}|~"
_BLANKS = "\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "      # where str.split() splits ASCII


def _chunk_kinds() -> np.ndarray:
    """The kind of a chunk of one whole token by its first two bytes (the
    second a blank if the chunk has one byte), as a table indexed by
    ``first << 8 | second``; -1 where the chunk must be lexed.  Digits and
    signs start numbers, but a sign alone is an operator, as are ":" and
    "=" alone and the two-byte senses; letters and symbols start names.
    "." may start a number or a name, so such a chunk is lexed."""
    table = np.full((256, 256), -1, np.int8)
    table[list(b"0123456789+-")] = _NUM
    table[list(_NAME_START.encode())] = _NAME
    for op, kind in _OPS.items():
        for second in (_BLANKS.encode() if len(op) == 1 else op.encode()[1:]):
            table[ord(op[0]), second] = kind
    return table.reshape(-1)


_CHUNK_KINDS = _chunk_kinds()
# per byte, a flag: a blank, or the kinds of token that cannot hold it
_BLANK, _NOT_NUM, _NOT_NAME = 1, 2, 4
_BYTE_FLAGS = bytes(
    _BLANK if c in _BLANKS
    else 0 if c in "0123456789.eE"
    else _NOT_NAME if c in "+-"
    else _NOT_NUM if c in _NAME_START + "[]"
    else _NOT_NUM | _NOT_NAME for c in map(chr, range(256)))


def _lex(chunk: str) -> list:
    """The ``(kind, text)`` tokens of a whitespace-free chunk, lexed with
    ``_TOKEN_RE``."""
    tokens = []
    pos = 0
    while pos < len(chunk):
        m = _TOKEN_RE.match(chunk, pos)
        if m is None:
            raise LpFormatError(
                f"cannot tokenize LP text near {chunk[pos:pos + 30]!r}")
        pos = m.end()
        text = m.group()
        kind = m.lastgroup
        tokens.append((_OPS[text] if kind == "op"
                       else _NUM if kind == "num" else _NAME, text))
    return tokens


def _lp_tokens(text: str) -> tuple:
    """``(texts, kinds, values)`` of the tokens of ``text``: the text of
    each token, its kind as an int8 array, and a float array holding the
    value of each number.

    No token spans whitespace, and the one lookahead (after a number) passes
    both before whitespace and at the end of a chunk, so the tokens of a
    text are those of its ``split()`` chunks in turn.  In ASCII text, the
    bytes of each chunk tell whether it is one whole token, and of which
    kind; a number is one if ``float`` also reads it.  If any chunk is not
    one whole token, every chunk is lexed with ``_TOKEN_RE``.
    """
    chunks = text.split()
    n = len(chunks)
    values = np.zeros(n)
    if text.isascii() and n:
        # the text between blanks, so that each chunk has a blank each side
        text = f" {text} ".encode()
        flags = np.frombuffer(text.translate(_BYTE_FLAGS), np.uint8)
        text = np.frombuffer(text, np.uint8)
        edges = np.flatnonzero(np.diff(flags == _BLANK)) + 1
        start, length = edges[0::2], edges[1::2] - edges[0::2]
        kind = _CHUNK_KINDS[text[start].astype(np.uint16) << 8
                            | text[1:][start]]
        kind[(kind >= _LE) & (length > 2)] = -1
        flags = np.bitwise_or.reduceat(flags, start)
        kind[((kind == _NUM) & (flags & _NOT_NUM > 0))
             | ((kind == _NAME) & (flags & _NOT_NAME > 0))] = -1
        if not (kind < 0).any():
            number = kind == _NUM
            try:
                values[number] = _floats(compress(chunks, number.tolist()))
                return chunks, kind, values
            except ValueError:
                pass
    tokens = [token for chunk in chunks for token in _lex(chunk)]
    kind = np.fromiter(map(itemgetter(0), tokens), np.int8, len(tokens))
    chunks = list(map(itemgetter(1), tokens))
    values = np.zeros(len(tokens))
    at = np.flatnonzero(kind == _NUM)
    values[at] = _floats(map(chunks.__getitem__, at.tolist()))
    return chunks, kind, values


_NO_TOKENS = ([], np.zeros(0, np.int8), np.zeros(0))


class _RowSection:
    """The rows ``[name:] expression sense [+|-] rhs`` of one LP section,
    read from its text a block at a time into ``rows``.

    An expression is a run of ``[+|-]... [coefficient] variable`` terms; a
    variable named twice in a row sums its coefficients and ``__zero__`` is
    dropped.  A block is read up to the end of its last row, or further up
    to the last variable (a name not followed by ":") of the row still open
    after it, which ends a term whatever comes next.  The tokens after that
    wait for the next block, and ``open`` says that they go on a row begun
    before them.
    """

    def __init__(self, reading: _Reading, rows: _Rows):
        self.reading, self.rows = reading, rows
        self.waiting = _NO_TOKENS
        self.open = False

    def read(self, text: str) -> None:
        tokens = _lp_tokens(text.replace(":", " : "))
        if self.waiting[0]:
            tokens = (self.waiting[0] + tokens[0],
                      *(np.concatenate(pair)
                        for pair in zip(self.waiting[1:], tokens[1:])))
        self.waiting = self._rows(*tokens, last=False)

    def close(self) -> None:
        """Read the waiting tokens, which must end the last row."""
        self._rows(*self.waiting, last=True)
        self.waiting = _NO_TOKENS

    def _rows(self, texts, kinds, values, last: bool) -> tuple:
        """Read the rows the tokens complete, and unless they are the
        ``last`` the terms of the row still open after them; return the
        tokens left to wait."""
        rows, size, first_row = self.rows, len(kinds), self.rows.count
        # each sense ends its row's expression, and one [+|-] number after
        # it ends the row; a sense at the end of a block waits for its rhs
        sense = np.flatnonzero(kinds >= _LE)
        after = np.minimum(sense + 1, size - 1)
        sign = ((sense + 1 < size) & ((kinds[after] == _PLUS)
                                       | (kinds[after] == _MINUS)))
        rhs = sense + 1 + sign
        if not last and len(rhs) and rhs[-1] >= size:
            sense, after, sign, rhs = sense[:-1], after[:-1], sign[:-1], rhs[:-1]
        bad = np.flatnonzero((rhs >= size)
                             | (kinds[np.minimum(rhs, size - 1)] != _NUM))
        if len(bad):
            raise LpFormatError(f"row r{first_row + bad[0]}: missing rhs")
        ends = rhs + 1
        tail = int(ends[-1]) if len(ends) else 0
        if last:
            if tail < size or (self.open and not len(ends)):
                raise LpFormatError(
                    f"row r{first_row + len(ends)}: missing sense")
            cut = size
        else:
            var = tail + np.flatnonzero((kinds[tail:-1] == _NAME)
                                        & (kinds[tail + 1:] != _COLON))
            cut = int(var[-1]) + 1 if len(var) else tail
        # a row begun here starts with its label "name :" if it has one
        heads = np.concatenate([[0], ends[:-1 if tail == cut else None]])
        heads = heads[1:] if self.open else heads
        heads = heads[heads + 1 < cut]
        label = heads[(kinds[heads] == _NAME) & (kinds[heads + 1] == _COLON)]
        outside = np.zeros(cut, bool)
        for at in (sense, sense[sign] + 1, rhs, label, label + 1):
            outside[at] = True
        # the expressions: terms, each ended by its variable
        expr = np.flatnonzero(~outside)
        kind = kinds[expr]
        row = np.searchsorted(ends, expr, side="right")
        if (kind == _COLON).any():
            raise LpFormatError(
                f"row r{first_row + row[kind == _COLON][0]}: missing sense")
        is_var = kind == _NAME
        term = np.cumsum(is_var) - is_var
        var_row = row[is_var]
        in_term = term < len(var_row)
        in_term[in_term] = var_row[term[in_term]] == row[in_term]
        number = kind == _NUM
        bad = np.flatnonzero(number & ~in_term)
        if len(bad):
            raise LpFormatError(f"row r{first_row + row[bad[0]]} ends with a "
                                "dangling number")
        coef = term[number]
        if len(coef) and (np.diff(coef) == 0).any():
            raise LpFormatError(f"row r{first_row + row[number][0]}: "
                                "two consecutive numbers")
        value = np.ones(len(var_row))
        value[coef] = values[expr[number]]
        flip = np.bincount(term[(kind == _MINUS) & in_term],
                           minlength=len(var_row)) % 2 == 1
        value[flip] = -value[flip]
        names = list(map(texts.__getitem__, expr[is_var].tolist()))
        if "__zero__" in names:
            keep = np.fromiter(map("__zero__".__ne__, names), bool, len(names))
            names = list(compress(names, keep))
            var_row, value = var_row[keep], value[keep]
        rows.entries.append((first_row + var_row,
                             self.reading.columns(names), value))
        rhs_value = values[rhs]
        negative = sign & (kinds[after] == _MINUS)
        rhs_value[negative] = -rhs_value[negative]
        rows.add((kinds[sense] - _LE).astype(np.int8), rhs_value)
        self.open = cut > tail or (self.open and not len(ends))
        return texts[cut:], kinds[cut:], values[cut:]


# the names a bound line reads as words, in every casing: an infinite value,
# or "free" after a variable
_INF, _FREE = 1, 2
_WORDS = {"".join(spelling): code
          for word, code in (("inf", _INF), ("infinity", _INF),
                             ("free", _FREE))
          for spelling in product(*zip(word, word.upper()))}


def _read_bounds(text: str, reading: _Reading) -> None:
    """Apply the bound lines of ``text`` in order, all together: ``v free``,
    ``v sense b``, ``b <= v`` or ``b <= v <= b``, where ``b`` is
    ``[+|-] number`` or ``[+|-] inf``.  A second token that is no sense
    fixes ``v``, and tokens after a line's last value are ignored.

    The text is tokenized with a ":" for each line break, so that each line's
    tokens end with a ":" of their own; a text that holds a ":" is tokenized
    a line at a time."""
    if ":" in text:
        parts = [_lp_tokens(line + " :") for line in text.split("\n")]
        texts = list(chain.from_iterable(map(itemgetter(0), parts)))
        kinds = np.concatenate([part[1] for part in parts])
        values = np.concatenate([part[2] for part in parts])
        ends = np.cumsum([len(part[1]) for part in parts]) - 1
    else:
        texts, kinds, values = _lp_tokens(text.replace("\n", " : ") + " :")
        ends = np.flatnonzero(kinds == _COLON)
    n = ends - np.concatenate([[-1], ends[:-1]]) - 1
    line = np.flatnonzero(n)
    n = n[line]
    rows = np.arange(len(n))
    # per line the kind, value and position of its first 7 tokens, the most
    # a bound line reads, and an 8th that is never there; kind -1 past its end
    pos = (ends[line] - n)[:, None] + np.arange(8)
    kind = kinds[np.minimum(pos, len(kinds) - 1)]
    kind[np.arange(8) >= np.minimum(n, 7)[:, None]] = -1
    value = values[np.minimum(pos, len(kinds) - 1)]

    def word(k):
        """The code in ``_WORDS`` of each line's ``k``-th token, 0 if none."""
        code = np.zeros(len(n), np.int8)
        name = np.flatnonzero(kind[rows, k] == _NAME)
        at = pos[rows, k][name].tolist()
        code[name] = np.fromiter(map(_WORDS.get, map(texts.__getitem__, at),
                                     repeat(0)), np.int8, len(name))
        return code

    def bound(k):
        """``(b, end, ok)`` of the ``b`` at each line's ``k``-th token."""
        sign = kind[rows, k]
        k = k + ((sign == _PLUS) | (sign == _MINUS))
        inf = word(k) == _INF
        ok = (kind[rows, k] == _NUM) | inf
        b = np.where(inf, math.inf, value[rows, k])
        return np.where(sign == _MINUS, -b, b), k + 1, ok

    free = (n == 2) & (word(1) == _FREE)
    named = ~free & (kind[:, 0] == _NAME) & (word(0) != _INF)
    ranged = ~free & ~named
    # v sense b reads its b at 2, b <= v [<= b] its lower bound at 0
    first, end, ok = bound(np.where(named, 2, 0))
    upper = ranged & (end + 2 < n)
    second, _, ok2 = bound(np.where(upper, end + 3, 7))
    bad = np.flatnonzero(~free & ~ok | ranged & (
        (kind[rows, end] != _LE) | (end + 1 >= n)
        | upper & ((kind[rows, end + 2] != _LE) | ~ok2)))
    if len(bad):
        lines = text.split("\n")
        raise LpFormatError(
            f"bad bound line {lines[line[bad[0]]].strip()!r}")
    sense = kind[:, 1]
    low = ~named | (sense != _LE)
    high = upper | named & (sense != _GE)
    var = pos[rows, np.where(ranged, end + 1, 0)]
    j = reading.columns(list(map(texts.__getitem__, var.tolist())))
    _last_wins(reading.lower, j[low], np.where(free, -math.inf, first)[low])
    _last_wins(reading.upper, j[high], np.where(upper, second, first)[high])


def _read_integers(text: str, reading: _Reading, binary: bool) -> None:
    """Mark the columns named in ``text`` integer; a binary also gets the
    bounds [0, min(upper, 1)]."""
    j = reading.columns(text.split())
    reading.integer[j] = True
    if binary:
        reading.lower[j] = 0.0
        reading.upper[j] = np.minimum(reading.upper[j], 1.0)


class _LpSection:
    """One section of an LP file, read a block of lines at a time; lines
    before the first header and after ``End`` are not read."""

    def __init__(self, kind: Optional[str], reading: _Reading):
        self.kind, self.reading = kind, reading
        self.rows = None
        if kind in ("minimize", "maximize"):
            # the objective reads as the one row "[name:] expression = 0"
            reading.minimize = kind == "minimize"
            self.rows = _RowSection(reading, _Rows())
        elif kind == "constraints":
            self.rows = _RowSection(reading, reading.rows)

    def read(self, text: str) -> None:
        if self.rows is not None:
            self.rows.read(text)
        elif self.kind == "bounds":
            _read_bounds(text, self.reading)
        elif self.kind in ("binaries", "generals"):
            _read_integers(text, self.reading, self.kind == "binaries")

    def close(self) -> None:
        if self.rows is None:
            return
        if self.kind == "constraints":
            self.rows.close()
            return
        self.rows.read(" = 0")
        self.rows.close()
        if self.rows.rows.count != 1:
            raise LpFormatError("trailing tokens in objective")
        self.reading.objective = self.rows.rows


@_gc_paused()
def read_lp(path) -> ModelArrays:
    """Read an LP file a block of lines at a time."""
    reading = _Reading()
    section = _LpSection(None, reading)
    with open(path) as fh:
        for lines in _line_blocks(fh):
            text = "\n" + "".join(lines)
            if "\\" in text:
                text = _COMMENT_RE.sub("", text)
            at = 0
            for head in _SECTION_RE.finditer(text):
                section.read(text[at:head.start()])
                section.close()
                section = _LpSection(head.lastgroup, reading)
                at = head.end()
            section.read(text[at:])
    section.close()
    return reading.arrays()


# ---------------------------------------------------------------------------
# MPS writing / reading (free format)
# ---------------------------------------------------------------------------

_MPS_TYPES = "LGE"              # MPS row type per code in SENSES
_MARKERS = ("    MARKER M2 'MARKER' 'INTEND'\n",     # before a continuous run
            "    MARKER M1 'MARKER' 'INTORG'\n")     # before an integer run


def write_mps(m: ModelArrays, path) -> None:
    """Free-format MPS file; every integer column is written as a binary."""
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
                                            first, m.integer, lo, hi))
        if n and m.integer[-1]:
            fh.write("    MARKER M3 'MARKER' 'INTEND'\n")
        fh.write("RHS\n")
        nonzero = np.flatnonzero(m.rhs != 0.0)
        for lo, hi in _blocks(len(nonzero)):
            rows = nonzero[lo:hi]
            fh.writelines(f"    RHS {row_names[r]} {rhs}\n" for r, rhs in
                          zip(rows.tolist(), _num_strings(m.rhs[rows])))
        fh.write("BOUNDS\n")
        for lo, hi in _blocks(n):
            cont = ~m.integer[lo:hi]
            binaries = lo + np.flatnonzero(m.integer[lo:hi])
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
_BOUND_TYPES = {t: code for code, t in enumerate(
    ("UP", "LO", "FX", "BV", "MI", "PL", "UI"))}
# per bound type: the lower and the upper bound it sets, NaN standing for
# the number on the line; which of the two it sets; whether it makes the
# column integer
_BOUND_VALUES = np.array([[0.0, math.nan], [math.nan, 0.0],
                          [math.nan, math.nan], [0.0, 1.0], [-math.inf, 0.0],
                          [0.0, math.inf], [0.0, math.nan]])
_BOUND_SETS = np.array([[0, 1], [1, 0], [1, 1], [1, 1], [1, 0], [0, 1],
                        [0, 1]], bool)
_BOUND_INTEGER = np.array([0, 0, 0, 1, 0, 0, 1], bool)


def _is_marker(parts: list) -> bool:
    return ((len(parts) >= 3 and parts[1].startswith("'MARKER'"))
            or "'MARKER'" in parts)


def _mps_runs(fh):
    """``(section, lines, integer)`` of each run of data lines of an MPS file
    up to ENDATA, a line given as its parts; ``integer`` says whether the
    run lies between an INTORG and an INTEND marker.

    A header line starts with neither whitespace nor the "*" of a comment,
    and blank lines and comments are skipped.  A block of lines with no
    header, comment or marker is one run; any other is read a line at a
    time.
    """
    section, integer = None, False
    for lines in _line_blocks(fh):
        parts = list(map(str.split, lines))
        text = "".join(lines)
        if ("*" not in text and "'MARKER'" not in text
                and "".join(map(itemgetter(0), lines)).isspace()):
            # hold no block but the one being read
            del lines, text
            yield section, list(filter(None, parts)), integer
            del parts
            continue
        run = []
        for line, p in zip(lines, parts):
            if not p or p[0][0] == "*":
                continue
            if line[0].isspace() and not (section == "COLUMNS"
                                          and _is_marker(p)):
                run.append(p)
                continue
            yield section, run, integer
            run = []
            if line[0].isspace():
                integer = (p[2].strip("'") == "INTORG"
                           if len(p) >= 3 and p[1].startswith("'MARKER'")
                           else "'INTORG'" in p)
                continue
            section = p[0].upper()
            if section == "ENDATA":
                return
        yield section, run, integer


def _mps_pairs(lines: list) -> tuple:
    """``(line, names, values)`` of the ``name value`` pairs that follow
    the first part of each line: the line of each pair, its name and its
    value.  An odd part at the end of a line is left out."""
    lengths = np.fromiter(map(len, lines), np.int64, len(lines))
    pairs = (lengths - 1) // 2
    line = np.repeat(np.arange(len(lines)), pairs)
    at = (np.repeat(np.cumsum(lengths) - lengths - 2 * (np.cumsum(pairs)
                                                        - pairs), pairs)
          + 1 + 2 * np.arange(len(line)))
    parts = list(chain.from_iterable(lines))
    names = list(map(parts.__getitem__, at.tolist()))
    values = _floats(map(parts.__getitem__, (at + 1).tolist()))
    return line, names, values


class _MpsReading:
    """The sections of an MPS file as a reader reads them, a run of data
    lines at a time."""

    def __init__(self, reading: _Reading):
        self.reading = reading
        self.obj_row = None
        self.row_index: dict = {}        # row name -> row

    def rows(self, lines: list) -> None:
        if min(map(len, lines)) < 2:
            raise IndexError("a row needs a type and a name")
        types = list(map(str.upper, map(itemgetter(0), lines)))
        names = list(map(itemgetter(1), lines))
        if "N" in types:
            if self.obj_row is None:
                self.obj_row = names[types.index("N")]
            kept = [t != "N" for t in types]
            types, names = list(compress(types, kept)), list(compress(names,
                                                                    kept))
        sense = np.fromiter(map(_MPS_SENSES.__getitem__, types), np.int8,
                            len(types))
        row_index = self.row_index
        if len(dict.fromkeys(names)) < len(names) or any(
                map(row_index.__contains__, names)):
            raise ValueError("a row is named twice")
        row_index.update(zip(names, count(len(row_index))))
        self.reading.rows.add(sense, np.zeros(len(names)))

    def _row_entries(self, names: list) -> tuple:
        """The row each name names (-1 for none), and whether it names the
        objective, which goes before a row of the same name."""
        rows = np.fromiter(map(self.row_index.get, names, repeat(-1)),
                           np.int64, len(names))
        objective = np.zeros(len(names), bool)
        if self.obj_row is not None:
            at = (np.arange(len(names)) if self.obj_row in self.row_index
                  else np.flatnonzero(rows < 0))
            objective[at] = np.fromiter(
                map(self.obj_row.__eq__, map(names.__getitem__, at.tolist())),
                bool, len(at))
        return rows, objective

    def columns(self, lines: list, integer: bool) -> None:
        reading = self.reading
        j = reading.columns(list(map(itemgetter(0), lines)))
        if integer:
            reading.integer[j] = True
        line, names, values = _mps_pairs(lines)
        rows, objective = self._row_entries(names)
        unknown = np.flatnonzero((rows < 0) & ~objective)
        if len(unknown):
            raise ValueError(f"unknown row {names[unknown[0]]!r}")
        j = j[line]
        reading.rows.entries.append((rows[~objective], j[~objective],
                                     values[~objective]))
        reading.objective.entries.append(
            (np.zeros(objective.sum(), np.int64), j[objective],
             values[objective]))

    def rhs(self, lines: list) -> None:
        _, names, values = _mps_pairs(lines)
        rows = np.fromiter(map(self.row_index.get, names, repeat(-1)),
                           np.int64, len(names))
        known = rows >= 0
        self.reading.rows.rhs_set.append((rows[known], values[known]))

    def bounds(self, lines: list) -> None:
        reading = self.reading
        if min(map(len, lines)) < 3:
            raise IndexError("a bound needs a type, a set name and a column")
        types = list(map(str.upper, map(itemgetter(0), lines)))
        j = reading.columns(list(map(itemgetter(2), lines)))
        code = np.fromiter(map(_BOUND_TYPES.get, types, repeat(-1)), np.int64,
                           len(types))
        if (code < 0).any():
            raise ValueError("unsupported bound type "
                             f"{types[np.flatnonzero(code < 0)[0]]!r}")
        value = _BOUND_VALUES[code]
        valued = np.flatnonzero(np.isnan(value).any(axis=1))
        number = np.zeros(len(lines))
        number[valued] = _floats(map(itemgetter(3), map(lines.__getitem__,
                                                        valued.tolist())))
        value = np.where(np.isnan(value), number[:, None], value)
        for field, target in enumerate((reading.lower, reading.upper)):
            at = _BOUND_SETS[code, field]
            _last_wins(target, j[at], value[at, field])
        reading.integer[j[_BOUND_INTEGER[code]]] = True


@_gc_paused()
def read_mps(path) -> ModelArrays:
    """Read a free-format MPS file a block of lines at a time."""
    reading = _Reading()
    mps = _MpsReading(reading)
    with open(path) as fh:
        for section, lines, integer in _mps_runs(fh):
            if not lines:
                continue
            try:
                if section == "ROWS":
                    mps.rows(lines)
                elif section == "COLUMNS":
                    mps.columns(lines, integer)
                elif section == "RHS":
                    mps.rhs(lines)
                elif section == "RANGES":
                    raise ValueError("RANGES is not supported")
                elif section == "BOUNDS":
                    mps.bounds(lines)
            except (IndexError, KeyError, ValueError) as exc:
                raise LpFormatError(f"bad {section} line: {exc}") from exc
            del lines
    del mps
    # integer variables with no explicit bounds default to [0, 1] in MPS
    n = len(reading.index)
    upper = reading.upper[:n]
    upper[reading.integer[:n] & (upper == math.inf)] = 1.0
    return reading.arrays()


def emitted_arrays(m: ModelArrays, fmt: str = "lp") -> ModelArrays:
    """What ``read_lp`` (or ``read_mps``) returns for the file ``write_lp``
    (or ``write_mps``) emits from ``m``, built without the file.

    The writers print every number so that it reads back bit for bit, except
    that -0.0 reads back as 0.0; adding 0.0 does the same here.  Columns
    follow the reader's first-seen order: for LP the objective terms, then
    row terms, bound lines and binaries, with columns that appear in none of
    them left out; for MPS every column in model order.
    """
    n = len(m.names)
    if fmt == "mps":
        order = np.arange(n)
    elif fmt == "lp":
        bounded = ~m.integer & ((m.lb != 0.0) | (m.ub != math.inf))
        seen = np.concatenate([np.flatnonzero(m.obj != 0.0), m.cols,
                               np.flatnonzero(bounded),
                               np.flatnonzero(m.integer)])
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
        lb=m.lb[order] + 0.0, ub=m.ub[order] + 0.0, integer=m.integer[order],
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

    A header, like a bare objective line (``=obj=`` and the like), reads its
    last token, so Gurobi's ``# Objective value = 12.5`` is 12.5.  Other
    comment lines (``#``, ``//``) and one-word lines are skipped.  A value,
    objective or bound that is not a finite number is an ``LpFormatError``
    naming the line, never a variable read as 0 or an objective taken as
    absent.
    """
    values: dict = {}
    meta: dict = {}                 # key -> (text, line number, line)
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#") or line.startswith("//"):
                parts = line.lstrip("#/ ").split()
                if len(parts) >= 2 and parts[0].lower() in _META_KEYS:
                    meta[parts[0].lower()] = (parts[-1], lineno, line)
                continue
            parts = line.split()
            if parts[0].lower() in ("=obj=", "objective", "objective_value",
                                    "objvalue"):
                meta.setdefault("objective", (parts[-1], lineno, line))
                continue
            if len(parts) < 2:
                continue
            try:
                values[parts[0]] = _finite(float(parts[1]))
            except ValueError:
                raise LpFormatError(
                    f"{path}:{lineno}: value of {parts[0]!r} is not a "
                    f"finite number: {line!r}") from None
    status = meta["status"][0] if "status" in meta else "unknown"
    if not values and status == "unknown":
        raise LpFormatError(f"no variable values or status found in {path}")

    def _f(key):
        if key not in meta:
            return None
        text, lineno, line = meta[key]
        try:
            return _finite(float(text))
        except ValueError:
            raise LpFormatError(f"{path}:{lineno}: {key} is not a finite "
                                f"number: {line!r}") from None

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
        return _finite(float(text))
    except ValueError:
        raise LpFormatError(f"{path}: {what} is not a finite number: "
                            f"{text!r}") from None


def _finite(value: float) -> float:
    """``value``; NaN or inf is a ``ValueError``, as a non-number is."""
    if not math.isfinite(value):
        raise ValueError(value)
    return value


def parse_solution_file(path) -> RawSolution:
    p = str(path)
    if p.endswith(".xml"):
        return parse_solution_xml(path)
    with open(path) as fh:
        head = fh.read(200).lstrip()
    if head.startswith("<?xml") or head.startswith("<CPLEXSolution"):
        return parse_solution_xml(path)
    return parse_solution_text(path)
