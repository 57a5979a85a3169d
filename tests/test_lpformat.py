"""The model-file readers against the per-position reference readers in
``_oracles``: token lists, the solver arrays of parsed models, the failure
of malformed files, and the memory the readers and writers take."""

import os
import re
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

import _oracles
from ebusopt import lpformat
from ebusopt.generators import SyntheticParams, generate_synthetic
from ebusopt.lpformat import (LpFormatError, read_lp, read_mps, write_lp,
                              write_mps)
from ebusopt.milp import ModelOptions, emit_model
from ebusopt.refsolver import load_model
from test_milp import _assert_same_arrays, _reference_models, toy_setup

# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------

WHITESPACE = [" ", "  ", "\t", "\n", "\x0b", "\x0c", "\x1c", "\x85", "\xa0",
              " ", "　"]
PIECES = ["x", "y1", "x[037073][e0.D0]", "a.b", "_z", "!x", "#a", "a#", "@q",
          "q@", "(a)", "a,b", "inf", "free", "__zero__", "c1:", "c1", ":",
          "1", "-1", "+2.5", "1e5", "1E-3", "-.5", ".5", "5.", "1.5e+10",
          "2e", "1x", "x-1", "x+1", "1.2.3", ".5!", "3[", "3@", "3#", "3.x",
          "<=", ">=", "=<", "=>", "=", "==", "<", "+", "-", "+-", "^", "*",
          "é", "٣"]
CHARS = "".join(sorted(set("".join(PIECES + WHITESPACE))))
LP_TEXT = st.lists(st.one_of(st.sampled_from(PIECES),
                             st.sampled_from(WHITESPACE),
                             st.text(alphabet=CHARS, max_size=4)),
                   max_size=40).map("".join)


def _tokens_or_error(tokenize, text):
    try:
        return list(tokenize(text))
    except LpFormatError:
        return LpFormatError


def _kept_dict_sizes():
    """Sizes of the dicts the reader keeps beyond a call: its module globals
    and the default arguments of its functions."""
    kept = [v for v in vars(lpformat).values() if isinstance(v, dict)]
    for f in (lpformat._lex, lpformat._lp_tokens, lpformat._floats,
              lpformat._RowSection._rows, lpformat._read_bounds,
              lpformat._parse_bound, lpformat._Reading.columns,
              lpformat.read_lp.__wrapped__):
        kept += [d for d in f.__defaults__ or () if isinstance(d, dict)]
    return [len(d) for d in kept]


def _lp_tokens(text):
    """The block tokenizer's tokens as ``(kind, text)`` pairs, operators
    with their one spelling, after checking the value of each number."""
    texts, kinds, values = lpformat._lp_tokens(text)
    kinds = kinds.tolist()
    for kind, token, value in zip(kinds, texts, values.tolist()):
        if kind == lpformat._NUM:
            assert value == float(token)
    return [("op", lpformat._KINDS[kind]) if kind > lpformat._NAME
            else (lpformat._KINDS[kind], token)
            for kind, token in zip(kinds, texts)]


@pytest.fixture(scope="module")
def lp_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "m.lp")


@settings(max_examples=300, deadline=None)
@given(text=LP_TEXT, other=LP_TEXT)
def test_tokenizer_matches_per_position_reference(text, other, lp_file):
    want = _tokens_or_error(_oracles._tokenize_lp, text)
    assert _tokens_or_error(_lp_tokens, text) == want
    # a text tokenized after another gives the same tokens
    _tokens_or_error(_lp_tokens, other)
    assert _tokens_or_error(_lp_tokens, text) == want
    # what a reading keeps lives for one read: nothing the module keeps
    # grows
    kept = _kept_dict_sizes()
    with open(lp_file, "w") as fh:
        fh.write(f"Subject To\n{other}\n{text}\nEnd\n")
    try:
        read_lp(lp_file)
    except LpFormatError:
        pass
    _tokens_or_error(_lp_tokens, other + text)
    assert _kept_dict_sizes() == kept


CHUNK = st.lists(st.one_of(st.sampled_from(PIECES), st.text(
    alphabet="".join(c for c in CHARS if not c.isspace()), max_size=3)),
    min_size=1, max_size=3).map("".join).filter(lambda c: not c.isspace())


@settings(max_examples=300, deadline=None)
@given(chunks=st.lists(CHUNK, max_size=4))
def test_tokenizer_tells_whole_tokens_like_the_reference(chunks):
    # a chunk the bytes call one whole token must be one by the grammar,
    # alone and among others
    for text in chunks + [" ".join(chunks)]:
        assert (_tokens_or_error(_lp_tokens, text)
                == _tokens_or_error(_oracles._tokenize_lp, text))


def test_reading_keeps_a_bounded_number_of_numbers(monkeypatch, lp_file):
    # each number is converted within its block of lines, and no number
    # outlives the read
    monkeypatch.setattr(lpformat, "_LINES", 3)
    text = " ".join(f"{k} 1{k} -{k}.5 x{k}" for k in range(20))
    assert _lp_tokens(text) == _oracles._tokenize_lp(text)
    kept = _kept_dict_sizes()
    with open(lp_file, "w") as fh:
        fh.write("Subject To\n" + "".join(f" c{k}: {k}.25 x{k} >= -{k}.5\n"
                                            for k in range(20)) + "End\n")
    model = read_lp(lp_file)
    assert model.vals.tolist() == [k + 0.25 for k in range(20)]
    assert model.rhs.tolist() == [-k - 0.5 for k in range(20)]
    assert _kept_dict_sizes() == kept


# ---------------------------------------------------------------------------
# LP reader over generated files
# ---------------------------------------------------------------------------

SEP = st.sampled_from(["", " ", "  ", "\t", "\n", "\x0b", " \\ note\n"])
NAMES = st.sampled_from(["x", "y", "z1", "x[0][e0.D0]", "__zero__", "inf"])
NUMBERS = st.sampled_from(["0", "1", "2.5", "1e3", ".5", "-0", "+3",
                           "1.5e-7", "0.10000000000000001"])
TOKEN = st.one_of(NAMES, NUMBERS,
                  st.sampled_from(["+", "-", ":", "<=", ">=", "=", "=<"]))


@st.composite
def expressions(draw):
    out = []
    for _ in range(draw(st.integers(0, 4))):
        out += draw(st.lists(st.sampled_from(["+", "-"]), max_size=2))
        out += draw(st.lists(NUMBERS, max_size=1))
        out.append(draw(NAMES))
    return out


@st.composite
def lp_texts(draw):
    """An LP file from rows of the grammar, with now and then a random token,
    and separators that sometimes glue tokens together."""
    def join(tokens):
        return "".join(t + draw(SEP) for t in tokens)

    def maybe_noise(tokens):
        if draw(st.integers(0, 9)) == 0:
            tokens.insert(draw(st.integers(0, len(tokens))), draw(TOKEN))
        return tokens

    objective = maybe_noise(draw(st.sampled_from([[], ["obj", ":"]]))
                            + draw(expressions()))
    rows = []
    for k in range(draw(st.integers(0, 4))):
        label = draw(st.sampled_from([[], [f"c{k}", ":"], [f"c{k}:"]]))
        rhs = draw(st.lists(st.sampled_from(["+", "-"]), max_size=1))
        rows += maybe_noise(label + draw(expressions())
                            + [draw(st.sampled_from(["<=", ">=", "=", "=>"]))]
                            + rhs + [draw(NUMBERS)])
    bounds = draw(st.lists(st.sampled_from(
        ["x <= 4", "0 <= y <= 1", "z1 free", "x >= -inf", "-inf <= z1",
         "y = 3", "- 2 <= x <= + infinity", "x", "y <=", "3 <= ", "inf <= x",
         "1 >= x", "x <=\x0b5"]), max_size=3))
    binaries = draw(st.lists(NAMES, max_size=3))
    return (f"\\ generated\nMinimize\n {join(objective)}\nSubject To\n"
            f"{join(rows)}\nBounds\n" + "\n".join(bounds)
            + "\nBinaries\n" + " ".join(binaries) + "\nEnd\n")


def _read_or_error(read, path):
    try:
        return read(path)
    except LpFormatError:
        return LpFormatError
    except (IndexError, KeyError, ValueError):
        if read in (read_lp, read_mps):
            raise
        return LpFormatError


def _assert_same_parse(ours, ref):
    """Both readers fail, or our arrays equal those of the reference's
    parsed model, in the same first-seen column order and with the same
    float bits."""
    if LpFormatError in (ours, ref):
        assert ours is ref
        return
    _assert_same_arrays(ours, _oracles.parsed_arrays(ref))


def _assert_lp_text_reads_as_reference(text, lp_file):
    with open(lp_file, "w") as fh:
        fh.write(text)
    _assert_same_parse(_read_or_error(read_lp, lp_file),
                       _read_or_error(_oracles.read_lp, lp_file))


@settings(max_examples=300, deadline=None)
@given(text=lp_texts())
def test_lp_reader_matches_reference_on_generated_files(text, lp_file):
    _assert_lp_text_reads_as_reference(text, lp_file)


def test_bound_line_breaks_only_at_newline(lp_file):
    # rows and bound lines alike read \x0b as a blank, not as a line break
    with open(lp_file, "w") as fh:
        fh.write("Minimize\n obj: 1 x\nSubject To\n c1: 1 x >=\x0b1\n"
                 "Bounds\n x <=\x0b5\nEnd\n")
    model = read_lp(lp_file)
    assert list(model.rows) == [(0, {"x": 1.0}, ">=", 1.0)]
    assert (model.lb.tolist(), model.ub.tolist()) == ([0.0], [5.0])


def test_section_header_matched_ignoring_case_names_its_section(lp_file):
    # "\u017ft" matches "st" ignoring case, and so opens the constraints
    with open(lp_file, "w") as fh:
        fh.write("MAXIMIZE\n obj: 2 x\n\u017ft\n c1: 1 x <= 3\nEnd\n")
    model = read_lp(lp_file)
    assert not model.minimize and model.objective == {"x": 2.0}
    assert list(model.rows) == [(0, {"x": 1.0}, "<=", 3.0)]


# ---------------------------------------------------------------------------
# both readers on the golden models
# ---------------------------------------------------------------------------

def _synth20_model():
    synth20 = generate_synthetic(
        SyntheticParams(trips=20, chargers=1, slots_per_charger=2,
                        horizon_start_s=6 * 3600, horizon_end_s=17 * 3600),
        seed=1)
    return toy_setup(synth20, options=ModelOptions(use_strengthening=True))[3]


def _golden_models():
    return _reference_models() + [("synth20", _synth20_model())]


# ---------------------------------------------------------------------------
# MPS reader over generated files
# ---------------------------------------------------------------------------

MPS_NUMBERS = st.sampled_from(["0", "1", "-2.5", "1e3", "-0", ".5",
                               "0.10000000000000001"])
MPS_COLUMNS_NAMES = st.sampled_from(["x", "y", "z1", "x[0][e0.D0]"])
MARKERS = (("    M1 'MARKER' 'INTORG'", "    M2 'MARKER' 'INTEND'"),
           ("    'MARKER' 'INTORG'", "    'MARKER' 'INTEND'"))
NOISE = st.sampled_from(["abc", "nan", "1e999", "'MARKER'", "*", "RANGES",
                         " RHS", "ENDATA", "  Q", "Z BND x 1"])


@st.composite
def mps_texts(draw):
    """An MPS file of the sections the writer emits and more: extra N rows,
    MARKER lines in both spellings, every bound type, RHS lines on the
    objective and on unknown rows, comments and blank lines, and now and
    then a constraint row named twice or a noise token or line."""
    rows = [f"c{k}" for k in range(draw(st.integers(0, 3)))]
    if rows and draw(st.integers(0, 4)) == 4:
        rows.insert(draw(st.integers(0, len(rows))),
                    draw(st.sampled_from(rows)))
    objective = draw(st.sampled_from(["obj", "cost"]))
    free = draw(st.lists(st.sampled_from(["n2", objective, "c0"]),
                         max_size=2))
    row_lines = [f" {draw(st.sampled_from('LGEl'))} {r}" for r in rows]
    for name in [objective] + free:
        row_lines.insert(draw(st.integers(0, len(row_lines))), f" N {name}")
    known = rows + [objective] + free
    entry = st.tuples(st.sampled_from(known + ["zz"]) if draw(
        st.integers(0, 9)) == 0 else st.sampled_from(known), MPS_NUMBERS)
    column_lines = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 3)) == 0:
            column_lines.append(draw(st.sampled_from(MARKERS))[
                draw(st.integers(0, 1))])
        pairs = draw(st.lists(entry, max_size=2))
        column_lines.append("    " + " ".join(
            [draw(MPS_COLUMNS_NAMES)] + [f"{r} {v}" for r, v in pairs]))
    rhs_lines = ["    RHS " + " ".join(f"{r} {v}" for r, v in draw(st.lists(
        st.tuples(st.sampled_from(known + ["zz"]), MPS_NUMBERS),
        min_size=1, max_size=2))) for _ in range(draw(st.integers(0, 2)))]
    bound_lines = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["UP", "LO", "FX", "BV", "MI", "PL",
                                     "UI", "up"]))
        value = ("" if kind in ("BV", "MI", "PL") and draw(st.booleans())
                 else " " + draw(MPS_NUMBERS))
        bound_lines.append(f" {kind} BND {draw(MPS_COLUMNS_NAMES)}{value}")
    lines = (["NAME t", "ROWS"] + row_lines + ["COLUMNS"] + column_lines
             + ["RHS"] + rhs_lines + ["BOUNDS"] + bound_lines)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))),
                     draw(st.sampled_from(["", "* note", "  * indented note",
                                           "   "])))
    if draw(st.integers(0, 9)) == 0:
        k = draw(st.integers(0, len(lines) - 1))
        lines[k] += " " + draw(NOISE)
    return "\n".join(lines + ["ENDATA", ""])


@settings(max_examples=300, deadline=None)
@given(text=mps_texts())
def test_mps_reader_matches_reference_on_generated_files(text, tmp_path_factory):
    path = str(tmp_path_factory.getbasetemp() / "m.mps")
    with open(path, "w") as fh:
        fh.write(text)
    _assert_same_parse(_read_or_error(read_mps, path),
                       _read_or_error(_oracles.read_mps, path))


def _assert_golden_models_read_as_reference(tmp_path, models, relax):
    readers = {"lp": (read_lp, _oracles.read_lp),
               "mps": (read_mps, _oracles.read_mps)}
    for label, model in models:
        for fmt, (ours, reference) in readers.items():
            path = str(tmp_path / f"{label}.{fmt}")
            emit_model(model, fmt, path, relax=relax)
            _assert_same_parse(ours(path), reference(path))


@pytest.mark.parametrize("relax", [False, True])
def test_readers_match_reference_on_golden_models(tmp_path, relax):
    _assert_golden_models_read_as_reference(tmp_path, _golden_models(), relax)


# ---------------------------------------------------------------------------
# a few lines at a time: rows, headers and comments at block edges
# ---------------------------------------------------------------------------

# Read 1, 2 or 3 lines at a time, this file has a section header as the
# first line of a block (Subject To, line 6), a row split across blocks (c1
# on lines 7-8, c2 on lines 9-13, whose rhs sign and number are on lines of
# their own) and a comment at a block edge (line 8, and lines 0 and 19).
BLOCK_EDGES = ("\\ edges\nMaximize\n obj: 2 x + 3\n y\n - z\n + 0 w\n"
               "Subject To\n c1: x + y\n >= 1 \\ at the edge\n c2: - x\n\n"
               " + z <=\n -\n 4 c3:\n 2 y =\n 5\nBounds\n x <= 3\n"
               " 0 <= z <= 2\n\\ between\nBinaries\n y\nEnd\n")


@pytest.mark.parametrize("lines", [1, 2, 3])
def test_readers_match_reference_a_few_lines_at_a_time(lines, monkeypatch,
                                                       tmp_path, lp_file):
    assert BLOCK_EDGES.splitlines().index("Subject To") % lines == 0
    monkeypatch.setattr(lpformat, "_LINES", lines)
    with open(lp_file, "w") as fh:
        fh.write(BLOCK_EDGES)
    model = read_lp(lp_file)
    _assert_same_parse(model, _oracles.read_lp(lp_file))
    assert list(model.rows) == [(0, {"x": 1.0, "y": 1.0}, ">=", 1.0),
                                (1, {"x": -1.0, "z": 1.0}, "<=", -4.0),
                                (2, {"y": 2.0}, "=", 5.0)]
    # synth20 a line at a time takes seconds; the small models cover the
    # edges of one-line blocks
    _assert_golden_models_read_as_reference(
        tmp_path, _golden_models() if lines == 3 else _reference_models(),
        relax=False)

    @settings(max_examples=100, deadline=None)
    @given(text=lp_texts())
    def generated(text):
        _assert_lp_text_reads_as_reference(text, lp_file)

    generated()


# ---------------------------------------------------------------------------
# malformed files
# ---------------------------------------------------------------------------

LP_HEAD = "Minimize\n obj: 1 a\nSubject To\n c1: 1 a >= 1\nBounds\n"
MPS_HEAD = "NAME m\nROWS\n N obj\n G c1\n"
MPS_COLUMNS = "COLUMNS\n    a obj 1 c1 1\n"
MPS_TAIL = "RHS\n    RHS c1 1\nBOUNDS\n UP BND a 4\nENDATA\n"
MALFORMED = {
    "lp-bound-name-alone": ("lp", LP_HEAD + " a\nEnd\n"),
    "lp-bound-no-value": ("lp", LP_HEAD + " a <=\nEnd\n"),
    "mps-row-no-name": ("mps", MPS_HEAD + " L\n" + MPS_COLUMNS + MPS_TAIL),
    "mps-row-type-q": ("mps", MPS_HEAD + " Q c2\n" + MPS_COLUMNS + MPS_TAIL),
    "mps-column-value": ("mps", MPS_HEAD + "COLUMNS\n    a obj 1 c1 abc\n"
                         + MPS_TAIL),
    "mps-bound-no-value": ("mps", MPS_HEAD + MPS_COLUMNS
                           + MPS_TAIL.replace(" UP BND a 4", " UP BND a")),
    "lp-not-text": ("lp", b"Minimize\n obj: \xff\xfe a\nEnd\n"),
    "sniffed-not-text": ("model", b"\xff\xfe"),
    # numbers the formats have no use for
    "mps-nan-coefficient": ("mps", MPS_HEAD + "COLUMNS\n    x obj 1 c1 nan\n"
                            + MPS_TAIL.replace(" a ", " x ")),
    "mps-nan-bound": ("mps", MPS_HEAD + MPS_COLUMNS
                      + MPS_TAIL.replace(" UP BND a 4", " UP BND a nan")),
    "lp-infinite-coefficient": ("lp", "Minimize\n obj: 1 x\nSubject To\n"
                                " c1: 1e999 x + 1 y >= 1\nEnd\n"),
    "lp-infinite-objective": ("lp", "Minimize\n obj: 1e999 x\nEnd\n"),
    "lp-infinite-rhs": ("lp", "Minimize\n obj: 1 x\nSubject To\n"
                        " c1: 1 x + 1 y = 1e999\nEnd\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_model_file_exits_2(tmp_path, case):
    fmt, content = MALFORMED[case]
    path = tmp_path / f"bad.{fmt}"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    with pytest.raises(LpFormatError):
        load_model(str(path))
    src = os.path.dirname(os.path.dirname(os.path.abspath(lpformat.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "ebusopt.refsolver", str(path),
         str(tmp_path / "bad.sol")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "cannot read model" in proc.stderr


@pytest.mark.parametrize("case, where", [
    ("mps-nan-coefficient", "row at position 0, column 'x'"),
    ("lp-infinite-coefficient", "row at position 0, column 'x'"),
    ("lp-infinite-objective", "objective, column 'x'"),
    ("lp-infinite-rhs", "row at position 0: right-hand side"),
    ("mps-nan-bound", "column 'a': bound is NaN")])
def test_non_finite_number_is_named(tmp_path, case, where):
    fmt, content = MALFORMED[case]
    path = tmp_path / f"bad.{fmt}"
    path.write_text(content)
    with pytest.raises(LpFormatError, match=re.escape(where)):
        load_model(str(path))


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

# Peak of the memory tracemalloc sees during one write or read of the synth20
# model, as a multiple of the file's size.  Writers that format a whole file
# at once and readers that keep one dict per row take 4.2x to 9x.
PEAK_OVER_FILE_SIZE = 3.5


def test_readers_and_writers_run_in_bounded_memory(tmp_path):
    arrays = _synth20_model().arrays()
    for fmt, write, read in (("lp", write_lp, read_lp),
                             ("mps", write_mps, read_mps)):
        path = str(tmp_path / f"synth20.{fmt}")
        write(arrays, path)
        read(path)                      # imports outside the measurement
        size = os.path.getsize(path)
        for step in (lambda: write(arrays, path), lambda: read(path)):
            tracemalloc.start()
            try:
                step()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= PEAK_OVER_FILE_SIZE * size, (fmt, step, peak / size)
