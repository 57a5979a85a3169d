"""The model-file readers against the per-position reference readers in
``_oracles``: token lists, parsed models and the failure of malformed files."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import _oracles
from ebusopt import lpformat
from ebusopt.generators import SyntheticParams, generate_synthetic
from ebusopt.lpformat import LpFormatError, read_lp, read_mps
from ebusopt.milp import ModelOptions, emit_model
from ebusopt.refsolver import load_model
from test_milp import _reference_models, toy_setup

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
    for f in (lpformat._tokenize_lp, lpformat._lp_rows,
              lpformat.read_lp.__wrapped__):
        kept += [d for d in f.__defaults__ or () if isinstance(d, dict)]
    return [len(d) for d in kept]


@pytest.fixture(scope="module")
def lp_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("fuzz") / "m.lp")


@settings(max_examples=300, deadline=None)
@given(text=LP_TEXT, other=LP_TEXT)
def test_tokenizer_matches_per_position_reference(text, other, lp_file):
    want = _tokens_or_error(_oracles._tokenize_lp, text)
    assert _tokens_or_error(lpformat._tokenize_lp, text) == want
    # a memo shared with another text hands out the same tokens
    memo = lpformat._ChunkTokens()
    _tokens_or_error(lambda t: lpformat._tokenize_lp(t, memo), other)
    assert _tokens_or_error(lambda t: lpformat._tokenize_lp(t, memo),
                            text) == want
    if want is not LpFormatError:
        assert all(memo[c] == tuple(_oracles._tokenize_lp(c))
                   for c in text.split())
    # the memo lives for one read: nothing the module keeps grows
    kept = _kept_dict_sizes()
    with open(lp_file, "w") as fh:
        fh.write(f"Subject To\n{other}\n{text}\nEnd\n")
    try:
        read_lp(lp_file)
    except LpFormatError:
        pass
    _tokens_or_error(lpformat._tokenize_lp, other + text)
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
    """Equal, in the same first-seen orders and with the same float bits."""
    assert ours == ref
    if ref is LpFormatError:
        return
    for name in ("objective", "rows", "lower", "upper", "variables"):
        assert repr(getattr(ours, name)) == repr(getattr(ref, name)), name


@settings(max_examples=300, deadline=None)
@given(text=lp_texts())
def test_lp_reader_matches_reference_on_generated_files(text, lp_file):
    with open(lp_file, "w") as fh:
        fh.write(text)
    _assert_same_parse(_read_or_error(read_lp, lp_file),
                       _read_or_error(_oracles.read_lp, lp_file))


def test_bound_line_breaks_only_at_newline(lp_file):
    # rows and bound lines alike read \x0b as a blank, not as a line break
    with open(lp_file, "w") as fh:
        fh.write("Minimize\n obj: 1 x\nSubject To\n c1: 1 x >=\x0b1\n"
                 "Bounds\n x <=\x0b5\nEnd\n")
    model = read_lp(lp_file)
    assert model.rows == [("c1", {"x": 1.0}, ">=", 1.0)]
    assert (model.lower["x"], model.upper["x"]) == (0.0, 5.0)


# ---------------------------------------------------------------------------
# both readers on the golden models
# ---------------------------------------------------------------------------

def _golden_models():
    models = _reference_models()
    synth20 = generate_synthetic(
        SyntheticParams(trips=20, chargers=1, slots_per_charger=2,
                        horizon_start_s=6 * 3600, horizon_end_s=17 * 3600),
        seed=1)
    models.append(("synth20", toy_setup(
        synth20, options=ModelOptions(use_strengthening=True))[3]))
    return models


@pytest.mark.parametrize("relax", [False, True])
def test_readers_match_reference_on_golden_models(tmp_path, relax):
    readers = {"lp": (read_lp, _oracles.read_lp),
               "mps": (read_mps, _oracles.read_mps)}
    for label, model in _golden_models():
        for fmt, (ours, reference) in readers.items():
            path = str(tmp_path / f"{label}.{fmt}")
            emit_model(model, fmt, path, relax=relax)
            _assert_same_parse(ours(path), reference(path))


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
