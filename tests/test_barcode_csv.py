"""read_barcode_csv against the row-by-row reference parser.

The reader parses a barcode CSV in one numpy pass and falls back to a
row-by-row parse when numpy refuses a row or a bar is invalid. Whatever
path a file takes, the bars, eps_max and error messages must be the
reference parser's.
"""

import math

import pytest

from oracles import read_barcode_rows
from phom import InputError, persistence, read_barcode_csv

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


def canonical(dims, births, deaths, eps_max):
    """Bars in (dim, birth, death) order, floats by repr so that -0.0 and
    0.0 differ, and eps_max."""
    bars = sorted(zip(dims, births, deaths))
    return [(d, repr(b), repr(e)) for d, b, e in bars], repr(eps_max)


def package_outcome(path):
    try:
        b = read_barcode_csv(path)
    except InputError as exc:
        return "error", str(exc)
    assert (b.dims.dtype, b.births.dtype, b.deaths.dtype) == ("int64", "float64", "float64")
    assert isinstance(b.eps_max, float)
    return canonical(b.dims.tolist(), b.births.tolist(), b.deaths.tolist(), b.eps_max)


def reference_outcome(path):
    try:
        return canonical(*read_barcode_rows(path))
    except ValueError as exc:
        return "error", str(exc)


@pytest.mark.parametrize(
    "body",
    [
        "",
        "\n\n",
        "  \n\t\n",
        "0,0,inf\n1,0.5,0.75\n",
        "0,0,inf\r\n1,0.5,0.75\r\n",
        "0,0,inf\r1,0.5,0.75\r",
        "0,0,1",
        "0,0,1\n\n1,0.25,Infinity\n",
        "0,0,1\n   \n1,0.25,INF\n",
        " 0 , 0.5 ,\t1\n+1,1e-3,2E0\n",
        "#0,0,1\n",
        "0,0,1\n# a comment\n",
        "0,nan,1\n",
        "0,0,nan\n",
        "0,-inf,1\n",
        "0,0,-inf\n",
        "0,1e400,inf\n",
        "0,2,1\n",
        "-1,0,1\n",
        "-0,-0.0,0.0\n",
        "0,-0.0,-0.0\n",
        "0,-2,-1\n",
        "1_0,0,1\n",
        "1,0_5,1\n",
        "1.0,0,1\n",
        "0,0\n",
        "0,0,1,\n",
        "0,0,1\n0,0\n",
        "x,0,1\n",
        "0,,1\n",
        "0,0,1\x0c\n",
        "0,0,1\x0c1,0,2\n",
    ],
)
def test_reader_traps(tmp_path, body):
    # comments, NaN, -inf, underscores, float dims, ragged rows, blank
    # lines with spaces, every line ending and a -0.0 eps_max (read as
    # 0.0) come out as the row parser's
    path = tmp_path / "bars.csv"
    path.write_bytes(("dim,birth,death\n" + body).encode())
    assert package_outcome(path) == reference_outcome(path)


@pytest.mark.parametrize("header", ["", "dim,birth", "dim, birth,death", "#dim,birth,death"])
def test_reader_header(tmp_path, header):
    path = tmp_path / "bars.csv"
    path.write_bytes(f"{header}\n0,0,1\n".encode())
    outcome = package_outcome(path)
    assert outcome == reference_outcome(path)
    assert outcome[0] == "error"


def test_clean_file_takes_one_numpy_pass(tmp_path, monkeypatch):
    path = tmp_path / "bars.csv"
    path.write_bytes(b"dim,birth,death\r\n0,0,inf\r\n0,0.125,0.5\r\n1,0.25,0.5\r\n")
    want = package_outcome(path)

    def refuse(path, fh):
        raise AssertionError("row-by-row parse of a clean file")

    monkeypatch.setattr(persistence, "_parse_rows", refuse)
    assert package_outcome(path) == want == reference_outcome(path)


def test_undecodable_text_after_a_bad_row(tmp_path):
    # the row parse reaches the bad row before the decoder reaches the bad
    # bytes, so the error names the row, as it always has
    path = tmp_path / "bars.csv"
    path.write_bytes(b"dim,birth,death\n0,2,1\n" + b"0,0,1\n" * 4000 + b"\xff\n")
    assert package_outcome(path) == reference_outcome(path)
    path.write_bytes(b"dim,birth,death\n\xff\n")
    for read in (read_barcode_csv, read_barcode_rows):
        with pytest.raises(UnicodeDecodeError):
            read(path)


FINITE = st.floats(-1e3, 1e3, allow_nan=False)
PAD = st.sampled_from(["", "", " ", "\t", "  "])


@st.composite
def number_text(draw, x):
    if math.isinf(x) or math.isnan(x):
        return draw(st.sampled_from([repr(x), str(x).upper(), "Infinity" if x > 0 else repr(x)]))
    form = draw(st.sampled_from([repr, "{:.9g}".format, "{:e}".format, "{:.3f}".format]))
    return form(x)


@st.composite
def bar_line(draw, valid):
    """A row of a bar: a valid one, or one that may break any rule."""
    if valid:
        dim = draw(st.integers(0, 3))
        dim_forms = [str(dim), f"+{dim}", f"0{dim}"]
        birth = draw(FINITE)
        kinds = ["after", "after", "equal", "inf"]
    else:
        dim = draw(st.integers(-1, 3))
        dim_forms = [str(dim), f"{dim}.0", f"{dim}_0"]
        birth = draw(st.one_of(FINITE, st.sampled_from([math.inf, -math.inf, math.nan])))
        kinds = ["after", "before", "inf", "-inf", "nan"]
    kind = draw(st.sampled_from(kinds))
    gap = draw(st.floats(0.0, 10.0))
    death = {"after": birth + gap, "before": birth - gap, "equal": birth}.get(kind, kind)
    fields = [draw(st.sampled_from(dim_forms)), draw(number_text(birth))]
    fields.append(draw(number_text(float(death))))
    return ",".join(draw(PAD) + f + draw(PAD) for f in fields)


# a clean file is valid bars and empty lines, with LF or CRLF endings
CLEAN = st.tuples(
    st.one_of(bar_line(True), bar_line(True), bar_line(True), st.just("")),
    st.sampled_from(["\n", "\r\n"]),
)
# a quirky one adds what the row parser accepts and numpy refuses: lines
# of spaces, lone CR endings and underscores in numbers
QUIRKY = st.tuples(
    st.one_of(
        bar_line(True),
        bar_line(True),
        st.sampled_from([" ", "\t", "\x0c", "1_0,0,1", "0,1_0.5,2_0"]),
    ),
    st.sampled_from(["\n", "\r\n", "\r"]),
)
# a noisy one may hold anything the row parser skips or refuses
NOISY = st.tuples(
    st.one_of(
        bar_line(True),
        bar_line(True),
        bar_line(False),
        st.sampled_from(["", " ", "\t", "\x0c", "#", "0,0", "0,0,1,"]),
        st.text("0123456789+-._eEinfINFatyn #x,", max_size=10),
    ),
    st.sampled_from(["\n", "\n", "\r\n", "\r"]),
)


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "bars.csv"


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    header=st.sampled_from(["dim,birth,death"] * 8 + ["dim,birth,death ", "dim,birth"]),
    lines=st.one_of(
        st.lists(CLEAN, max_size=12), st.lists(QUIRKY, max_size=8), st.lists(NOISY, max_size=8)
    ),
    last_newline=st.booleans(),
)
def test_reader_matches_row_parser(csv_path, header, lines, last_newline):
    text = header + "\n" + "".join(line + end for line, end in lines)
    if lines and not last_newline:
        text = text[: -len(lines[-1][1])]
    csv_path.write_bytes(text.encode())
    assert package_outcome(csv_path) == reference_outcome(csv_path)
