import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ubss import EstimatedMatrix, SeparationReport, build_histogram
from ubss.csvio import (
    _ratio_decimals,
    export_bar_graph,
    read_estimated_matrix,
    read_signals,
    write_estimated_matrix,
    write_report,
    write_signals,
)

# Row-by-row reference of read_signals(), which parses each distinct row once.


def read_signals_oracle(path) -> np.ndarray:
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    width = len(lines[0].split(","))
    rows = []
    for num, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"{path}: row {num} has {len(parts)} fields, expected {width}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise ValueError(f"{path}: row {num} has a non-numeric field") from None
    if not rows:
        raise ValueError(f"{path}: no data rows")
    x = np.array(rows)
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: row {int(bad[0]) + 2} has a non-finite field")
    return x


def write_signals_oracle(x: np.ndarray) -> str:
    """The file layout: a ch1..chK header, then one row of .17g fields per sample."""
    rows = [",".join(f"ch{k + 1}" for k in range(x.shape[1]))]
    rows += [",".join(f"{v:.17g}" for v in row) for row in x]
    return "\n".join(rows) + "\n"


EDGE_VALUES = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, -1.0, 1.0, -12345.678)
samples = st.one_of(
    st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False)
)
signal_arrays = arrays(
    float, st.tuples(st.integers(1, 40), st.integers(1, 4)), elements=samples
)


def _outcome(read, path):
    """read(path) as the bytes of its result, or the message it raised."""
    try:
        return read(path).tobytes()
    except ValueError as exc:
        return str(exc)


def test_signals_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 3))
    x[0, 0] = 0.1  # not exactly representable, must survive the trip
    x[1, 1] = 1e-300
    x[2, 2] = -12345678.90123456789
    x[3] = [-0.0, 5e-324, 1e308]
    x[4, 0] = 0.0  # column 0 holds both zeros, which must keep their signs
    path = tmp_path / "signals.csv"
    write_signals(path, x)
    assert path.read_text() == write_signals_oracle(x)
    back = read_signals(path)
    assert back.shape == x.shape
    assert back.tobytes() == x.tobytes()
    assert back.flags.f_contiguous  # column-major, like the signals the core builds


def test_signals_header_and_layout(tmp_path):
    path = tmp_path / "signals.csv"
    write_signals(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    lines = path.read_text().splitlines()
    assert lines[0] == "ch1,ch2"
    assert lines[1] == "1,2"
    assert len(lines) == 3


def test_write_signals_rejects_non_2d(tmp_path):
    with pytest.raises(ValueError, match="signals must be 2-D"):
        write_signals(tmp_path / "x.csv", np.ones(4))


@pytest.mark.parametrize("shape", [(3, 0), (0, 2), (0, 0)])
def test_write_signals_refuses_what_read_signals_refuses(tmp_path, shape):
    # no columns would write blank rows and no rows a header alone: neither reads back
    path = tmp_path / "x.csv"
    message = f"at least one row and one column, got shape {shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        write_signals(path, np.zeros(shape))
    assert not path.exists()


def test_read_signals_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        read_signals(path)
    path.write_text("ch1,ch2\n")
    with pytest.raises(ValueError, match="no data rows"):
        read_signals(path)
    path.write_text("ch1,ch2\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="row 3 has 1 fields, expected 2"):
        read_signals(path)
    path.write_text("ch1,ch2\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(ValueError, match="row 3 has a non-numeric field"):
        read_signals(path)
    for field in ("nan", "inf", "-inf"):
        path.write_text(f"ch1,ch2\n1.0,2.0\n{field},1.0\n")
        with pytest.raises(ValueError, match="row 3 has a non-finite field"):
            read_signals(path)


def test_read_signals_first_bad_row_wins(tmp_path):
    path = tmp_path / "bad.csv"
    good = "1.5,-2,0.25\n"
    for row, message in (
        ("1.5,x,0.25", "row 1500 has a non-numeric field"),
        ("1.5,nan,0.25", "row 1500 has a non-finite field"),
        ("1.5,0.25", "row 1500 has 2 fields, expected 3"),
    ):
        # the header and 1498 good rows put the bad one on line 1500
        path.write_text("ch1,ch2,ch3\n" + good * 1498 + row + "\n" + good * 10)
        with pytest.raises(ValueError, match=message):
            read_signals(path)
    # too many fields then too few: the field total is right, the rows are not
    path.write_text("ch1,ch2\n1,2\n1,2,3\n4\n")
    with pytest.raises(ValueError, match="row 3 has 3 fields, expected 2"):
        read_signals(path)
    path.write_text("ch1,ch2\n1,2\nx,2\n3\n")
    with pytest.raises(ValueError, match="row 3 has a non-numeric field"):
        read_signals(path)
    path.write_text("ch1,ch2\n1,2\n3\nx,2\n")
    with pytest.raises(ValueError, match="row 3 has 1 fields, expected 2"):
        read_signals(path)
    path.write_text("ch1,ch2\n1,2\n2,y\nx,2\n")  # by position, not by sorted text
    with pytest.raises(ValueError, match="row 3 has a non-numeric field"):
        read_signals(path)
    path.write_text("ch1,ch2\n1,2\nnan,2\nx,2\n")  # non-finite is checked last
    with pytest.raises(ValueError, match="row 4 has a non-numeric field"):
        read_signals(path)
    # a bad line that repeats is reported at its first occurrence
    for row, message in (
        ("3", "row 4 has 1 fields, expected 2"),
        ("x,2", "row 4 has a non-numeric field"),
        ("inf,2", "row 4 has a non-finite field"),
    ):
        path.write_text("ch1,ch2\n1,2\n1,2\n" + f"{row}\n1,2\n" * 3)
        with pytest.raises(ValueError, match=message):
            read_signals(path)


def test_read_signals_blank_lines_and_padding(tmp_path):
    path = tmp_path / "signals.csv"
    path.write_text("ch1,ch2\n1,2\n\n3,4\n")
    with pytest.raises(ValueError, match="row 3 has 1 fields, expected 2"):
        read_signals(path)
    path.write_text("ch1\n1\n\n2\n")
    with pytest.raises(ValueError, match="row 3 has a non-numeric field"):
        read_signals(path)
    path.write_text("ch1,ch2\n 1.5 ,\t-2\n3, 4e-1\n")
    assert np.array_equal(read_signals(path), [[1.5, -2.0], [3.0, 0.4]])


@settings(max_examples=60, deadline=None)
@given(x=signal_arrays)
def test_signals_match_the_row_by_row_oracles(tmp_path_factory, x):
    path = tmp_path_factory.mktemp("csv") / "signals.csv"
    write_signals(path, x)
    assert path.read_text() == write_signals_oracle(x)
    assert read_signals(path).tobytes() == read_signals_oracle(path).tobytes() == x.tobytes()


@settings(max_examples=60, deadline=None)
@given(x=signal_arrays)
def test_write_signals_gives_the_same_bytes_for_row_and_column_major_signals(tmp_path_factory, x):
    paths = tmp_path_factory.mktemp("csv") / "c.csv", tmp_path_factory.mktemp("csv") / "f.csv"
    write_signals(paths[0], np.ascontiguousarray(x))
    write_signals(paths[1], np.asfortranarray(x))
    assert paths[1].read_bytes() == paths[0].read_bytes()


repeated_rows = st.integers(1, 4).flatmap(
    lambda width: st.tuples(
        arrays(float, st.tuples(st.integers(0, 3), st.just(width)), elements=samples),
        st.lists(st.sampled_from((0.0, -0.0)), min_size=width, max_size=width),
        st.integers(0, width - 1),
        st.lists(st.integers(0, 5), min_size=1, max_size=60),
    )
)


@settings(max_examples=100, deadline=None)
@given(drawn=repeated_rows)
def test_signals_of_repeated_rows_match_the_row_by_row_oracles(tmp_path_factory, drawn):
    # most rows repeat one of a pool of 3-6: two differ only in the signs of
    # zeros, and the last differs from the first only in the last bit of one column
    rows, zeros, column, picks = drawn
    pool = np.vstack([rows, zeros, np.negative(zeros)])
    near = pool[:1].copy()
    near.view(np.int64)[0, column] ^= 1
    pool = np.vstack([pool, near])
    x = pool[np.array(picks) % len(pool)]
    for signals in (x, np.asfortranarray(x)):
        path = tmp_path_factory.mktemp("csv") / "signals.csv"
        write_signals(path, signals)
        assert path.read_bytes() == write_signals_oracle(x).encode()
        assert read_signals(path).tobytes() == read_signals_oracle(path).tobytes() == x.tobytes()


FIELDS = ("1", "-0.0", "0.0", " 2.5 ", "5e-324", "1e308", "1_0", "nan", "-inf", "y", "x", "", "3,4")


@st.composite
def csv_texts(draw):
    """A header and rows of mostly the header's width, numeric or not."""
    width = draw(st.integers(1, 3))
    field = st.sampled_from(FIELDS)
    row = st.one_of(
        st.lists(field, min_size=width, max_size=width), st.lists(field, min_size=1, max_size=4)
    )
    rows = draw(st.lists(row, max_size=8))
    header = ",".join(f"ch{k + 1}" for k in range(width))
    return "\n".join([header, *(",".join(r) for r in rows)]) + "\n"


@settings(max_examples=300, deadline=None)
@given(text=csv_texts())
def test_read_signals_matches_the_oracle_on_any_text(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "signals.csv"
    path.write_text(text)
    assert _outcome(read_signals, path) == _outcome(read_signals_oracle, path)


@settings(max_examples=100, deadline=None)
@given(text=csv_texts())
def test_read_signals_of_crlf_rows_matches_the_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("csv") / "signals.csv"
    path.write_bytes(text.replace("\n", "\r\n").encode())
    assert _outcome(read_signals, path) == _outcome(read_signals_oracle, path)


def test_crlf_rows_read_to_the_bits_of_their_lf_twin(tmp_path):
    x = np.random.default_rng(2).normal(size=(30, 3))
    x[::3] = [0.0, -0.0, 5e-324]  # repeated rows, as in a sparse signal
    lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
    write_signals(lf, x)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert read_signals(crlf).tobytes() == read_signals(lf).tobytes() == x.tobytes()


def test_a_last_row_without_a_newline_reads_like_the_oracle(tmp_path):
    path = tmp_path / "signals.csv"
    for text in ("ch1,ch2\n1,2\n-0.0,4", "ch1,ch2\r\n1,2\r\n-0.0,4"):
        path.write_bytes(text.encode())
        assert read_signals(path).tobytes() == read_signals_oracle(path).tobytes()
        assert read_signals(path).tobytes() == np.array([[1.0, 2.0], [-0.0, 4.0]]).tobytes()
    path.write_bytes(b"ch1,ch2\n1,2\n3")
    with pytest.raises(ValueError, match="row 3 has 1 fields, expected 2"):
        read_signals(path)


NOT_A_SIGNAL_CSV = "not a signal CSV: expected ASCII text with rows ending in \\n or \\r\\n"


@pytest.mark.parametrize("data", [
    "ch1,ch2\n1,\u0662\n".encode(),  # ARABIC-INDIC DIGIT TWO, which float(str) reads as 2
    "ch1,ch2\n1,\u00a02\n".encode(),  # a no-break space, which float(str) strips
    "ch1,ch2\n1,2\n".encode("utf-8-sig"),  # a byte-order mark
    b"ch1,ch2\n1,2\xe9\n",  # a Latin-1 byte, not UTF-8
], ids=["unicode-digit", "no-break-space", "bom", "latin-1"])
def test_read_signals_refuses_text_that_is_not_ascii(tmp_path, data):
    path = tmp_path / "signals.csv"
    path.write_bytes(data)
    with pytest.raises(ValueError, match=re.escape(f"{path}: {NOT_A_SIGNAL_CSV}")):
        read_signals(path)


@pytest.mark.parametrize("brk", ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e"])
def test_read_signals_refuses_a_line_break_other_than_lf_and_crlf(tmp_path, brk):
    # str.splitlines breaks rows at each of these; splitting on \n would not
    path = tmp_path / "signals.csv"
    for text in (f"ch1,ch2{brk}1,2{brk}3,4{brk}", f"ch1,ch2\n1,{brk}2\n3,4\n",
                 f"ch1,ch2\r\n1,2\r\n3,4{brk}"):
        path.write_bytes(text.encode())
        with pytest.raises(ValueError, match=re.escape(NOT_A_SIGNAL_CSV)):
            read_signals(path)


def test_estimated_matrix_round_trip(tmp_path):
    est = EstimatedMatrix(ratios=(2.0, 1.0 / 3.0, -0.5))
    path = tmp_path / "matrix.csv"
    write_estimated_matrix(path, est)
    lines = path.read_text().splitlines()
    assert lines[0] == "ratio"
    assert len(lines) == 4
    back = read_estimated_matrix(path)
    assert np.array_equal(back.ratios, est.ratios)


def test_read_estimated_matrix_errors(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_text("slope\n2.0\n")
    with pytest.raises(ValueError, match="expected a 'ratio' header"):
        read_estimated_matrix(path)
    path.write_text("ratio\n2.0\nx\n")
    with pytest.raises(ValueError, match="row 3 has a non-numeric ratio"):
        read_estimated_matrix(path)
    path.write_text("ratio\n2.0\n2.0\n")
    with pytest.raises(ValueError, match="pairwise distinct"):
        read_estimated_matrix(path)


@pytest.mark.parametrize("data", [
    b"ratio\n0.5\xe9\n2.0\n",  # not UTF-8: once a decode error that named no file
    "ratio\r0.5\r\u0662\r".encode(),  # lone \r and an Arabic-Indic two: once read as [0.5, 2.0]
], ids=["latin-1", "cr-and-arabic-indic-digit"])
def test_read_estimated_matrix_refuses_what_read_signals_refuses(tmp_path, data):
    path = tmp_path / "matrix.csv"
    path.write_bytes(data)
    message = NOT_A_SIGNAL_CSV.replace("signal", "ratio")
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        read_estimated_matrix(path)


def test_read_estimated_matrix_reads_crlf_rows_and_refuses_non_finite_ratios(tmp_path):
    path = tmp_path / "matrix.csv"
    path.write_bytes(b"ratio\r\n2.0\r\n-0.5\r\n")
    assert read_estimated_matrix(path).ratios.tolist() == [2.0, -0.5]
    for text, message in (("ratio\n2.0\nnan\n", "row 3 has a non-finite ratio"),
                          ("ratio\n", "no data rows"),
                          ("ratio\n2.0,1.0\n", "row 2 has 2 fields, expected 1")):
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
            read_estimated_matrix(path)


def test_write_report_skips_unmatched(tmp_path):
    report = SeparationReport(
        permutation=[2, None, 0],
        coefficients=[0.75, -0.5],
        n_sources_estimated=3,
        n_sources_true=3,
    )
    path = tmp_path / "report.csv"
    write_report(path, report)
    assert path.read_text() == "estimate_idx,true_idx,correlation\n0,2,0.75\n2,0,-0.5\n"


def test_export_bar_graph_format(tmp_path):
    hist = build_histogram(np.array([1.8, 1.8, 0.5]), 1e-4)
    path = tmp_path / "hist.csv"
    export_bar_graph(hist, path)
    assert path.read_text() == "ratio,count\n0.5000,1\n1.8000,2\n"
    # below 1e-4 the decimals grow so that neighbouring bins print apart
    export_bar_graph(build_histogram(np.array([0.03, 0.03003, 0.03003]), 3e-5), path)
    assert path.read_text() == "ratio,count\n0.03000,1\n0.03003,2\n"


def test_ratio_decimals_is_the_least_d_from_4_with_a_step_within_the_quantum():
    for quantum, d in ((100.0, 4), (1e-4, 4), (9.99e-5, 5), (3e-5, 5), (1e-5, 5), (1e-6, 6),
                       (1e-15, 15), (5e-324, 324)):
        assert _ratio_decimals(quantum) == d, quantum
