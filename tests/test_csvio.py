import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ubss import EstimatedMatrix, SeparationReport
from ubss.csvio import (
    read_estimated_matrix,
    read_signals,
    write_estimated_matrix,
    write_report,
    write_signals,
)

# Row-by-row reference of read_signals(), which parses each distinct field once.


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
