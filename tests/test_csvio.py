import numpy as np
import pytest

from ubss import EstimatedMatrix, SeparationReport
from ubss.csvio import (
    read_estimated_matrix,
    read_signals,
    write_estimated_matrix,
    write_report,
    write_signals,
)


def test_signals_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(50, 3))
    x[0, 0] = 0.1  # not exactly representable, must survive the trip
    x[1, 1] = 1e-300
    x[2, 2] = -12345678.90123456789
    x[3] = [-0.0, 5e-324, 1e308]
    path = tmp_path / "signals.csv"
    write_signals(path, x)
    # the row-by-row formatting the file layout is defined by
    rows = ["ch1,ch2,ch3"] + [",".join(f"{v:.17g}" for v in row) for row in x]
    assert path.read_text() == "\n".join(rows) + "\n"
    back = read_signals(path)
    assert back.shape == x.shape
    assert np.array_equal(back, x)


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
