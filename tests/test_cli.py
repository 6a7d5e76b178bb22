import numpy as np
import pytest

from ubss import pipeline
from ubss.cli import main

BASE_CFG = """\
[signal]
chip_len = 10
frame_len = 40
total_len = 1200
n_sources = 3
seed = 7
pulse_orders = 0, 1, 2

[mixing]
matrix = 0.4 0.6 0.3 ; 0.8 0.1 0.5

[run]
overlap_mode = at_most_two
output_dir = {out}
"""


def _write_cfg(tmp_path, text=BASE_CFG, name="exp.cfg", out="out"):
    path = tmp_path / name
    path.write_text(text.format(out=tmp_path / out))
    return str(path)


def test_run_writes_artifacts_and_reports(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["run", cfg]) == 0
    out = capsys.readouterr().out
    assert "sources estimated: 3" in out
    assert "ratios: " in out
    assert "-> source" in out
    assert "wrong-pair samples: " in out
    for name in (pipeline.SOURCES_CSV, pipeline.REPORT_CSV, pipeline.HISTOGRAM_SVG):
        assert (tmp_path / "out" / name).is_file()


def test_stage_chain_matches_run(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["run", cfg]) == 0
    staged = str(tmp_path / "staged")
    for argv in (
        ["generate", cfg, "--out-dir", staged],
        ["mix", cfg, "--out-dir", staged],
        ["estimate", cfg, "--out-dir", staged],
        ["separate", cfg, "--out-dir", staged],
        ["score", cfg, "--out-dir", staged],
    ):
        assert main(argv) == 0, argv
    capsys.readouterr()
    for name in (
        pipeline.SOURCES_CSV,
        pipeline.MIXTURES_CSV,
        pipeline.HISTOGRAM_CSV,
        pipeline.MATRIX_CSV,
        pipeline.SEPARATED_CSV,
        pipeline.REPORT_CSV,
    ):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "staged" / name).read_bytes()


def test_estimate_and_score_print_summaries(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["generate", cfg]) == 0
    assert main(["mix", cfg]) == 0
    assert main(["estimate", cfg]) == 0
    out = capsys.readouterr().out
    assert "sources estimated: 3" in out
    assert "ratios: " in out
    assert main(["separate", cfg]) == 0
    assert main(["score", cfg]) == 0
    out = capsys.readouterr().out
    assert "estimate 1 -> source" in out
    assert "C = " in out


def test_seed_flag_and_env(tmp_path, capsys, monkeypatch):
    cfg = _write_cfg(tmp_path)
    src = pipeline.SOURCES_CSV
    main(["generate", cfg, "--out-dir", str(tmp_path / "d1")])
    main(["generate", cfg, "--seed", "99", "--out-dir", str(tmp_path / "d2")])
    base = (tmp_path / "d1" / src).read_bytes()
    seeded = (tmp_path / "d2" / src).read_bytes()
    assert base != seeded
    monkeypatch.setenv("UBSS_SEED", "99")
    main(["generate", cfg, "--out-dir", str(tmp_path / "d3")])
    assert (tmp_path / "d3" / src).read_bytes() == seeded
    # an explicit flag wins over the environment
    main(["generate", cfg, "--seed", "7", "--out-dir", str(tmp_path / "d4")])
    assert (tmp_path / "d4" / src).read_bytes() == base
    capsys.readouterr()


def test_rejects_malformed_env_seed(tmp_path, capsys, monkeypatch):
    cfg = _write_cfg(tmp_path)
    monkeypatch.setenv("UBSS_SEED", "lots")
    assert main(["generate", cfg]) == 1
    err = capsys.readouterr().err
    assert "UBSS_SEED must be an integer, got 'lots'" in err


def test_flag_validation_errors(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["run", cfg, "--quantum", "-1"]) == 1
    assert "quantum must be positive" in capsys.readouterr().err
    assert main(["run", cfg, "--peak-fraction", "2"]) == 1
    assert "peak_fraction must lie in (0, 1)" in capsys.readouterr().err
    assert main(["run", cfg, "--activity-eps", "0"]) == 1
    assert "activity_eps must be positive" in capsys.readouterr().err


def test_missing_config_reports_error(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.cfg")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ubss run: ")
    assert "cannot read config" in err


def test_single_channel_setup_is_rejected(tmp_path, capsys):
    text = BASE_CFG.replace("n_sources = 3", "n_sources = 1")
    text = text.replace("pulse_orders = 0, 1, 2", "pulse_orders = 0")
    text = text.replace("matrix = 0.4 0.6 0.3 ; 0.8 0.1 0.5", "matrix = 0.5")
    cfg = _write_cfg(tmp_path, text)
    assert main(["run", cfg]) == 1
    assert "estimation requires exactly 2 mixture channels" in capsys.readouterr().err


def test_mix_refuses_the_matrix_run_refuses(tmp_path, capsys):
    text = BASE_CFG.replace("0.4 0.6 0.3 ; 0.8 0.1 0.5", "0.4 0.0 0.3 ; 0.8 0.1 0.5")
    cfg = _write_cfg(tmp_path, text)
    assert main(["run", cfg]) == 1
    run_err = capsys.readouterr().err
    assert "column 1 has a zero first entry" in run_err
    assert main(["generate", cfg]) == 0
    assert main(["mix", cfg]) == 1
    mix_err = capsys.readouterr().err
    assert mix_err.removeprefix("ubss mix: ") == run_err.removeprefix("ubss run: ")
    assert not (tmp_path / "out" / pipeline.MIXTURES_CSV).exists()


def test_degenerate_estimated_matrix_is_rejected(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["generate", cfg]) == 0
    assert main(["mix", cfg]) == 0
    capsys.readouterr()
    matrix = tmp_path / "near_dupe.csv"
    matrix.write_text("ratio\n2.0\n2.0000000000001\n")
    assert main(["separate", cfg, "--matrix", str(matrix)]) == 1
    assert "degenerate pair" in capsys.readouterr().err
    matrix.write_text("ratio\n2.0\n2.0\n")
    assert main(["separate", cfg, "--matrix", str(matrix)]) == 1
    assert "pairwise distinct" in capsys.readouterr().err


def test_out_dir_flag_redirects_everything(tmp_path):
    cfg = _write_cfg(tmp_path)
    other = tmp_path / "elsewhere"
    assert main(["run", cfg, "--out-dir", str(other)]) == 0
    assert (other / pipeline.REPORT_CSV).is_file()
    assert not (tmp_path / "out").exists()


def test_quantum_flag_changes_estimation(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["generate", cfg]) == 0
    assert main(["mix", cfg]) == 0
    capsys.readouterr()
    # a huge quantum folds every ratio into one bin
    assert main(["estimate", cfg, "--quantum", "100.0"]) == 0
    assert "sources estimated: 1" in capsys.readouterr().out


def test_run_output_silent_on_stderr_when_ok(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["run", cfg]) == 0
    assert capsys.readouterr().err == ""
