import argparse
from pathlib import Path

import numpy as np
import pytest

from ubss import cli, pipeline
from ubss.cli import build_parser, main
from ubss.config import default_activity_eps

ROOT = Path(__file__).resolve().parent.parent
# the environment variable that used to override the config seed
SEED_VAR = build_parser().prog.upper() + "_SEED"

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


def test_score_prints_the_lines_run_prints(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["run", cfg]) == 0
    run_lines = capsys.readouterr().out.splitlines()
    assert main(["score", cfg]) == 0
    assert capsys.readouterr().out.splitlines() == [s for s in run_lines if s.startswith("  ")]
    # a fourth estimate matches no source, and score says so as run does
    matrix = tmp_path / "four.csv"
    matrix.write_text("ratio\n2.0\n0.1667\n1.6667\n-3.0\n")
    assert main(["separate", cfg, "--matrix", str(matrix)]) == 0
    assert main(["score", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4
    assert sum(s.endswith(": unmatched") for s in out) == 1
    assert all(s.startswith("  estimate ") for s in out)


def test_readme_run_sample_is_real_output(tmp_path, capsys):
    readme = (ROOT / "README.md").read_text()
    intro = "`run` executes the full pipeline and prints a summary:\n\n```\n"
    sample = readme[readme.index(intro) + len(intro):].split("```", 1)[0]
    cfg = str(ROOT / "configs" / "experiment1.cfg")
    assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == sample


def test_seed_flag_and_env(tmp_path, capsys, monkeypatch):
    # --seed is the one override of the config seed; the environment is not read
    cfg = _write_cfg(tmp_path)
    src = pipeline.SOURCES_CSV
    main(["generate", cfg, "--out-dir", str(tmp_path / "d1")])
    main(["generate", cfg, "--seed", "99", "--out-dir", str(tmp_path / "d2")])
    base = (tmp_path / "d1" / src).read_bytes()
    seeded = (tmp_path / "d2" / src).read_bytes()
    assert base != seeded
    monkeypatch.setenv(SEED_VAR, "99")
    main(["generate", cfg, "--out-dir", str(tmp_path / "d3")])
    assert (tmp_path / "d3" / src).read_bytes() == base
    main(["generate", cfg, "--seed", "99", "--out-dir", str(tmp_path / "d4")])
    assert (tmp_path / "d4" / src).read_bytes() == seeded
    main(["generate", cfg, "--seed", "7", "--out-dir", str(tmp_path / "d5")])
    assert (tmp_path / "d5" / src).read_bytes() == base
    capsys.readouterr()


def test_env_seed_is_ignored(tmp_path, capsys, monkeypatch):
    cfg = _write_cfg(tmp_path)
    assert main(["generate", cfg, "--out-dir", str(tmp_path / "plain")]) == 0
    plain = sorted((tmp_path / "plain").iterdir())
    for value in ("lots", "5"):
        monkeypatch.setenv(SEED_VAR, value)
        assert main(["generate", cfg, "--out-dir", str(tmp_path / value)]) == 0
        assert [p.name for p in sorted((tmp_path / value).iterdir())] == [p.name for p in plain]
        for p in plain:
            assert (tmp_path / value / p.name).read_bytes() == p.read_bytes(), (value, p.name)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("seed", ["1026", "1953"])
def test_run_names_the_column_count_when_estimation_finds_one(tmp_path, capsys, seed):
    # on these seeds only source 2 ever fires alone, so one histogram mode is found
    cfg = str(ROOT / "configs" / "experiment1.cfg")
    assert main(["run", cfg, "--seed", seed, "--out-dir", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    assert captured.err == "ubss run: separation needs at least 2 estimated columns, got 1\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_flag_validation_errors(tmp_path, capsys):
    # the estimation settings have no flags: they are [estimation] keys of the
    # config file, and the file's values are checked at load like every other
    cfg = _write_cfg(tmp_path)
    for command in COMMANDS:
        for flag in ("--quantum", "--peak-fraction", "--activity-eps"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, cfg, flag, "1e-3"])
            assert exit_info.value.code == 2, (command, flag)
            assert f"unrecognized arguments: {flag} 1e-3" in capsys.readouterr().err
    # --seed reseeds the sources, so only the commands that draw them take it
    for command in ("mix", "estimate", "separate", "score"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, cfg, "--seed", "3"])
        assert exit_info.value.code == 2, command
        assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exit_info:
        main(["run", cfg, "--seed", "many"])
    assert exit_info.value.code == 2
    assert "argument --seed: invalid int value: 'many'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


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
    for command in ("generate", "mix"):
        assert main([command, cfg]) == 1
        err = capsys.readouterr().err
        assert err.removeprefix(f"ubss {command}: ") == run_err.removeprefix("ubss run: ")
    assert not (tmp_path / "out").exists()


COMMANDS = ("run", "generate", "mix", "estimate", "separate", "score")


MATRIX = "0.4 0.6 0.3 ; 0.8 0.1 0.5"


@pytest.mark.parametrize(
    "line, replacement, message",
    [
        (MATRIX, "0.4 0.0 0.3 ; 0.8 0.1 0.5",
         "[mixing] matrix: column 1 has a zero first entry; ratio estimation needs a[0,:] != 0"),
        (MATRIX, "0.4 0.6 0.3 ; 0.8 0.1 0.5 ; 0.2 0.9 0.7",
         "[mixing] matrix: estimation requires exactly 2 mixture channels, got 3"),
        (MATRIX, "0.4 0.6 0.3 0.9 ; 0.8 0.1 0.5 0.2",
         "[mixing] matrix has 4 columns for 3 sources"),
        # at_most_two with 3 sources on 3 chips per frame
        ("frame_len = 40", "frame_len = 30",
         "[signal]: at_most_two needs at least 4 chips per frame, got 3"),
        (MATRIX, MATRIX + "\nseed = 5", "config {cfg} has unknown entries: [mixing] seed"),
        (MATRIX, "random",
         "[mixing] matrix: matrix row 1: could not convert string to float: 'random'"),
        (f"[mixing]\nmatrix = {MATRIX}\n\n", "", "config {cfg} is missing the [mixing] section"),
        ("[run]", "[estimation]\nquantum = inf\n\n[run]",
         "quantum must be positive and finite, got inf"),
        ("[run]", "[estimation]\nactivity_eps = inf\n\n[run]",
         "activity_eps must be positive and finite, got inf"),
        ("overlap_mode = at_most_two", "overlap_mode = sometimes",
         "[run] overlap_mode = 'sometimes':"
         " overlap_mode must be one of at_most_two, allow_three, got 'sometimes'"),
        # an order-1 pulse one sample wide samples only its zero crossing
        ("chip_len = 10\nframe_len = 40", "chip_len = 1\nframe_len = 4",
         "[signal]: degenerate pulse: order 1 at width 1 is identically zero"),
    ],
    ids=["zero-first-row", "three-rows", "column-count", "at-most-two-chips", "mixing-seed",
         "random-matrix", "no-mixing-section", "infinite-quantum", "infinite-activity-eps",
         "overlap-mode", "degenerate-pulse"],
)
def test_every_command_refuses_the_config_at_load(tmp_path, capsys, line, replacement, message):
    text = BASE_CFG.replace(line, replacement)
    assert text != BASE_CFG
    cfg = _write_cfg(tmp_path, text)
    for command in COMMANDS:
        assert main([command, cfg]) == 1, command
        err = capsys.readouterr().err
        assert err.startswith(f"ubss {command}: ")
        assert err.removeprefix(f"ubss {command}: ") == message.format(cfg=cfg) + "\n", command
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_degenerate_estimated_matrix_is_rejected(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["generate", cfg]) == 0
    assert main(["mix", cfg]) == 0
    capsys.readouterr()
    matrix = tmp_path / "near_dupe.csv"
    # refused when the file is read, before any sample is separated
    for text in ("ratio\n2.0\n2.0000000000001\n", "ratio\n2.0\n2.0\n", "ratio\n-3\n2\n2\n"):
        matrix.write_text(text)
        assert main(["separate", cfg, "--matrix", str(matrix)]) == 1
        assert capsys.readouterr().err == (
            f"ubss separate: {matrix}: estimated ratios must be pairwise distinct by 1e-12\n")
    assert not (tmp_path / "out" / "separated.csv").exists()


def test_run_and_mix_refuse_mixtures_that_overflow(tmp_path, capsys):
    # finite sources and a finite matrix whose product overflows to inf where
    # two sources share a sample
    huge = "matrix = 1.7e308 1.7e308 1.7e308 ; 1.7e308 -1.7e308 1"
    cfg = _write_cfg(tmp_path, BASE_CFG.replace("matrix = 0.4 0.6 0.3 ; 0.8 0.1 0.5", huge))
    assert main(["run", cfg]) == 1
    run_err = capsys.readouterr().err
    assert main(["generate", cfg]) == 0
    assert main(["mix", cfg]) == 1
    mix_err = capsys.readouterr().err
    assert run_err == "ubss run: mixtures row 14 holds NaN or inf\n"
    assert mix_err == "ubss mix: mixtures row 14 holds NaN or inf\n"
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        pipeline.SOURCES_CSV, pipeline.SOURCES_SVG]


def test_out_dir_flag_redirects_everything(tmp_path):
    cfg = _write_cfg(tmp_path)
    other = tmp_path / "elsewhere"
    assert main(["run", cfg, "--out-dir", str(other)]) == 0
    assert (other / pipeline.REPORT_CSV).is_file()
    assert not (tmp_path / "out").exists()


def test_quantum_key_changes_estimation(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["generate", cfg]) == 0
    assert main(["mix", cfg]) == 0
    assert main(["estimate", cfg]) == 0
    assert "sources estimated: 3" in capsys.readouterr().out
    # a huge quantum folds every ratio into one bin
    text = BASE_CFG.replace("[run]", "[estimation]\nquantum = 100.0\n\n[run]")
    coarse = _write_cfg(tmp_path, text, name="coarse.cfg")
    assert main(["estimate", coarse]) == 0
    assert "sources estimated: 1" in capsys.readouterr().out


def test_run_output_silent_on_stderr_when_ok(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    assert main(["run", cfg]) == 0
    assert capsys.readouterr().err == ""


def test_run_refuses_a_ratio_too_large_to_quantize(tmp_path, capsys):
    # column 0's true ratio is 1e16, 1e20 quanta: cast to int64 it would wrap
    # to a wrong-signed estimate
    text = BASE_CFG.replace(MATRIX, "1e-16 0.6 0.3 ; 1 0.1 0.5")
    cfg = _write_cfg(tmp_path, text.replace("[run]", "[estimation]\nactivity_eps = 1e-20\n\n[run]"))
    assert main(["generate", cfg]) == 0 and main(["mix", cfg]) == 0
    for command in ("run", "estimate"):
        assert main([command, cfg]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ubss {command}: ratio ")
        assert "is too large for quantum 0.0001" in err


# the flags of each subcommand: --out-dir everywhere, --seed where sources are
# drawn, and the CSVs the command reads; the estimation settings are file keys
FLAGS = {
    "run": {"--seed", "--out-dir"},
    "generate": {"--seed", "--out-dir"},
    "mix": {"--sources", "--out-dir"},
    "estimate": {"--mixtures", "--out-dir"},
    "separate": {"--mixtures", "--matrix", "--out-dir"},
    "score": {"--sources", "--separated", "--out-dir"},
}


def test_each_subcommand_takes_exactly_its_flags(capsys):
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(subparsers.choices) == set(FLAGS)
    assert sum(len(flags) for flags in FLAGS.values()) == 14
    for command, sub in subparsers.choices.items():
        flags = {s for a in sub._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == FLAGS[command], command
        positionals = [a.dest for a in sub._actions if not a.option_strings]
        assert positionals == ["config"], command
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: ubss {command} ")
        assert f"    ubss {command} CONFIG " in cli.__doc__, command


def test_separate_refuses_a_solve_that_overflows(tmp_path, capsys):
    # two ratios whose gap is past the largest float: the solve used to divide
    # every sample by inf and write an all-zero separated.csv
    cfg = str(ROOT / "configs" / "experiment1.cfg")
    out = tmp_path / "out"
    for command in ("generate", "mix"):
        assert main([command, cfg, "--out-dir", str(out)]) == 0
    matrix = tmp_path / "m.csv"
    matrix.write_text("ratio\n1e308\n-1e308\n")
    capsys.readouterr()
    assert main(["separate", cfg, "--matrix", str(matrix), "--out-dir", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # every active sample divides by the gap, so the first active row is named
    x = np.abs(np.loadtxt(out / pipeline.MIXTURES_CSV, delimiter=",", skiprows=1))
    row = int(np.flatnonzero(x.max(axis=1) > default_activity_eps(x[:, 0]))[0])
    assert captured.err == f"ubss separate: separated row {row} holds NaN or inf\n"
    assert not (out / pipeline.SEPARATED_CSV).exists()



# a one-sample signal is refused by its waveform plot; the refused stage
# writes none of its files, its signal CSV included
ONE_SAMPLE_INPUTS = {
    "generate": {},
    "mix": {"sources": "ch1,ch2\n0.5,0\n"},
    "separate": {"mixtures": "x1,x2\n0.2,0.4\n", "matrix": "ratio\n2\n0.5\n"},
}


@pytest.mark.parametrize("command", ONE_SAMPLE_INPUTS)
def test_a_stage_refused_by_its_waveform_plot_writes_no_file(tmp_path, capsys, command):
    text = BASE_CFG.replace("chip_len = 10\nframe_len = 40\ntotal_len = 1200\nn_sources = 3",
                            "chip_len = 1\nframe_len = 1\ntotal_len = 1\nn_sources = 2")
    text = text.replace("pulse_orders = 0, 1, 2", "pulse_orders = 0, 2")
    argv = [command, _write_cfg(tmp_path, text.replace("0.3 ; 0.8 0.1 0.5", "; 0.8 0.1"))]
    for flag, content in ONE_SAMPLE_INPUTS[command].items():
        (tmp_path / f"{flag}.csv").write_text(content)
        argv += [f"--{flag}", str(tmp_path / f"{flag}.csv")]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"ubss {command}: waveform plot needs a (T, K) array, T >= 2 and K >= 1,"
        " got shape (1, 2)\n")
    assert sorted(p.name for p in (tmp_path / "out").glob("*")) == []
