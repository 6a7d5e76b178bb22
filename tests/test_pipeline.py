import hashlib
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from ubss import (
    ConfigError,
    ExperimentConfig,
    OverlapMode,
    ThUwbConfig,
    load_config,
)
from ubss import pipeline
from ubss.pipeline import (
    build_sources,
    run_experiment,
    stage_estimate,
    stage_generate,
    stage_mix,
    stage_score,
    stage_separate,
)
from ubss.evaluation import count_uncovered, max_simultaneous_sources
from ubss.svgplot import waveform_svg

ARTIFACTS = [
    pipeline.SOURCES_CSV,
    pipeline.MIXTURES_CSV,
    pipeline.HISTOGRAM_CSV,
    pipeline.MATRIX_CSV,
    pipeline.SEPARATED_CSV,
    pipeline.REPORT_CSV,
    pipeline.SOURCES_SVG,
    pipeline.MIXTURES_SVG,
    pipeline.HISTOGRAM_SVG,
    pipeline.SEPARATED_SVG,
]

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def _cfg(out_dir, seed=3, mode=OverlapMode.AT_MOST_TWO, **kw):
    th = ThUwbConfig(
        chip_len=10, frame_len=40, total_len=1200, pulse_orders=[0, 1, 2],
        seed=seed, overlap_mode=mode,
    )
    fields = dict(
        th_uwb=th,
        mixing=np.array([[0.4, 0.6, 0.3], [0.8, 0.1, 0.5]]),
        output_dir=Path(out_dir),
    )
    fields.update(kw)
    return ExperimentConfig(**fields)


def test_run_experiment_writes_all_artifacts(tmp_path):
    cfg = _cfg(tmp_path / "out")
    run_experiment(cfg, verbose=False)
    for name in ARTIFACTS:
        assert (tmp_path / "out" / name).is_file(), name


def test_run_experiment_result_is_consistent(tmp_path):
    cfg = _cfg(tmp_path / "out")
    r = run_experiment(cfg, write_files=False, verbose=False)
    assert not (tmp_path / "out").exists()
    t, n = cfg.th_uwb.total_len, cfg.th_uwb.n_sources
    assert r.sources.shape == (t, n)
    assert r.mixtures.shape == (t, 2)
    assert np.array_equal(r.mixtures, r.sources @ r.mixing.T)
    assert r.activity_eps == pytest.approx(1e-6 * np.max(np.abs(r.mixtures[:, 0])))
    assert r.histogram.active_samples == int(
        np.count_nonzero(np.abs(r.mixtures[:, 0]) > r.activity_eps)
    )
    assert r.separated.shape == (t, r.estimated.n_sources)
    assert r.pairs.shape == (t, 2)
    assert r.wrong_pair_count == count_uncovered(r.sources, r.pairs, r.report.permutation)
    assert r.max_simultaneous == max_simultaneous_sources(r.sources)


def test_run_experiment_builds_the_active_count_once(tmp_path, monkeypatch):
    calls = []
    real = pipeline._active_counts
    monkeypatch.setattr(pipeline, "_active_counts", lambda s: calls.append(s) or real(s))
    r = run_experiment(_cfg(tmp_path / "out"), write_files=False, verbose=False)
    assert len(calls) == 1 and calls[0] is r.sources
    # the public counts stay reachable where the pipeline's callers look them up
    assert pipeline.count_uncovered is count_uncovered
    assert pipeline.max_simultaneous_sources is max_simultaneous_sources


def test_run_experiment_verbose_output(tmp_path, capsys):
    cfg = _cfg(tmp_path / "out")
    run_experiment(cfg, write_files=False, verbose=True)
    out = capsys.readouterr().out
    assert "sources estimated: " in out
    assert "ratios: " in out
    assert "-> source" in out
    assert "wrong-pair samples: " in out
    run_experiment(cfg, write_files=False, verbose=False)
    assert capsys.readouterr().out == ""


def test_run_experiment_out_dir_overrides_config(tmp_path):
    cfg = _cfg(tmp_path / "configured")
    run_experiment(cfg, out_dir=tmp_path / "explicit", verbose=False)
    assert (tmp_path / "explicit" / pipeline.SOURCES_CSV).is_file()
    assert not (tmp_path / "configured").exists()


def test_run_experiment_needs_two_rows(tmp_path):
    # the config that run_experiment would need cannot even be built
    with pytest.raises(ConfigError, match="estimation requires exactly 2 mixture channels, got 1"):
        _cfg(
            tmp_path / "out",
            th_uwb=ThUwbConfig(chip_len=10, frame_len=40, total_len=400,
                               pulse_orders=[0], seed=0),
            mixing=np.array([[0.5]]),
        )
    with pytest.raises(ConfigError, match="exactly 2 mixture channels, got 3"):
        _cfg(tmp_path / "out", mixing=np.vstack([_cfg(tmp_path).mixing, [0.2, 0.9, 0.7]]))


def test_run_experiment_rejects_zero_first_row_entry(tmp_path):
    with pytest.raises(ConfigError, match="zero first entry"):
        _cfg(tmp_path / "out", mixing=np.array([[0.4, 0.0, 0.3], [0.8, 0.1, 0.5]]))


def test_stage_chain_reproduces_run_bytes(tmp_path):
    cfg = _cfg(tmp_path / "run")
    run_experiment(cfg, verbose=False)
    staged = tmp_path / "staged"
    cfg = _cfg(staged)
    stage_generate(cfg)
    stage_mix(cfg, staged / pipeline.SOURCES_CSV)
    stage_estimate(cfg, staged / pipeline.MIXTURES_CSV)
    stage_separate(cfg, staged / pipeline.MIXTURES_CSV, staged / pipeline.MATRIX_CSV)
    stage_score(cfg, staged / pipeline.SOURCES_CSV, staged / pipeline.SEPARATED_CSV)
    for name in ARTIFACTS:
        a = (tmp_path / "run" / name).read_bytes()
        b = (staged / name).read_bytes()
        assert a == b, name


def test_stage_mix_refuses_what_run_refuses(tmp_path):
    # run_experiment and every stage take an ExperimentConfig, so a matrix
    # outside the ratio model is refused before any stage can run
    th = ThUwbConfig(chip_len=10, frame_len=40, total_len=400,
                     pulse_orders=[0, 1], seed=5)
    three_rows = np.vstack([_cfg(tmp_path).mixing, [0.2, 0.9, 0.7]])
    for bad, message in (
        # zero first entry in column 1: outside the ratio model
        (dict(th_uwb=th, mixing=np.eye(2)), "column 1 has a zero first entry"),
        (dict(mixing=three_rows), "exactly 2 mixture channels, got 3"),
        (dict(mixing=np.array([[0.4, 0.6, 0.3, 0.9], [0.8, 0.1, 0.5, 0.2]])),
         "4 columns for 3 sources"),
    ):
        with pytest.raises(ConfigError, match=message):
            _cfg(tmp_path / "out", **bad)
    assert not (tmp_path / "out").exists()
    # the accepted matrix is the validated float array both paths mix with
    cfg = _cfg(tmp_path / "out", mixing=[[0.4, 0.6, 0.3], [0.8, 0.1, 0.5]])
    assert cfg.mixing.dtype == float and cfg.mixing.shape == (2, 3)
    sources = stage_generate(cfg)
    mixtures = stage_mix(cfg, tmp_path / "out" / pipeline.SOURCES_CSV)
    assert np.array_equal(mixtures, sources @ cfg.mixing.T)


def test_build_sources_honors_overlap_mode(tmp_path):
    capped = build_sources(_cfg(tmp_path, seed=12))
    free = build_sources(_cfg(tmp_path, seed=12, mode=OverlapMode.ALLOW_THREE))
    assert max_simultaneous_sources(capped) <= 2
    assert not np.array_equal(capped, free)


def test_svg_artifacts_are_well_formed(tmp_path):
    cfg = _cfg(tmp_path / "out")
    run_experiment(cfg, verbose=False)
    for name in (
        pipeline.SOURCES_SVG,
        pipeline.MIXTURES_SVG,
        pipeline.HISTOGRAM_SVG,
        pipeline.SEPARATED_SVG,
    ):
        root = ET.fromstring((tmp_path / "out" / name).read_text())
        assert root.tag.endswith("svg")


def test_waveform_svg_panel_per_channel():
    x = np.zeros((50, 3))
    x[10, 0] = 1.0
    x[20, 1] = -1.0
    svg = waveform_svg(x)
    assert svg.count("<polyline") == 3
    with pytest.raises(ValueError, match="waveform plot needs"):
        waveform_svg(np.zeros((1, 2)))


def test_shipped_experiments_degrade_with_overlap():
    exp1 = run_experiment(
        load_config(CONFIGS_DIR / "experiment1.cfg"), write_files=False, verbose=False
    )
    exp2 = run_experiment(
        load_config(CONFIGS_DIR / "experiment2.cfg"), write_files=False, verbose=False
    )
    coeffs1 = iter(exp1.report.coefficients)
    by_true_1 = {t: next(coeffs1) for t in exp1.report.permutation if t is not None}
    coeffs2 = iter(exp2.report.coefficients)
    by_true_2 = {t: next(coeffs2) for t in exp2.report.permutation if t is not None}
    assert sorted(by_true_1) == sorted(by_true_2) == [0, 1, 2]
    for t in range(3):
        assert by_true_2[t] < by_true_1[t]


def test_wrong_pairs_also_occur_with_two_active_sources():
    # column ratios 0.5, 1.8 and 2.0: where the 0.5 and 2.0 sources co-fire,
    # the 1.8 column lies between them and nearest-angle selection picks it
    result = run_experiment(
        load_config(CONFIGS_DIR / "experiment2.cfg", seed_override=0),
        write_files=False,
        verbose=False,
    )
    assert result.max_simultaneous == 2
    assert result.wrong_pair_count > 0


# sha256 of every artifact `ubss run` writes for the shipped configs; a change
# that alters a single artifact byte has to update these deliberately
SHIPPED_DIGESTS = {
    "experiment1": {
        "estimated_matrix.csv": "cb6d359ce27383450e5e7583c8debf438fb31bafec3a6f8736769d4691351bbe",
        "histogram.csv": "827417833482d26e99c2b4a2f6264f891bc410b2d2a1d00f6c98346e0e6c1fa9",
        "histogram.svg": "49049ec82c4af2f5ef1f95a46238d7585dd573e02eacb1a534e481fa32d83753",
        "mixtures.csv": "ef7ceaf40df9daf5451dc6eaabefee9944c5dc2c2c4468256ad4c36c94412639",
        "mixtures.svg": "e3d6f2db1ea00ab1327ada267c41e2c77269923f0a254980e1ab582cf0f4097e",
        "report.csv": "ff896b45ac7039fba6b37b398840ceebdb14587e0835ad97a88fd0cf434e0ea3",
        "separated.csv": "216f4c25d655cd8e16802a93edfacb819a468b5bc6ebec7952fd3a6147310488",
        "separated.svg": "5acec386858dc2dd65eeaaec234217f27babacb3c7b38a8d5b6d726384b132db",
        "sources.csv": "a5289d8d5255e71aefbb382b69f2ac9b7363173d00a9006678b0431235a43aca",
        "sources.svg": "0f17be71be68ec3ed390c42397a7022bc439e5d0ae12c430cdf5eb4748cf3b3e",
    },
    "experiment2": {
        "estimated_matrix.csv": "461233d9888ecb2d33c22b66f6c9ea52eabb711a9d35d0f5d2c965613d4b14de",
        "histogram.csv": "070edcf2c74bacc3453ab9848ff6db6a68fe08dc79d09933c039cfcc0b03fde3",
        "histogram.svg": "33381c90c1f28c104c128a8aa4b126c5f333edf1181d8855d65c2bef39a2304d",
        "mixtures.csv": "e4b20b24926f70baad1d028ce60d37f50120a225afad1d088179a2572b5c159b",
        "mixtures.svg": "fdd3d10b0b6490cc789376090e2fba0e1e8804e94ed8e2a5ccc627a48f36c8ff",
        "report.csv": "f372445d505800ad3f7fab2f79182308c5b259cb1f9382e6a60202967aefb6ee",
        "separated.csv": "0f9060498d37f61721d27efc25d4bbdf437cf9e8e07f0045d2f86f049d617ac8",
        "separated.svg": "1c5f937283a06c73ba2b25e155e4e35b6cac6e2aae7f65af0c2d7a6be49b3f4d",
        "sources.csv": "43c4aced374bf54937fa7e14790c94b00dc714a22f14a1577928ebb9310958d2",
        "sources.svg": "e340ffed9bcf346f335d98e0c7fdf1a2a80159e73a4a7ac82dc215ab584214a5",
    },
}


@pytest.mark.parametrize("name", sorted(SHIPPED_DIGESTS))
def test_shipped_configs_reproduce_reference_artifacts(tmp_path, name):
    run_experiment(load_config(CONFIGS_DIR / f"{name}.cfg"), out_dir=tmp_path, verbose=False)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(ARTIFACTS)
    for artifact, digest in SHIPPED_DIGESTS[name].items():
        got = hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        assert got == digest, f"{name}/{artifact}"
