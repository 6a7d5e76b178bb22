import numpy as np
import pytest

from ubss import (
    PulseSpec,
    ThUwbConfig,
    generate_sources,
    mix,
    pulse_shape,
    validate_mixing_matrix,
)


def test_pulse_spec_validation():
    with pytest.raises(ValueError, match="order"):
        PulseSpec(order=3, width_samples=10)
    with pytest.raises(ValueError, match="width"):
        PulseSpec(order=0, width_samples=0)
    with pytest.raises(ValueError, match="amplitude"):
        PulseSpec(order=0, width_samples=10, amplitude=0.0)
    with pytest.raises(ValueError, match="amplitude"):
        PulseSpec(order=0, width_samples=10, amplitude=float("nan"))


def test_pulse_shape_length_and_peak():
    for order in (0, 1, 2):
        for width in (9, 33, 161):
            shape = pulse_shape(PulseSpec(order=order, width_samples=width, amplitude=2.5))
            assert shape.shape == (width,)
            assert np.max(np.abs(shape)) == pytest.approx(2.5, rel=1e-15)


def test_pulse_shape_order0_peaks_at_center():
    shape = pulse_shape(PulseSpec(order=0, width_samples=161, amplitude=1.0))
    assert shape[80] == 1.0
    assert np.all(shape > 0.0)
    assert np.allclose(shape, shape[::-1])


def test_pulse_shape_order1_is_odd():
    shape = pulse_shape(PulseSpec(order=1, width_samples=161, amplitude=1.0))
    assert shape[80] == 0.0
    assert np.allclose(shape, -shape[::-1])


def test_pulse_shape_order2_center_trough():
    shape = pulse_shape(PulseSpec(order=2, width_samples=161, amplitude=1.0))
    assert shape[80] == pytest.approx(-1.0, rel=1e-15)
    assert np.allclose(shape, shape[::-1])
    assert np.max(shape) > 0.0


def test_th_uwb_config_validation():
    good = dict(chip_len=10, frame_len=40, total_len=120, n_sources=3, seed=0)
    ThUwbConfig(**good)
    with pytest.raises(ValueError, match="chip_len"):
        ThUwbConfig(**{**good, "chip_len": 0})
    with pytest.raises(ValueError, match="multiple"):
        ThUwbConfig(**{**good, "frame_len": 45})
    with pytest.raises(ValueError, match="total_len"):
        ThUwbConfig(**{**good, "total_len": 39})
    with pytest.raises(ValueError, match="n_sources"):
        ThUwbConfig(**{**good, "n_sources": 0})
    with pytest.raises(ValueError, match="seed"):
        ThUwbConfig(**{**good, "seed": -1})
    with pytest.raises(ValueError, match="occupancy"):
        ThUwbConfig(**{**good, "occupancy": 1.5})
    cfg = ThUwbConfig(**good)
    assert cfg.n_chips == 4
    assert cfg.n_frames == 3
    assert ThUwbConfig(**{**good, "total_len": 121}).n_frames == 4


def test_generate_sources_layout():
    cfg = ThUwbConfig(chip_len=10, frame_len=40, total_len=120, n_sources=2, seed=3)
    pulses = [PulseSpec(order=0, width_samples=10), PulseSpec(order=1, width_samples=10)]
    src = generate_sources(cfg, pulses)
    assert src.shape == (120, 2)
    # at most one pulse per frame, confined to a single chip
    for k in range(2):
        assert np.flatnonzero(src[:, k]).size > 0
        for f in range(3):
            seg = src[40 * f : 40 * (f + 1), k]
            chips = {int(t) // 10 for t in np.flatnonzero(seg)}
            assert len(chips) <= 1


def test_generate_sources_deterministic_and_per_source():
    cfg = ThUwbConfig(chip_len=10, frame_len=40, total_len=400, n_sources=3, seed=7)
    pulses = [PulseSpec(order=0, width_samples=9)] * 3
    a = generate_sources(cfg, pulses)
    b = generate_sources(cfg, pulses)
    assert np.array_equal(a, b)
    # adding a source leaves the existing source streams untouched
    cfg4 = ThUwbConfig(chip_len=10, frame_len=40, total_len=400, n_sources=4, seed=7)
    c = generate_sources(cfg4, pulses + [PulseSpec(order=0, width_samples=9)])
    assert np.array_equal(a, c[:, :3])


def test_generate_sources_occupancy_thins_frames():
    base = dict(chip_len=10, frame_len=40, total_len=4000, n_sources=1, seed=5)
    pulses = [PulseSpec(order=0, width_samples=10)]
    full = generate_sources(ThUwbConfig(**base, occupancy=1.0), pulses)
    half = generate_sources(ThUwbConfig(**base, occupancy=0.5), pulses)
    empty = generate_sources(ThUwbConfig(**base, occupancy=0.0), pulses)
    assert np.all(empty == 0.0)
    # the thinned train keeps the surviving frames' pulses bit-identical
    kept = half[:, 0] != 0.0
    assert kept.any() and kept.sum() < (full[:, 0] != 0.0).sum()
    assert np.array_equal(half[kept, 0], full[kept, 0])


def test_generate_sources_hop_windows():
    cfg = ThUwbConfig(chip_len=10, frame_len=40, total_len=4000, n_sources=2, seed=1)
    pulses = [PulseSpec(order=0, width_samples=10)] * 2
    src = generate_sources(cfg, pulses, hop_windows=[(0, 1), (3, 1)])
    for k, chip in ((0, 0), (1, 3)):
        nz = np.flatnonzero(src[:, k])
        assert nz.size > 0
        assert np.all((nz % 40) // 10 == chip)
    with pytest.raises(ValueError, match="hop window"):
        generate_sources(cfg, pulses, hop_windows=[(0, 1), (3, 2)])
    with pytest.raises(ValueError, match="hop windows"):
        generate_sources(cfg, pulses, hop_windows=[(0, 1)])


def test_generate_sources_rejects_wide_pulse():
    cfg = ThUwbConfig(chip_len=10, frame_len=40, total_len=120, n_sources=1, seed=0)
    with pytest.raises(ValueError, match="wider than a chip"):
        generate_sources(cfg, [PulseSpec(order=0, width_samples=11)])


def test_generate_sources_trailing_partial_frame():
    # 3 full frames plus 15 samples: only chip 0 of the last frame fits
    cfg = ThUwbConfig(chip_len=10, frame_len=40, total_len=135, n_sources=1, seed=2)
    src = generate_sources(cfg, [PulseSpec(order=0, width_samples=10)])
    assert src.shape == (135, 1)
    nz = np.flatnonzero(src[120:, 0])
    assert np.all(nz < 10)


def test_mix_shapes_and_values():
    rng = np.random.default_rng(0)
    s = rng.normal(size=(50, 3))
    a = rng.normal(size=(2, 3))
    x = mix(s, a)
    assert x.shape == (50, 2)
    assert np.allclose(x[7], a @ s[7])
    assert np.array_equal(mix(s, np.eye(3)), s)
    with pytest.raises(ValueError, match="columns"):
        mix(s, np.ones((2, 4)))
    with pytest.raises(ValueError, match="2-D"):
        mix(s[:, 0], a)


def test_validate_mixing_matrix():
    a = np.array([[0.4, 0.6, 0.3], [0.8, 0.1, 0.5]])
    assert np.array_equal(validate_mixing_matrix(a), a)
    with pytest.raises(ValueError, match="finite"):
        validate_mixing_matrix(np.array([[1.0, np.inf], [1.0, 2.0]]))
    with pytest.raises(ValueError, match="all-zero column"):
        validate_mixing_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="parallel"):
        validate_mixing_matrix(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(ValueError, match="zero first entry"):
        validate_mixing_matrix(np.array([[1.0, 0.0], [1.0, 2.0]]))
    # the ratio model reads x2/x1: exactly two rows, checked before the entries
    with pytest.raises(ValueError, match="exactly 2 mixture channels, got 1"):
        validate_mixing_matrix(np.array([[0.4, 0.6, 0.3]]))
    with pytest.raises(ValueError, match="exactly 2 mixture channels, got 3"):
        validate_mixing_matrix(np.vstack([a, [0.2, 0.9, np.nan]]))
    with pytest.raises(ValueError, match="2-D and non-empty"):
        validate_mixing_matrix(np.zeros((2, 0)))
    with pytest.raises(ValueError, match="2-D and non-empty"):
        validate_mixing_matrix(np.array([0.4, 0.8]))
    # anti-parallel columns are parallel too
    with pytest.raises(ValueError, match="parallel"):
        validate_mixing_matrix(np.array([[1.0, -1.0], [2.0, -2.0]]))
