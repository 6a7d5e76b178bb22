import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubss import (
    OverlapMode,
    ThUwbConfig,
    generate_sources,
    mix,
)
from ubss.evaluation import max_simultaneous_sources
from ubss.signals import _frame_draws, pulse_shape, validate_mixing_matrix


def test_pulse_order_validation():
    expected = "pulse order must be one of (0, 1, 2), got 3"
    with pytest.raises(ValueError) as info:
        pulse_shape(3, 9)
    assert str(info.value) == expected
    with pytest.raises(ValueError) as info:
        ThUwbConfig(chip_len=10, frame_len=40, total_len=120, pulse_orders=[0, 3], seed=0)
    assert str(info.value) == expected


def test_pulse_shape_length_and_peak():
    for order in (0, 1, 2):
        for width in (9, 33, 161):
            shape = pulse_shape(order, width)
            assert shape.shape == (width,)
            assert np.max(np.abs(shape)) == pytest.approx(1.0, rel=1e-15)


def test_pulse_shape_order0_peaks_at_center():
    shape = pulse_shape(0, 161)
    assert shape[80] == 1.0
    assert np.all(shape > 0.0)
    assert np.allclose(shape, shape[::-1])


def test_pulse_shape_order1_is_odd():
    shape = pulse_shape(1, 161)
    assert shape[80] == 0.0
    assert np.allclose(shape, -shape[::-1])


def test_pulse_shape_order2_center_trough():
    shape = pulse_shape(2, 161)
    assert shape[80] == pytest.approx(-1.0, rel=1e-15)
    assert np.allclose(shape, shape[::-1])
    assert np.max(shape) > 0.0


def test_th_uwb_config_validation():
    good = dict(chip_len=10, frame_len=40, total_len=120, pulse_orders=[0] * 3, seed=0)
    ThUwbConfig(**good)
    with pytest.raises(ValueError, match="chip_len"):
        ThUwbConfig(**{**good, "chip_len": 0})
    with pytest.raises(ValueError, match="multiple"):
        ThUwbConfig(**{**good, "frame_len": 45})
    with pytest.raises(ValueError, match="total_len"):
        ThUwbConfig(**{**good, "total_len": 39})
    with pytest.raises(ValueError, match="seed"):
        ThUwbConfig(**{**good, "seed": -1})
    with pytest.raises(ValueError, match="occupancy"):
        ThUwbConfig(**{**good, "occupancy": 1.5})
    with pytest.raises(ValueError) as info:
        ThUwbConfig(**{**good, "overlap_mode": "sometimes"})
    assert str(info.value) == "overlap_mode must be one of at_most_two, allow_three, got 'sometimes'"
    cfg = ThUwbConfig(**good)
    assert cfg.overlap_mode is OverlapMode.AT_MOST_TWO
    assert ThUwbConfig(**good, overlap_mode="allow_three").overlap_mode is OverlapMode.ALLOW_THREE
    assert cfg.n_chips == 4
    assert cfg.n_frames == 3
    assert ThUwbConfig(**{**good, "total_len": 121}).n_frames == 4


def test_layout_holds_one_pulse_per_source():
    fields = dict(chip_len=10, frame_len=40, total_len=120, seed=0)
    with pytest.raises(ValueError) as info:
        ThUwbConfig(pulse_orders=(), **fields)
    assert str(info.value) == "pulse_orders must hold one order per source, got none"
    for n in (1, 2, 3):
        orders = [k % 3 for k in range(n)]
        cfg = ThUwbConfig(pulse_orders=orders, **fields)
        assert cfg.n_sources == len(cfg.pulse_orders) == n
        assert cfg.pulse_orders == tuple(orders)
        assert generate_sources(cfg).shape == (120, n)


def test_generate_sources_layout():
    cfg = ThUwbConfig(chip_len=10, frame_len=40, total_len=120,
                      pulse_orders=[0, 1], seed=3)
    src = generate_sources(cfg)
    assert src.shape == (120, 2)
    # at most one pulse per frame, confined to a single chip
    for k in range(2):
        assert np.flatnonzero(src[:, k]).size > 0
        for f in range(3):
            seg = src[40 * f : 40 * (f + 1), k]
            chips = {int(t) // 10 for t in np.flatnonzero(seg)}
            assert len(chips) <= 1


def test_generate_sources_returns_one_contiguous_column_per_source():
    cfg = ThUwbConfig(chip_len=10, frame_len=40, total_len=120,
                      pulse_orders=[0, 1], seed=3)
    src = generate_sources(cfg)
    assert src.flags.f_contiguous and not src.flags.c_contiguous


def test_generate_sources_deterministic_and_per_source():
    fields = dict(chip_len=10, frame_len=40, total_len=400, seed=7,
                  overlap_mode=OverlapMode.ALLOW_THREE)
    cfg = ThUwbConfig(pulse_orders=[0] * 3, **fields)
    a = generate_sources(cfg)
    b = generate_sources(cfg)
    assert np.array_equal(a, b)
    # adding a source leaves the existing source streams untouched
    c = generate_sources(ThUwbConfig(pulse_orders=[0] * 4, **fields))
    assert np.array_equal(a, c[:, :3])


def test_generate_sources_occupancy_thins_frames():
    base = dict(chip_len=10, frame_len=40, total_len=4000, pulse_orders=[0], seed=5)
    full = generate_sources(ThUwbConfig(**base, occupancy=1.0))
    half = generate_sources(ThUwbConfig(**base, occupancy=0.5))
    empty = generate_sources(ThUwbConfig(**base, occupancy=0.0))
    assert np.all(empty == 0.0)
    # the thinned train keeps the surviving frames' pulses bit-identical
    kept = half[:, 0] != 0.0
    assert kept.any() and kept.sum() < (full[:, 0] != 0.0).sum()
    assert np.array_equal(half[kept, 0], full[kept, 0])


def test_generate_sources_hop_windows():
    # at_most_two: the first and last source share chip 1 of their two-chip
    # windows, every middle source keeps a chip of its own from chip 3 on
    for n_chips, chips in ((4, [{0, 1}, {3}, {1, 2}]), (6, [{0, 1}, {3}, {4}, {1, 2}])):
        cfg = ThUwbConfig(chip_len=10, frame_len=10 * n_chips, total_len=100 * n_chips,
                          pulse_orders=[0] * len(chips), seed=1,
                          overlap_mode=OverlapMode.AT_MOST_TWO)
        src = generate_sources(cfg)
        for k, want in enumerate(chips):
            starts = np.flatnonzero(src[:, k])[::10]
            assert set((starts % cfg.frame_len) // 10) == want
    # allow_three hops every source over the whole frame
    cfg = ThUwbConfig(chip_len=10, frame_len=40, total_len=4000, pulse_orders=[0] * 3,
                      seed=1, overlap_mode=OverlapMode.ALLOW_THREE)
    src = generate_sources(cfg)
    for k in range(3):
        assert set((np.flatnonzero(src[:, k])[::10] % 40) // 10) == {0, 1, 2, 3}


def test_generate_sources_trailing_partial_frame():
    # 3 full frames plus 15 samples: only chip 0 of the last frame fits
    cfg = ThUwbConfig(chip_len=10, frame_len=40, total_len=135, pulse_orders=[0],
                      seed=2)
    src = generate_sources(cfg)
    assert src.shape == (135, 1)
    nz = np.flatnonzero(src[120:, 0])
    assert np.all(nz < 10)


def _old_hop_windows_for_mode(mode, n_sources, n_chips):
    """The per-source chip windows as the loader derived them before the layout did."""
    if mode is OverlapMode.ALLOW_THREE or n_sources <= 2:
        return None
    if n_chips < n_sources + 1:
        raise ValueError(
            f"at_most_two needs at least {n_sources + 1} chips per frame, got {n_chips}"
        )
    middles = [(3 + k, 1) for k in range(n_sources - 2)]
    return [(0, 2)] + middles + [(1, 2)]


def _old_generate_sources(cfg, orders, hop_windows=None):
    """generate_sources as it stood with explicit hop windows, pulses chip_len wide."""
    if hop_windows is None:
        hop_windows = [(0, cfg.n_chips)] * cfg.n_sources
    out = np.zeros((cfg.total_len, cfg.n_sources))
    for k in range(cfg.n_sources):
        rng = np.random.default_rng([cfg.seed, k])
        shape = pulse_shape(orders[k], cfg.chip_len)
        start, count = hop_windows[k]
        for f in range(cfg.n_frames):
            gate = rng.random()
            chip = start + int(rng.integers(count))
            sign = 1.0 - 2.0 * float(rng.integers(2))
            if gate >= cfg.occupancy:
                continue
            chip_start = f * cfg.frame_len + chip * cfg.chip_len
            if chip_start + cfg.chip_len > cfg.total_len:
                continue
            out[chip_start : chip_start + cfg.chip_len, k] = sign * shape
    return out


@st.composite
def layouts(draw):
    n = draw(st.integers(1, 6))
    mode = draw(st.sampled_from(list(OverlapMode)))
    floor = n + 1 if mode is OverlapMode.AT_MOST_TWO and n > 2 else 1
    chip_len = draw(st.integers(2, 12))
    frame_len = chip_len * draw(st.integers(floor, floor + 3))
    # whole frames plus a trailing partial one, possibly empty
    total_len = frame_len * draw(st.integers(1, 30)) + draw(st.integers(0, frame_len - 1))
    return ThUwbConfig(
        chip_len=chip_len,
        frame_len=frame_len,
        total_len=total_len,
        pulse_orders=[draw(st.sampled_from((0, 1, 2))) for _ in range(n)],
        seed=draw(st.integers(0, 2**32)),
        occupancy=draw(st.floats(0.0, 1.0)),
        overlap_mode=mode,
    )


@settings(max_examples=300, deadline=None)
@given(cfg=layouts())
def test_generate_sources_matches_the_explicit_window_oracle(cfg):
    windows = _old_hop_windows_for_mode(cfg.overlap_mode, cfg.n_sources, cfg.n_chips)
    got = generate_sources(cfg)
    want = _old_generate_sources(cfg, cfg.pulse_orders, windows)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if cfg.overlap_mode is OverlapMode.AT_MOST_TWO:
        assert max_simultaneous_sources(got) <= 2


@pytest.mark.parametrize("seed", [1, 11])
def test_generate_sources_matches_the_oracle_on_the_long_n6_layout(seed):
    # the N=6 layout of the long benchmark workloads: 1600 frames, 4 chips
    cfg = ThUwbConfig(chip_len=161, frame_len=644, total_len=644 * 1600,
                      pulse_orders=[k % 3 for k in range(6)], seed=seed,
                      occupancy=0.25, overlap_mode=OverlapMode.ALLOW_THREE)
    assert cfg.n_frames == 1600
    assert generate_sources(cfg).tobytes() == _old_generate_sources(cfg, cfg.pulse_orders).tobytes()


@pytest.mark.parametrize("frames, tail", [(1000, 0), (1001, 0), (1001, 20)])
@pytest.mark.parametrize("seed", [0, 5, 2**32])
def test_generate_sources_matches_the_oracle_on_long_at_most_two_trains(frames, tail, seed):
    # its three middle sources hop over one chip, so they take the per-frame
    # calls over 1000 frames and more; the two outer ones take the bulk decode
    cfg = ThUwbConfig(chip_len=7, frame_len=42, total_len=42 * frames + tail,
                      pulse_orders=[k % 3 for k in range(5)],
                      seed=seed, occupancy=0.6, overlap_mode=OverlapMode.AT_MOST_TWO)
    windows = _old_hop_windows_for_mode(cfg.overlap_mode, cfg.n_sources, cfg.n_chips)
    assert [count for _, count in windows] == [2, 1, 1, 1, 2]
    want = _old_generate_sources(cfg, cfg.pulse_orders, windows)
    assert generate_sources(cfg).tobytes() == want.tobytes()


def _per_frame_draws(rng, n_frames, count):
    """The gate, chip and sign draws one scalar call at a time, frame after frame."""
    draws = [(rng.random(), rng.integers(count), rng.integers(2)) for _ in range(n_frames)]
    return [np.array(column) for column in zip(*draws)]


@pytest.mark.parametrize("count, n_frames", [
    (1, 1), (1, 2), (1, 49), (1, 50),  # one-chip windows take the per-frame calls
    (2, 50), (3, 50), (4, 51), (5, 50), (7, 50), (100, 50),  # Lemire thresholds 0 and not
    (2**31 + 1, 50),  # about half the chip draws rejected
    (2**32, 50), (2**32 + 1, 50),  # the edge of 32 bits, and past it
])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**32])
def test_frame_draws_equal_the_per_frame_generator_calls(count, n_frames, seed):
    got = _frame_draws(np.random.default_rng([seed, 3]), n_frames, count)
    want = _per_frame_draws(np.random.default_rng([seed, 3]), n_frames, count)
    for g, w in zip(got, want):
        assert g.shape == w.shape == (n_frames,)
        assert g.tolist() == w.tolist()


def test_frame_draws_fall_back_to_the_scalar_calls_on_a_rejected_chip_draw():
    # 2**32 % (2**31 + 1) = 2**31 - 1, so about half of the chip draws are
    # rejected and redrawn; the generator then ends where the scalar calls
    # leave it, past the 2 words per frame that one bulk read would take
    count, n_frames = 2**31 + 1, 50
    for seed in range(5):
        rng, scalar, bulk = (np.random.default_rng([seed, 0]) for _ in range(3))
        _frame_draws(rng, n_frames, count)
        _per_frame_draws(scalar, n_frames, count)
        bulk.bit_generator.random_raw(2 * n_frames)
        assert rng.bit_generator.state == scalar.bit_generator.state
        assert rng.bit_generator.state != bulk.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 7), n_chips=st.integers(1, 8), mode=st.sampled_from(list(OverlapMode)))
def test_layout_refuses_exactly_what_the_old_windows_refused(n, n_chips, mode):
    fields = dict(chip_len=3, frame_len=3 * n_chips, total_len=30 * n_chips,
                  pulse_orders=[0] * n, seed=0, overlap_mode=mode)
    try:
        _old_hop_windows_for_mode(mode, n, n_chips)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            ThUwbConfig(**fields)
        assert str(info.value) == str(exc)
    else:
        assert ThUwbConfig(**fields).n_chips == n_chips


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
    with pytest.raises(ValueError, match="sources must be 2-D"):
        mix(s[:, 0], a)
    with pytest.raises(ValueError, match="mixing matrix must be 2-D"):
        mix(s, a[0])


@settings(max_examples=200, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 3000), st.integers(1, 8)),
    seed=st.integers(0, 2**32 - 1),
    sparse=st.booleans(),
)
def test_mix_gives_the_same_bytes_for_row_and_column_major_sources(shape, seed, sparse):
    rng = np.random.default_rng(seed)
    s = rng.normal(size=shape) * rng.choice([1e-3, 1.0, 1e5], size=shape)
    if sparse:
        s[rng.random(shape) < 0.8] = 0.0
    a = rng.normal(size=(2, shape[1]))
    assert mix(np.asfortranarray(s), a).tobytes() == mix(np.ascontiguousarray(s), a).tobytes()


def test_mix_refuses_a_product_that_overflows():
    # each source is finite and so is the matrix, but 4e10 * 1e300 is not
    s = np.zeros((6, 2))
    s[2] = [1e300, 0.0]
    s[4:] = 1e300
    a = np.array([[1.0, 4e10], [0.8, 0.1]])
    assert np.isfinite(mix(s[:4], a)).all()
    for sources in (s, -s, s * [1.0, -1.0]):
        with pytest.raises(ValueError, match=r"^mixtures row 4 holds NaN or inf$"):
            mix(sources, a)


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


@pytest.mark.parametrize("mixing", [
    [[1e308, 1e308], [1e308, 1e308]],
    [[1e308, 1e308, 1.0], [1e308, 1e308, 2.0]],
])
def test_validate_mixing_matrix_refuses_parallel_columns_whose_norms_overflow(mixing):
    with pytest.raises(ValueError) as info:
        validate_mixing_matrix(np.array(mixing))
    assert str(info.value) == "mixing matrix columns 0 and 1 are parallel"


def test_validate_mixing_matrix_accepts_columns_whose_squares_underflow():
    a = np.array([[1e-200, 2e-200], [3e-200, 1e-200]])
    assert np.array_equal(validate_mixing_matrix(a), a)


@st.composite
def two_row_matrices(draw):
    n = draw(st.integers(1, 5))
    # zero entries are common, so that zero columns and zero first entries occur
    entry = st.one_of(st.just(0.0), st.floats(2**-11, 2**4), st.floats(-(2**4), -(2**-11)))
    a = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=2, max_size=2)))
    for j in range(1, n):
        if draw(st.booleans()):  # a multiple of an earlier column
            a[:, j] = draw(st.sampled_from([-2.0, 0.5, 3.0])) * a[:, draw(st.integers(0, j - 1))]
    return a


def _refusal(mixing):
    try:
        validate_mixing_matrix(mixing)
    except ValueError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(a=two_row_matrices(), e=st.integers(-1000, 1000))
def test_validate_mixing_matrix_decides_the_same_at_every_scale(a, e):
    # every nonzero |entry| lies in [2**-12, 2**6], so times 2**e it stays a normal float
    assert _refusal(np.ldexp(a, e)) == _refusal(a)
