import re
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ubss import (
    ConfigError,
    ExperimentConfig,
    OverlapMode,
    ThUwbConfig,
    generate_sources,
    load_config,
)
from ubss.config import default_activity_eps, parse_matrix
from ubss.pipeline import build_sources

FULL_CFG = """\
[signal]
chip_len = 10
frame_len = 40
total_len = 120
n_sources = 3
seed = 11
occupancy = 0.75
pulse_orders = 0, 1, 2

[mixing]
matrix = 0.4 0.6 0.3 ; 0.8 0.1 0.5

[estimation]
quantum = 2e-4
peak_fraction = 0.2
activity_eps = 1e-9

[run]
overlap_mode = allow_three
output_dir = out/full
"""

MINIMAL_CFG = """\
[signal]
chip_len = 10
frame_len = 40
total_len = 120
n_sources = 3
seed = 7

[mixing]
matrix = 0.4 0.6 0.3 ; 0.8 0.1 0.5

[run]
output_dir = out/minimal
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_config_full(tmp_path):
    cfg = load_config(_write(tmp_path, FULL_CFG))
    assert cfg.th_uwb.chip_len == 10
    assert cfg.th_uwb.frame_len == 40
    assert cfg.th_uwb.total_len == 120
    assert cfg.th_uwb.n_sources == 3
    assert cfg.th_uwb.seed == 11
    assert cfg.th_uwb.occupancy == 0.75
    assert cfg.th_uwb.pulse_orders == (0, 1, 2)
    assert np.array_equal(cfg.mixing, [[0.4, 0.6, 0.3], [0.8, 0.1, 0.5]])
    assert cfg.quantum == 2e-4
    assert cfg.peak_fraction == 0.2
    assert cfg.activity_eps == 1e-9
    assert cfg.th_uwb.overlap_mode is OverlapMode.ALLOW_THREE
    assert str(cfg.output_dir) == "out/full"


def test_load_config_defaults(tmp_path):
    cfg = load_config(_write(tmp_path, MINIMAL_CFG))
    assert cfg.th_uwb.occupancy == 1.0
    assert cfg.th_uwb.pulse_orders == (0, 1, 2)
    assert np.array_equal(cfg.mixing, [[0.4, 0.6, 0.3], [0.8, 0.1, 0.5]])
    assert cfg.quantum == 1e-4
    assert cfg.peak_fraction == 0.1
    assert cfg.activity_eps is None
    assert cfg.th_uwb.overlap_mode is OverlapMode.AT_MOST_TWO


def test_load_config_random_matrix(tmp_path):
    # the matrix is given, never drawn: "random" is not a matrix, and a file
    # that leaves the matrix out is refused (test_load_config_missing_sections
    # covers a file without [mixing])
    path = _write(tmp_path, FULL_CFG.replace("0.4 0.6 0.3 ; 0.8 0.1 0.5", "random"))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == (
        "[mixing] matrix: matrix row 1: could not convert string to float: 'random'"
    )
    no_matrix = FULL_CFG.replace("matrix = 0.4 0.6 0.3 ; 0.8 0.1 0.5\n", "")
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, no_matrix))
    assert str(info.value) == "[mixing] is missing required key 'matrix'"


def test_load_config_refuses_unknown_entries(tmp_path):
    typo = FULL_CFG.replace("peak_fraction = 0.2", "peak_fracton = 0.5")
    with pytest.raises(ConfigError, match=r"unknown entries: \[estimation\] peak_fracton$"):
        load_config(_write(tmp_path, typo))
    retired = FULL_CFG.replace("0.8 0.1 0.5\n", "0.8 0.1 0.5\nrows = 2\n")
    with pytest.raises(ConfigError, match=r"unknown entries: \[mixing\] rows$"):
        load_config(_write(tmp_path, retired))
    # a source's gain is its mixing column's; the pulse list holds orders only
    gains = FULL_CFG.replace("0, 1, 2\n", "0, 1, 2\npulse_amplitudes = 1.0, 2.0, 0.5\n")
    with pytest.raises(ConfigError, match=r"unknown entries: \[signal\] pulse_amplitudes$"):
        load_config(_write(tmp_path, gains))
    extra = MINIMAL_CFG + "verbose = yes\n\n[plots]\nwidth = 3\n"
    with pytest.raises(ConfigError, match=r"unknown entries: \[plots\], \[run\] verbose$"):
        load_config(_write(tmp_path, extra))
    # FULL_CFG holds every key the loader reads; [mixing] has no seed, as the
    # matrix is never drawn
    cfg = load_config(_write(tmp_path, FULL_CFG))
    assert np.array_equal(cfg.mixing, [[0.4, 0.6, 0.3], [0.8, 0.1, 0.5]])
    seeded = _write(tmp_path, FULL_CFG.replace("0.8 0.1 0.5\n", "0.8 0.1 0.5\nseed = 3\n"))
    with pytest.raises(ConfigError) as info:
        load_config(seeded)
    assert str(info.value) == f"config {seeded} has unknown entries: [mixing] seed"


def test_load_config_seed_override(tmp_path):
    path = _write(tmp_path, MINIMAL_CFG)
    assert load_config(path).th_uwb.seed == 7
    assert load_config(path, seed_override=42).th_uwb.seed == 42


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.cfg")


def test_load_config_malformed_file(tmp_path):
    # a key before any section header is a configparser error, reported as ConfigError
    with pytest.raises(ConfigError, match="malformed config .*no section headers"):
        load_config(_write(tmp_path, "seed = 3\n" + MINIMAL_CFG))


def test_load_config_missing_sections(tmp_path):
    with pytest.raises(ConfigError, match=r"missing the \[signal\] section"):
        load_config(_write(tmp_path, "[run]\noutput_dir = out\n"))
    with pytest.raises(ConfigError, match=r"missing the \[run\] section"):
        load_config(_write(tmp_path, MINIMAL_CFG.split("[run]")[0]))
    # no matrix is drawn for a file without [mixing]
    path = _write(tmp_path, re.sub(r"\[mixing\]\n.*\n", "", MINIMAL_CFG))
    with pytest.raises(ConfigError) as info:
        load_config(path)
    assert str(info.value) == f"config {path} is missing the [mixing] section"


def test_load_config_missing_and_bad_keys(tmp_path):
    broken = MINIMAL_CFG.replace("chip_len = 10\n", "")
    with pytest.raises(ConfigError, match="missing required key 'chip_len'"):
        load_config(_write(tmp_path, broken))
    broken = MINIMAL_CFG.replace("chip_len = 10", "chip_len = ten")
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, broken))
    # one section prefix: the value is parsed before the layout is built
    assert str(info.value) == (
        "[signal] chip_len = 'ten': invalid literal for int() with base 10: 'ten'"
    )
    broken = MINIMAL_CFG.replace("frame_len = 40", "frame_len = 45")
    with pytest.raises(ConfigError, match="multiple of chip_len"):
        load_config(_write(tmp_path, broken))


def test_load_config_pulse_list_length(tmp_path):
    broken = MINIMAL_CFG.replace("seed = 7", "seed = 7\npulse_orders = 0, 1")
    with pytest.raises(ConfigError, match="must list 3 values"):
        load_config(_write(tmp_path, broken))
    # checked before the layout is built, so it is named when the layout is wrong too
    broken = broken.replace("frame_len = 40", "frame_len = 45")
    with pytest.raises(ConfigError, match="must list 3 values"):
        load_config(_write(tmp_path, broken))
    for n in (0, -2):
        broken = MINIMAL_CFG.replace("n_sources = 3", f"n_sources = {n}")
        with pytest.raises(ConfigError) as info:
            load_config(_write(tmp_path, broken))
        assert str(info.value) == f"[signal] n_sources must be >= 1, got {n}"


def test_degenerate_pulse_message_is_the_same_from_file_and_code(tmp_path):
    # an order-1 pulse one sample wide samples only its zero crossing
    text = MINIMAL_CFG.replace("chip_len = 10\nframe_len = 40", "chip_len = 1\nframe_len = 4")
    with pytest.raises(ConfigError) as from_file:
        load_config(_write(tmp_path, text))
    with pytest.raises(ValueError) as from_code:
        ThUwbConfig(chip_len=1, frame_len=4, total_len=120,
                    pulse_orders=[0, 1, 2], seed=0)
    expected = "degenerate pulse: order 1 at width 1 is identically zero"
    assert str(from_code.value) == expected
    assert str(from_file.value) == f"[signal]: {expected}"


def test_overlap_mode_default_is_the_same_from_file_and_code(tmp_path):
    # MINIMAL_CFG sets no overlap_mode, so file and code share the layout's default
    cfg = load_config(_write(tmp_path, MINIMAL_CFG))
    th = ThUwbConfig(chip_len=10, frame_len=40, total_len=120,
                     pulse_orders=[0, 1, 2], seed=7)
    assert cfg.th_uwb.overlap_mode is th.overlap_mode is OverlapMode.AT_MOST_TWO
    assert cfg.th_uwb == th
    assert np.array_equal(build_sources(cfg), generate_sources(th))


def test_load_config_matrix_errors(tmp_path):
    bad = FULL_CFG.replace("0.4 0.6 0.3 ; 0.8 0.1 0.5", "0.4 0.6 ; 0.8 0.1")
    with pytest.raises(ConfigError, match="2 columns for 3 sources"):
        load_config(_write(tmp_path, bad))
    bad = FULL_CFG.replace("0.4 0.6 0.3 ; 0.8 0.1 0.5", "1 2 4 ; 2 4 8")
    with pytest.raises(ConfigError, match=r"\[mixing\] matrix: .*parallel"):
        load_config(_write(tmp_path, bad))
    # columns whose norms overflow the float range are parallel all the same
    bad = FULL_CFG.replace("0.4 0.6 0.3 ; 0.8 0.1 0.5", "1e308 1e308 1 ; 1e308 1e308 2")
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, bad))
    assert str(info.value) == "[mixing] matrix: mixing matrix columns 0 and 1 are parallel"
    # the ratio model's rules are refused at load, not first at run
    bad = FULL_CFG.replace("0.4 0.6 0.3 ; 0.8 0.1 0.5", "0.4 0.0 0.3 ; 0.8 0.1 0.5")
    with pytest.raises(ConfigError, match=r"\[mixing\] matrix: column 1 has a zero first entry"):
        load_config(_write(tmp_path, bad))
    bad = FULL_CFG.replace("0.4 0.6 0.3 ; 0.8 0.1 0.5", "0.4 0.6 0.3 ; 0.8 0.1 0.5 ; 0.2 0.9 0.7")
    with pytest.raises(ConfigError, match="exactly 2 mixture channels, got 3"):
        load_config(_write(tmp_path, bad))
    bad = FULL_CFG.replace("0.4 0.6 0.3 ; 0.8 0.1 0.5", "0.4 x ; 0.8 0.1")
    with pytest.raises(ConfigError, match=r"\[mixing\] matrix: matrix row 1"):
        load_config(_write(tmp_path, bad))


def test_load_config_estimation_bounds(tmp_path):
    bad = FULL_CFG.replace("quantum = 2e-4", "quantum = 0")
    with pytest.raises(ConfigError, match="quantum must be positive"):
        load_config(_write(tmp_path, bad))
    bad = FULL_CFG.replace("peak_fraction = 0.2", "peak_fraction = 1.5")
    with pytest.raises(ConfigError, match="peak_fraction must lie in"):
        load_config(_write(tmp_path, bad))
    bad = FULL_CFG.replace("activity_eps = 1e-9", "activity_eps = -1")
    with pytest.raises(ConfigError, match="activity_eps must be positive"):
        load_config(_write(tmp_path, bad))


def test_load_config_overlap_mode(tmp_path):
    bad = FULL_CFG.replace("overlap_mode = allow_three", "overlap_mode = sometimes")
    with pytest.raises(ConfigError, match="overlap_mode must be one of"):
        load_config(_write(tmp_path, bad))


def test_overlap_mode_message_is_the_same_from_file_and_code(tmp_path):
    bad = FULL_CFG.replace("overlap_mode = allow_three", "overlap_mode = sometimes")
    with pytest.raises(ConfigError) as from_file:
        load_config(_write(tmp_path, bad))
    with pytest.raises(ValueError) as from_code:
        ThUwbConfig(chip_len=10, frame_len=40, total_len=120, pulse_orders=[0] * 3,
                    seed=0, overlap_mode="sometimes")
    expected = "overlap_mode must be one of at_most_two, allow_three, got 'sometimes'"
    assert str(from_code.value) == expected
    assert str(from_file.value) == f"[run] overlap_mode = 'sometimes': {expected}"


@pytest.mark.parametrize("key", ["quantum", "activity_eps"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_settings_are_refused(tmp_path, key, value):
    text = re.sub(rf"^{key} = .*$", f"{key} = {value}", FULL_CFG, flags=re.M)
    with pytest.raises(ConfigError, match=f"^{key} must be positive and finite, got {value}$"):
        load_config(_write(tmp_path, text))
    th = ThUwbConfig(chip_len=10, frame_len=40, total_len=120, pulse_orders=[0] * 3,
                     seed=0)
    with pytest.raises(ConfigError, match=f"^{key} must be positive and finite"):
        ExperimentConfig(th_uwb=th, mixing=np.array([[1.0, 1.0, 1.0], [0.5, 1.0, 2.0]]),
                         output_dir=Path("unused"), **{key: value})


def test_negative_mixing_seed_is_refused_at_load(tmp_path):
    # [mixing] takes no seed at all, so any value is refused as an unknown key
    for value in ("-5", "5"):
        text = FULL_CFG.replace("0.8 0.1 0.5\n", f"0.8 0.1 0.5\nseed = {value}\n")
        path = _write(tmp_path, text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == f"config {path} has unknown entries: [mixing] seed"


def test_config_error_is_value_error():
    assert issubclass(ConfigError, ValueError)


def test_parse_matrix():
    m = parse_matrix("1 2 ; 3 4")
    assert np.array_equal(m, [[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ConfigError, match="row 2 is empty"):
        parse_matrix("1 2 ;")
    with pytest.raises(ConfigError, match="unequal lengths"):
        parse_matrix("1 2 ; 3")
    with pytest.raises(ConfigError, match="matrix row 1"):
        parse_matrix("1 x ; 3 4")


def test_overlap_mode_chip_floor(tmp_path):
    # at_most_two needs n_sources + 1 chips per frame; the layout refuses fewer
    # when it is built, so the loader does too
    capped = FULL_CFG.replace("overlap_mode = allow_three", "overlap_mode = at_most_two")
    three_chips = capped.replace("frame_len = 40", "frame_len = 30")
    with pytest.raises(ConfigError) as info:
        load_config(_write(tmp_path, three_chips))
    assert str(info.value) == "[signal]: at_most_two needs at least 4 chips per frame, got 3"
    assert load_config(_write(tmp_path, capped)).th_uwb.n_chips == 4
    # free overlaps need no spare chip; test_signals sweeps the rule itself
    free = three_chips.replace("overlap_mode = at_most_two", "overlap_mode = allow_three")
    assert load_config(_write(tmp_path, free)).th_uwb.n_chips == 3


def test_hop_windows_cap_reachable_chips(tmp_path):
    # no chip is reachable by more than two sources, but one shared chip exists
    for n_sources, n_chips in ((3, 4), (4, 5), (5, 8)):
        text = MINIMAL_CFG.replace("frame_len = 40", f"frame_len = {10 * n_chips}")
        text = text.replace("total_len = 120", f"total_len = {2000 * n_chips}")
        text = text.replace("n_sources = 3", f"n_sources = {n_sources}")
        ratios = " ".join(str(k + 1) for k in range(n_sources))
        text = text.replace("0.4 0.6 0.3 ; 0.8 0.1 0.5", f"{'1 ' * n_sources}; {ratios}")
        sources = build_sources(load_config(_write(tmp_path, text)))
        reach = {}
        for k in range(n_sources):
            starts = np.flatnonzero(sources[:, k])[::10]
            for c in set((starts % (10 * n_chips)) // 10):
                reach.setdefault(c, []).append(k)
        assert max(len(v) for v in reach.values()) == 2


def test_default_activity_eps():
    x1 = np.array([0.0, -2.0, 1.0])
    assert default_activity_eps(x1) == pytest.approx(2e-6, rel=1e-12)
    with pytest.raises(ValueError, match="all-zero channel"):
        default_activity_eps(np.zeros(5))


def _three_site_validate(mixing, ratio_model=False):
    """The mixing-matrix check as it stood when three sites ran it under two rules."""
    a = np.asarray(mixing, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"mixing matrix must be 2-D and non-empty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("mixing matrix entries must be finite")
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms == 0.0):
        raise ValueError("mixing matrix has an all-zero column")
    unit = a / norms
    n = a.shape[1]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(abs(float(unit[:, i] @ unit[:, j])) - 1.0) < 1e-12:
                raise ValueError(f"mixing matrix columns {i} and {j} are parallel")
    if ratio_model and np.any(a[0] == 0.0):
        bad = int(np.flatnonzero(a[0] == 0.0)[0])
        raise ValueError(f"column {bad} has a zero first entry; ratio estimation needs a[0,:] != 0")
    return a


def _three_site_messages(a, n_sources):
    """The message of each check the old path ran before run_experiment accepted a matrix.

    Load ran the plain check and the column count; run_experiment and stage_mix
    then ran the ratio-model check and the two-row rule.  Empty when all pass.
    """

    def column_count(a):
        if a.shape[1] != n_sources:
            raise ValueError(f"[mixing] matrix has {a.shape[1]} columns for {n_sources} sources")

    def two_rows(a):
        if a.shape[0] != 2:
            raise ValueError(f"estimation requires exactly 2 mixture channels, got {a.shape[0]}")

    messages = []
    ratio_model = partial(_three_site_validate, ratio_model=True)
    for check in (_three_site_validate, column_count, ratio_model, two_rows):
        try:
            check(a)
        except ValueError as exc:
            messages.append(str(exc))
    return messages


@st.composite
def mixing_cases(draw):
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    # non-finite entries are rare, or they would hide every later rule
    entries = st.sampled_from([0.0, 0.5, -0.5, 1.0, 2.0] * 6 + [np.inf, np.nan])
    a = np.array(draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                                min_size=rows, max_size=rows)))
    for j in range(1, cols):
        if draw(st.booleans()):  # an exact multiple of an earlier column
            a[:, j] = draw(st.sampled_from([-2.0, 0.5, 3.0])) * a[:, draw(st.integers(0, j - 1))]
    n_sources = draw(st.sampled_from([cols, cols, max(1, cols - 1), cols + 1]))
    return a, n_sources


@settings(max_examples=400, deadline=None)
@given(case=mixing_cases())
def test_experiment_config_matches_the_three_site_oracle(case):
    a, n_sources = case
    expected = _three_site_messages(a, n_sources)
    th = ThUwbConfig(chip_len=10, frame_len=40, total_len=120,
                     pulse_orders=[0] * n_sources, seed=0,
                     overlap_mode=OverlapMode.ALLOW_THREE)
    fields = dict(
        th_uwb=th,
        mixing=a.copy(),
        output_dir=Path("unused"),
    )
    if not expected:
        assert np.array_equal(ExperimentConfig(**fields).mixing, a)
        return
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(**fields)
    # the two-row rule now runs before the entry rules, so where several rules
    # fail the message may name another one than the old path's first
    assert any(m in str(info.value) for m in expected), (str(info.value), expected)
