"""End-to-end checks of the package's headline guarantees.

Each test prints one PASS/FAIL summary line; run

    pytest tests/test_acceptance.py -v -s

to see every line even when the whole suite is green.
"""

import time
from pathlib import Path

import numpy as np

from ubss import (
    EstimatedMatrix,
    ExperimentConfig,
    OverlapMode,
    PulseSpec,
    ThUwbConfig,
    align_and_score,
    generate_sources,
    load_config,
    mix,
    pulse_shape,
    random_mixing,
    run_experiment,
    separate,
)
from ubss import pipeline

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EXP1 = CONFIGS / "experiment1.cfg"
EXP2 = CONFIGS / "experiment2.cfg"


def _verdict(ok: bool, label: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}")
    assert ok, label


def _by_true(report) -> dict:
    """Correlation per true source index, for fully or partially matched runs."""
    coeffs = iter(report.coefficients)
    return {t: next(coeffs) for t in report.permutation if t is not None}


def _quiet(cfg) -> "pipeline.ExperimentResult":
    return run_experiment(cfg, write_files=False, verbose=False)


def test_01_exact_ratio_recovery_with_free_overlaps():
    t0 = time.perf_counter()
    result = _quiet(load_config(EXP2))
    elapsed = time.perf_counter() - t0
    got = np.sort(result.estimated.ratios)
    want = np.array([0.5, 1.8, 2.0])
    ok = (
        result.estimated.n_sources == 3
        and got.size == 3
        and float(np.max(np.abs(got - want))) <= 1e-12
        and elapsed < 1.0
    )
    _verdict(
        ok,
        f"1: ratio set {np.round(got, 4).tolist()} == {want.tolist()} exactly, "
        f"3 sources detected, {elapsed * 1000:.0f} ms",
    )


def test_02_exact_ratio_recovery_with_capped_overlaps():
    result = _quiet(load_config(EXP1))
    got = np.sort(result.estimated.ratios)
    want = np.array([0.1667, 1.6667, 2.0])
    ok = (
        result.estimated.n_sources == 3
        and got.size == 3
        and float(np.max(np.abs(got - want))) <= 1e-12
    )
    _verdict(
        ok,
        f"2: ratio set {np.round(got, 4).tolist()} == {want.tolist()} exactly, "
        f"3 sources detected",
    )


def test_03_capped_overlap_separation_quality():
    t0 = time.perf_counter()
    single = _quiet(load_config(EXP1))
    per_source = _by_true(single.report)
    ok = len(per_source) == 3 and all(c >= 0.99 for c in per_source.values())
    mins = []
    for seed in range(20):
        r = _quiet(load_config(EXP1, seed_override=seed))
        by_true = _by_true(r.report)
        ok = ok and r.estimated.n_sources == 3 and len(by_true) == 3
        mins.append(min(by_true.values()))
    elapsed = time.perf_counter() - t0
    mean_of_min = float(np.mean(mins))
    ok = ok and mean_of_min >= 0.99 and elapsed < 10.0
    _verdict(
        ok,
        f"3: shipped run C = {[round(per_source[t], 4) for t in range(3)]} all >= 0.99, "
        f"20-seed mean of min C = {mean_of_min:.4f} >= 0.99, {elapsed:.2f} s",
    )


def test_04_lone_source_recovery_oracle():
    a = np.array([[1.0, 0.5, 0.25], [0.9, 0.3, 1.1]])
    est = EstimatedMatrix(ratios=tuple(a[1] / a[0]))
    th = ThUwbConfig(chip_len=161, frame_len=644, total_len=2898, n_sources=3, seed=5)
    all_sources = generate_sources(th, [PulseSpec(order=k) for k in range(3)])
    worst = 0.0
    others_zero = True
    for k in range(3):
        sources = np.zeros_like(all_sources)
        sources[:, k] = all_sources[:, k]
        recovered = separate(mix(sources, a), est, 1e-300)
        others_zero = others_zero and all(
            np.all(recovered[:, j] == 0.0) for j in range(3) if j != k
        )
        target = a[0, k] * sources[:, k]
        active = target != 0.0
        rel = np.abs(recovered[active, k] - target[active]) / np.abs(target[active])
        worst = max(worst, float(rel.max(initial=0.0)))
    ok = others_zero and worst <= 1e-10
    _verdict(
        ok,
        f"4: lone-source recovery max rel err {worst:.2e} <= 1e-10, "
        f"other columns identically zero: {others_zero}",
    )


def test_05_recovered_pair_remixes_to_the_input():
    rng = np.random.default_rng(1234)
    total, worst = 0, 0.0
    while total < 10_000:
        n = int(rng.integers(3, 6))
        a = random_mixing(n, int(rng.integers(0, 2**31)))
        ratios = a[1] / a[0]
        est = EstimatedMatrix(ratios=tuple(ratios))
        x = rng.normal(size=(500, 2))
        x[rng.random(500) < 0.1, 0] = 0.0
        recovered, pairs = separate(x, est, 1e-12, return_pairs=True)
        rows = np.flatnonzero(pairs[:, 0] >= 0)
        i, j = pairs[rows, 0], pairs[rows, 1]
        s_i, s_j = recovered[rows, i], recovered[rows, j]
        x1 = s_i + s_j
        x2 = ratios[i] * s_i + ratios[j] * s_j
        scale = np.maximum(np.abs(x[rows, 0]), np.abs(x[rows, 1]))
        err = np.maximum(np.abs(x1 - x[rows, 0]), np.abs(x2 - x[rows, 1])) / scale
        worst = max(worst, float(err.max(initial=0.0)))
        total += rows.size
    ok = total >= 10_000 and worst <= 1e-10
    _verdict(ok, f"5: remix of {total} active samples, worst rel err {worst:.2e} <= 1e-10")


def test_06_two_active_sources_recovered_exactly():
    # positive unit pulses on every pair of columns, swept across overlaps;
    # whenever the selected pair is the truly active one the 2x2 solve must be
    # exact, and the pair the staggered hop layout lets co-fire (first and
    # last source) must never be misselected
    active_floor = 1e-6
    bell = pulse_shape(PulseSpec(order=0), 161)
    worst_conditional = 0.0
    shared_wrong = 0
    shared_samples = 0
    for a in (
        np.array([[0.4, 0.6, 0.3], [0.8, 0.1, 0.5]]),
        np.array([[0.5, 0.4, 0.3], [0.9, 0.2, 0.6]]),
    ):
        est = EstimatedMatrix(ratios=tuple(a[1] / a[0]))
        for i, j in ((0, 2), (0, 1), (1, 2)):
            for lag in (0, 40, 80, 120):
                u = np.zeros((161 + lag, 3))
                u[:161, i] = bell
                u[lag : lag + 161, j] += bell
                recovered, pairs = separate(u @ a.T, est, 1e-12, return_pairs=True)
                both = (np.abs(u[:, i]) > active_floor) & (np.abs(u[:, j]) > active_floor)
                for t in np.flatnonzero(both):
                    if {int(p) for p in pairs[t]} != {i, j}:
                        if (i, j) == (0, 2):
                            shared_wrong += 1
                        continue
                    t_i, t_j = a[0, i] * u[t, i], a[0, j] * u[t, j]
                    worst_conditional = max(
                        worst_conditional,
                        abs(recovered[t, i] - t_i) / abs(t_i),
                        abs(recovered[t, j] - t_j) / abs(t_j),
                    )
                if (i, j) == (0, 2):
                    shared_samples += int(both.sum())
    ok = worst_conditional <= 1e-6 and shared_wrong == 0 and shared_samples > 0
    _verdict(
        ok,
        f"6: correct-pair recovery rel err {worst_conditional:.2e} <= 1e-6, "
        f"co-firing pair misselected {shared_wrong}/{shared_samples} times",
    )


def _score(x, y):
    """The scorer's correlation of estimate y against source x."""
    return align_and_score(x[:, None], y[:, None]).coefficients[0]


def test_07_correlation_bounds_and_affine_invariance():
    rng = np.random.default_rng(77)
    ok = True
    largest = 0.0
    for _ in range(1000):
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        c = _score(x, y)
        largest = max(largest, abs(c))
        ok = ok and abs(c) <= 1.0 + 1e-12
        ok = ok and abs(_score(x, x) - 1.0) <= 1e-12
        gain = 0.0
        while gain == 0.0:
            gain = float(rng.normal())
        offset = float(rng.normal())
        ok = ok and abs(_score(x, gain * x + offset) - np.sign(gain)) <= 1e-12
    _verdict(
        ok,
        f"7: 1000 random pairs keep |C| <= 1 (max {largest:.4f}), C(x, x) = 1, "
        f"C(x, a*x + b) = sign(a), all to 1e-12",
    )


_OVERLAP_MATRIX = np.array([[1.0, 0.4, 0.9], [3.7, 0.1, 0.9]])


def _controlled_overlap_run(mode: OverlapMode):
    th = ThUwbConfig(
        chip_len=161,
        frame_len=644,
        total_len=90 * 644,
        n_sources=3,
        seed=27,
        occupancy=1.0 / 3.0,
        overlap_mode=mode,
    )
    cfg = ExperimentConfig(
        th_uwb=th,
        pulses=[PulseSpec(order=0)] * 3,
        mixing=_OVERLAP_MATRIX.copy(),
        output_dir=Path("unused"),
        peak_fraction=0.25,
    )
    return _quiet(cfg)


def test_08_free_overlaps_degrade_but_stay_usable():
    """Same seed, free against capped overlaps.

    On this seed wrong pairs appear exactly when three sources collide.  That
    is not a rule: two co-firing sources also get a wrong pair when a third
    column's angle lies between theirs (see the experiment2 seed-0 test in
    test_pipeline.py).
    """
    free = _controlled_overlap_run(OverlapMode.ALLOW_THREE)
    capped = _controlled_overlap_run(OverlapMode.AT_MOST_TWO)
    c_free = _by_true(free.report)
    c_capped = _by_true(capped.report)
    ok = len(c_free) == 3 and len(c_capped) == 3
    ok = ok and all(c_free[t] >= 0.8 for t in range(3))
    ok = ok and all(c_free[t] < c_capped[t] for t in range(3))
    ok = ok and free.max_simultaneous >= 3 and capped.max_simultaneous <= 2
    for r in (free, capped):
        ok = ok and (r.wrong_pair_count > 0) == (r.max_simultaneous >= 3)
    _verdict(
        ok,
        f"8: same seed, C {[round(c_free.get(t, 0.0), 4) for t in range(3)]} (free) all >= 0.8 "
        f"and strictly below {[round(c_capped.get(t, 0.0), 4) for t in range(3)]} (capped); "
        f"wrong pairs {free.wrong_pair_count}/{capped.wrong_pair_count} positive exactly "
        f"with >= 3 simultaneous sources on this seed",
    )


def test_09_repeated_runs_are_byte_identical(tmp_path):
    cfg = load_config(EXP1)
    run_experiment(cfg, out_dir=tmp_path / "a", verbose=False)
    run_experiment(cfg, out_dir=tmp_path / "b", verbose=False)
    names = [
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
    differing = [
        n for n in names if (tmp_path / "a" / n).read_bytes() != (tmp_path / "b" / n).read_bytes()
    ]
    ok = not differing
    detail = f", differing: {', '.join(differing)}" if differing else ""
    _verdict(ok, f"9: rerun artifacts byte-identical ({len(names)} files{detail})")
