"""Correctness checks made apart from the package, outside the timed section.

Each check recomputes what the output must be from the inputs the benchmark
itself made (the true mixing matrix and sources) or with a different
implementation (np.loadtxt, np.corrcoef, xml.etree), and raises CheckFailed
when the program's output disagrees.  None compares against stored output.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import numpy as np

SVG_NS = "{http://www.w3.org/2000/svg}"
REMIX_TOL = 1e-10  # relative error of a re-mixed active sample
CORR_TOL = 1e-9  # absolute difference from np.corrcoef
ACTIVITY_REL = 1e-6  # default activity threshold, relative to max |x1|


class CheckFailed(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def true_ratios(mixing: np.ndarray) -> np.ndarray:
    return mixing[1] / mixing[0]


def ratio_set(ratios: np.ndarray, mixing: np.ndarray, quantum: float) -> np.ndarray:
    """The estimated ratios match the true a2k/a1k one to one, within quantum/2.

    Returns, per estimated column, the index of its true source.
    """
    want = true_ratios(mixing)
    _require(ratios.size == want.size,
             f"estimated {ratios.size} columns for {want.size} sources")
    match = np.argmin(np.abs(ratios[:, None] - want[None, :]), axis=1)
    _require(np.unique(match).size == want.size,
             f"two estimated ratios match one source: {ratios.tolist()}")
    err = float(np.max(np.abs(ratios - want[match])))
    _require(err <= quantum / 2 + 1e-12,
             f"ratio error {err:.3g} exceeds quantum/2 = {quantum / 2:.3g}")
    return match


def activity_eps(eps: float, mixtures: np.ndarray, configured: float | None = None) -> None:
    """The threshold is the documented one: as configured, else 1e-6 of max |x1|."""
    want = configured if configured is not None else (
        ACTIVITY_REL * float(np.max(np.abs(mixtures[:, 0]))))
    _require(eps == want, f"activity_eps {eps!r}, expected {want!r}")


def histogram_counts(hist, mixtures: np.ndarray, eps: float) -> None:
    """The histogram holds the ratio of every sample with |x1| > eps, once."""
    want = int(np.count_nonzero(np.abs(mixtures[:, 0]) > eps))
    _require(hist.active_samples == want,
             f"histogram counts {hist.active_samples} active samples, recount {want}")
    total = sum(hist.bins.values())
    _require(total == want, f"histogram holds {total} of {want} ratios")


def active_pairs(mixtures: np.ndarray, pairs: np.ndarray, eps: float) -> None:
    """Exactly the samples with max(|x1|, |x2|) > eps have a pair of two columns."""
    active = np.maximum(np.abs(mixtures[:, 0]), np.abs(mixtures[:, 1])) > eps
    has_pair = pairs[:, 0] >= 0
    missing = int(np.count_nonzero(active & ~has_pair))
    extra = int(np.count_nonzero(~active & has_pair))
    _require(missing == 0, f"{missing} of {int(active.sum())} active samples have no pair")
    _require(extra == 0, f"{extra} inactive samples have a pair")
    i, j = pairs[has_pair, 0], pairs[has_pair, 1]
    _require(bool(np.all((j >= 0) & (i != j))), "a selected pair is not two columns")
    _require(bool(np.all(pairs[~has_pair] == -1)), "an inactive sample's pair is not -1, -1")


def remix(mixtures: np.ndarray, separated: np.ndarray, pairs: np.ndarray,
          ratios: np.ndarray) -> None:
    """Every sample with a selected pair re-mixes through that pair to its input.

    All other outputs of the sample, and every output of a sample without a
    pair, are zero.
    """
    rows = np.flatnonzero(pairs[:, 0] >= 0)
    _require(rows.size > 0, "no sample was separated")
    i, j = pairs[rows, 0], pairs[rows, 1]
    s_i, s_j = separated[rows, i], separated[rows, j]
    x = mixtures[rows]
    x1 = s_i + s_j
    x2 = ratios[i] * s_i + ratios[j] * s_j
    scale = np.maximum(np.abs(x[:, 0]), np.abs(x[:, 1]))
    err = np.maximum(np.abs(x1 - x[:, 0]), np.abs(x2 - x[:, 1])) / scale
    worst = float(err.max())
    _require(worst <= REMIX_TOL, f"re-mixed sample off by {worst:.3g} relative")
    stray = np.count_nonzero(separated) - np.count_nonzero(s_i) - np.count_nonzero(s_j)
    _require(stray == 0, f"{stray} outputs are nonzero outside the selected pair")


def _bits(active: np.ndarray) -> np.ndarray:
    return active.astype(np.int64) @ (np.int64(1) << np.arange(active.shape[1], dtype=np.int64))


def exact_recovery(sources: np.ndarray, mixing: np.ndarray, mixtures: np.ndarray,
                   separated: np.ndarray, pairs: np.ndarray, ratios: np.ndarray,
                   match: np.ndarray) -> int:
    """Samples whose true active set lies inside the selected pair come out as a1k*s_k.

    The tolerance is what quantizing the ratios to the histogram grid costs
    (zero when the true ratios lie on the grid) plus 1e-10 of rounding.
    Returns how many samples were compared.
    """
    rows = np.flatnonzero(pairs[:, 0] >= 0)
    i, j = pairs[rows, 0], pairs[rows, 1]
    k_i, k_j = match[i], match[j]
    pair_bits = (np.int64(1) << k_i) | (np.int64(1) << k_j)
    covered = (_bits(sources[rows] != 0.0) & ~pair_bits) == 0
    rows, i, j, k_i, k_j = rows[covered], i[covered], j[covered], k_i[covered], k_j[covered]
    _require(rows.size > 0, "no sample has its active set inside the selected pair")

    u_i = mixing[0, k_i] * sources[rows, k_i]
    u_j = mixing[0, k_j] * sources[rows, k_j]
    r = true_ratios(mixing)
    d_i, d_j = r[k_i] - ratios[i], r[k_j] - ratios[j]
    gap = np.abs(ratios[j] - ratios[i])
    x = np.abs(mixtures[rows])
    tol = (np.abs(u_i * d_i) + np.abs(u_j * d_j)
           + REMIX_TOL * (x[:, 0] * (1 + np.abs(ratios[i]) + np.abs(ratios[j])) + x[:, 1])) / gap
    err = np.maximum(np.abs(separated[rows, i] - u_i), np.abs(separated[rows, j] - u_j))
    bad = int(np.count_nonzero(err > tol))
    _require(bad == 0, f"{bad} of {rows.size} covered samples are not recovered exactly")
    return int(rows.size)


def report_coefficients(truth: np.ndarray, separated: np.ndarray, report) -> None:
    """Each matched pair's coefficient is np.corrcoef's, 0 for a constant column."""
    matched = [(e, t) for e, t in enumerate(report.permutation) if t is not None]
    _require(len(matched) == min(separated.shape[1], truth.shape[1]),
             f"{len(matched)} columns matched")
    _require(len({t for _, t in matched}) == len(matched), "a source is matched twice")
    _require(len(report.coefficients) == len(matched), "one coefficient per match expected")
    for (e, t), got in zip(matched, report.coefficients):
        if np.ptp(separated[:, e]) == 0.0 or np.ptp(truth[:, t]) == 0.0:
            want = 0.0
        else:
            want = float(np.corrcoef(separated[:, e], truth[:, t])[0, 1])
        _require(abs(got - want) <= CORR_TOL,
                 f"C({e},{t}) = {got!r}, np.corrcoef gives {want!r}")


def recount(sources: np.ndarray, pairs: np.ndarray, permutation, wrong_pairs: int,
            max_simultaneous: int) -> None:
    """count_uncovered and max_simultaneous_sources agree with a bitmask recount."""
    active = sources != 0.0
    lut = np.array([0 if t is None else 1 << t for t in permutation], dtype=np.int64)
    rows = np.flatnonzero(pairs[:, 0] >= 0)
    pair_bits = lut[pairs[rows, 0]] | lut[pairs[rows, 1]]
    uncovered = int(np.count_nonzero(_bits(active[rows]) & ~pair_bits))
    _require(uncovered == wrong_pairs, f"count_uncovered {wrong_pairs}, recount {uncovered}")
    most = int(active.sum(axis=1).max())
    _require(most == max_simultaneous,
             f"max_simultaneous_sources {max_simultaneous}, recount {most}")


def mixtures_from_sources(sources: np.ndarray, mixing: np.ndarray,
                          mixtures: np.ndarray) -> None:
    """The mixtures equal sources @ A.T, up to rounding of the products."""
    bound = 1e-12 * (np.abs(sources) @ np.abs(mixing).T)
    over = int(np.count_nonzero(np.abs(sources @ mixing.T - mixtures) > bound))
    _require(over == 0, f"{over} mixture values differ from sources @ A.T")


def experiment(result, cfg) -> None:
    """Every in-memory check of one run_experiment result on config cfg."""
    eps = result.activity_eps
    activity_eps(eps, result.mixtures, cfg.activity_eps)
    match = ratio_set(result.estimated.ratios, result.mixing, cfg.quantum)
    mixtures_from_sources(result.sources, result.mixing, result.mixtures)
    histogram_counts(result.histogram, result.mixtures, eps)
    active_pairs(result.mixtures, result.pairs, eps)
    remix(result.mixtures, result.separated, result.pairs, result.estimated.ratios)
    exact_recovery(result.sources, result.mixing, result.mixtures, result.separated,
                   result.pairs, result.estimated.ratios, match)
    report_coefficients(result.sources, result.separated, result.report)
    recount(result.sources, result.pairs, result.report.permutation,
            result.wrong_pair_count, result.max_simultaneous)


def _lines(path, header: str) -> list[str]:
    with open(path, newline="") as fh:
        lines = fh.read().split("\n")
    _require(lines[0] == header, f"{path}: header {lines[0]!r}, expected {header!r}")
    _require(lines[-1] == "", f"{path}: no final newline")
    return lines[1:-1]


def csv_signals(path, expected: np.ndarray) -> np.ndarray:
    """np.loadtxt reads the file back equal to the expected array; returns it."""
    header = ",".join(f"ch{k + 1}" for k in range(expected.shape[1]))
    with open(path, newline="") as fh:
        first = fh.readline().rstrip("\n")
    _require(first == header, f"{path}: header {first!r}, expected {header!r}")
    got = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    _require(got.shape == expected.shape, f"{path}: shape {got.shape}, expected {expected.shape}")
    _require(np.array_equal(got, expected), f"{path}: values differ from the run's arrays")
    return got


def csv_matrix(path, ratios: np.ndarray) -> None:
    got = np.array([float(v) for v in _lines(path, "ratio")])
    _require(np.array_equal(got, ratios), f"{path}: {got.tolist()} != {ratios.tolist()}")


def csv_report(path, report) -> None:
    matched = [(e, t) for e, t in enumerate(report.permutation) if t is not None]
    want = [(e, t, c) for (e, t), c in zip(matched, report.coefficients)]
    got = []
    for line in _lines(path, "estimate_idx,true_idx,correlation"):
        e, t, c = line.split(",")
        got.append((int(e), int(t), float(c)))
    _require(got == want, f"{path}: rows {got} != {want}")


def csv_histogram(path, hist) -> None:
    keys = sorted(hist.bins)
    rows = [line.split(",") for line in _lines(path, "ratio,count")]
    _require(len(rows) == len(keys), f"{path}: {len(rows)} rows for {len(keys)} bins")
    values = np.array([float(r) for r, _ in rows])
    counts = [int(c) for _, c in rows]
    _require(bool(np.all(np.abs(values - np.array(keys)) <= 5e-5 + 1e-12)),
             f"{path}: ratio column differs from the bin keys")
    _require(counts == [hist.bins[k] for k in keys], f"{path}: counts differ from the bins")
    _require(sum(counts) == hist.active_samples,
             f"{path}: counts sum to {sum(counts)}, active samples {hist.active_samples}")


def svg_waveform(path, channels: int) -> None:
    root = ET.parse(path).getroot()
    _require(root.tag == SVG_NS + "svg", f"{path}: root element {root.tag}")
    lines = root.findall(SVG_NS + "polyline")
    _require(len(lines) == channels, f"{path}: {len(lines)} polylines for {channels} channels")
    _require(all(len(p.get("points", "").split()) >= 2 for p in lines),
             f"{path}: a polyline has fewer than 2 points")


def svg_histogram(path, n_bins: int) -> None:
    root = ET.parse(path).getroot()
    _require(root.tag == SVG_NS + "svg", f"{path}: root element {root.tag}")
    bars = len(root.findall(SVG_NS + "rect"))
    _require(bars == n_bins, f"{path}: {bars} bars for {n_bins} bins")


def artifacts(out_dir, result) -> None:
    """Every file run_experiment wrote reads back equal to its in-memory result."""
    sources = csv_signals(out_dir / "sources.csv", result.sources)
    mixtures = csv_signals(out_dir / "mixtures.csv", result.mixtures)
    mixtures_from_sources(sources, result.mixing, mixtures)
    csv_signals(out_dir / "separated.csv", result.separated)
    csv_matrix(out_dir / "estimated_matrix.csv", result.estimated.ratios)
    csv_histogram(out_dir / "histogram.csv", result.histogram)
    csv_report(out_dir / "report.csv", result.report)
    svg_waveform(out_dir / "sources.svg", result.sources.shape[1])
    svg_waveform(out_dir / "mixtures.svg", 2)
    svg_waveform(out_dir / "separated.svg", result.separated.shape[1])
    svg_histogram(out_dir / "histogram.svg", len(result.histogram.bins))
