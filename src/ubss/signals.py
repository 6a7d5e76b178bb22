"""Sparse pulse-train synthesis and instantaneous linear mixing.

Each source is a time-hopping train of Gaussian-derivative pulses: time is
split into frames, every frame carries at most one pulse, and the pulse sits
in a pseudo-randomly chosen chip slot inside the frame.  Mixtures are
memoryless linear combinations x(t) = A s(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_VALID_ORDERS = (0, 1, 2)


@dataclass(frozen=True)
class PulseSpec:
    """Shape of a single pulse: a Gaussian bell or one of its derivatives.

    order: 0 for the bell itself, 1 or 2 for the first or second derivative.
    width_samples: support length in samples.
    amplitude: peak absolute value of the sampled pulse.
    """

    order: int
    width_samples: int
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if self.order not in _VALID_ORDERS:
            raise ValueError(f"pulse order must be one of {_VALID_ORDERS}, got {self.order}")
        if self.width_samples < 1:
            raise ValueError(f"pulse width must be >= 1 sample, got {self.width_samples}")
        if not math.isfinite(self.amplitude) or self.amplitude == 0.0:
            raise ValueError(f"pulse amplitude must be finite and nonzero, got {self.amplitude}")


@dataclass(frozen=True)
class ThUwbConfig:
    """Time-hopping layout shared by all sources of one run.

    frame_len must be a positive multiple of chip_len; a pulse occupies one
    chip.  occupancy is the per-frame emission probability (0 allowed, which
    yields silent sources).
    """

    chip_len: int
    frame_len: int
    total_len: int
    n_sources: int
    seed: int
    occupancy: float = 1.0

    def __post_init__(self) -> None:
        if self.chip_len < 1:
            raise ValueError(f"chip_len must be >= 1, got {self.chip_len}")
        if self.frame_len < 1 or self.frame_len % self.chip_len != 0:
            raise ValueError(
                f"frame_len must be a positive multiple of chip_len, got "
                f"frame_len={self.frame_len} chip_len={self.chip_len}"
            )
        if self.total_len < self.frame_len:
            raise ValueError(f"total_len must be >= frame_len, got {self.total_len}")
        if self.n_sources < 1:
            raise ValueError(f"n_sources must be >= 1, got {self.n_sources}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not 0.0 <= self.occupancy <= 1.0:
            raise ValueError(f"occupancy must lie in [0, 1], got {self.occupancy}")

    @property
    def n_chips(self) -> int:
        return self.frame_len // self.chip_len

    @property
    def n_frames(self) -> int:
        # trailing partial frame included
        return -(-self.total_len // self.frame_len)


def pulse_shape(spec: PulseSpec) -> np.ndarray:
    """Sampled pulse of length spec.width_samples.

    The underlying bell is exp(-2*pi*u**2) with u = (t - c) / (width / 4),
    centered on the sample grid at c = (width - 1) / 2, so odd widths hit the
    extremum exactly.  The order-th derivative in u is evaluated and rescaled
    so the largest absolute sample equals spec.amplitude.
    """
    w = spec.width_samples
    u = (np.arange(w) - 0.5 * (w - 1)) / (w / 4.0)
    bell = np.exp(-2.0 * np.pi * u * u)
    if spec.order == 0:
        raw = bell
    elif spec.order == 1:
        raw = -4.0 * np.pi * u * bell
    else:
        raw = (16.0 * np.pi**2 * u * u - 4.0 * np.pi) * bell
    peak = float(np.max(np.abs(raw)))
    if peak == 0.0:
        raise ValueError(f"degenerate pulse: order {spec.order} at width {w} is identically zero")
    return spec.amplitude / peak * raw


def _check_hop_windows(windows, n_sources: int, n_chips: int) -> list[tuple[int, int]]:
    if len(windows) != n_sources:
        raise ValueError(f"expected {n_sources} hop windows, got {len(windows)}")
    out = []
    for k, (start, count) in enumerate(windows):
        if count < 1 or start < 0 or start + count > n_chips:
            raise ValueError(
                f"hop window {(start, count)} of source {k} does not fit in {n_chips} chips"
            )
        out.append((int(start), int(count)))
    return out


def generate_sources(
    cfg: ThUwbConfig,
    pulses: list[PulseSpec],
    hop_windows: list[tuple[int, int]] | None = None,
) -> np.ndarray:
    """Build the (total_len, n_sources) source matrix.

    Per source k a dedicated generator seeded with [cfg.seed, k] draws, for
    every frame in fixed order: an occupancy gate, a chip index, and a pulse
    sign (+1 or -1).  All three draws happen whether or not the frame emits,
    so equal seeds give equal signals regardless of occupancy.  A frame emits
    when its gate is below occupancy and the chosen chip lies entirely inside
    total_len; the trailing partial frame therefore only emits from chips it
    fully contains.

    hop_windows optionally restricts source k to chips
    [start_k, start_k + count_k); by default every source hops over the whole
    frame.
    """
    if len(pulses) != cfg.n_sources:
        raise ValueError(f"expected {cfg.n_sources} pulse specs, got {len(pulses)}")
    for k, p in enumerate(pulses):
        if p.width_samples > cfg.chip_len:
            raise ValueError(
                f"pulse {k} is {p.width_samples} samples wide, wider than a chip ({cfg.chip_len})"
            )
    if hop_windows is None:
        hop_windows = [(0, cfg.n_chips)] * cfg.n_sources
    hop_windows = _check_hop_windows(hop_windows, cfg.n_sources, cfg.n_chips)

    out = np.zeros((cfg.total_len, cfg.n_sources))
    for k in range(cfg.n_sources):
        rng = np.random.default_rng([cfg.seed, k])
        shape = pulse_shape(pulses[k])
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
            out[chip_start : chip_start + pulses[k].width_samples, k] = sign * shape
    return out


def mix(sources: np.ndarray, mixing: np.ndarray) -> np.ndarray:
    """Apply x(t) = A s(t) rowwise: (T, N) sources, (M, N) matrix -> (T, M)."""
    s = np.asarray(sources, dtype=float)
    a = np.asarray(mixing, dtype=float)
    if s.ndim != 2:
        raise ValueError(f"sources must be 2-D (samples x sources), got shape {s.shape}")
    if a.ndim != 2:
        raise ValueError(f"mixing matrix must be 2-D, got shape {a.shape}")
    if a.shape[1] != s.shape[1]:
        raise ValueError(
            f"mixing matrix has {a.shape[1]} columns but there are {s.shape[1]} sources"
        )
    return s @ a.T


def validate_mixing_matrix(mixing: np.ndarray) -> np.ndarray:
    """Check a mixing matrix against the two-channel ratio model.

    The ratio estimation reads each column off x2/x1, so the matrix must be
    2 x N with finite entries, no zero or parallel columns, and a nonzero
    first row (columns are normalized by their first entry).
    """
    a = np.asarray(mixing, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"mixing matrix must be 2-D and non-empty, got shape {a.shape}")
    if a.shape[0] != 2:
        raise ValueError(f"estimation requires exactly 2 mixture channels, got {a.shape[0]}")
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
    if np.any(a[0] == 0.0):
        bad = int(np.flatnonzero(a[0] == 0.0)[0])
        raise ValueError(f"column {bad} has a zero first entry; ratio estimation needs a[0,:] != 0")
    return a
