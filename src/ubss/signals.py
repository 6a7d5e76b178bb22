"""Sparse pulse-train synthesis and instantaneous linear mixing.

Each source is a time-hopping train of Gaussian-derivative pulses: time is
split into frames, every frame carries at most one pulse, and the pulse fills
a pseudo-randomly chosen chip slot inside the frame.  The overlap mode of
the layout decides which chips each source may hop over.  Mixtures are
memoryless linear combinations x(t) = A s(t).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

_VALID_ORDERS = (0, 1, 2)


class OverlapMode(enum.Enum):
    AT_MOST_TWO = "at_most_two"
    ALLOW_THREE = "allow_three"

    @classmethod
    def _missing_(cls, value):
        valid = ", ".join(m.value for m in cls)
        raise ValueError(f"overlap_mode must be one of {valid}, got {value!r}")


@dataclass(frozen=True)
class ThUwbConfig:
    """Time-hopping layout of one run: its sources and how they hop.

    pulse_orders holds each source's Gaussian-derivative order, so it also
    sets n_sources; every pulse peaks at 1, so a source's gain is the scale of
    its mixing column.  Pulses are sampled chip_len wide and must not vanish
    there.  frame_len must be a positive multiple of chip_len; a pulse fills
    one chip.  occupancy is the per-frame emission probability (0 allowed,
    which yields silent sources).  overlap_mode ALLOW_THREE hops every source
    over the whole frame; AT_MOST_TWO, the default, staggers the sources so
    that no chip is reachable by more than two of them, which needs
    n_sources + 1 chips per frame once there are more than two sources.
    """

    chip_len: int
    frame_len: int
    total_len: int
    pulse_orders: tuple[int, ...]
    seed: int
    occupancy: float = 1.0
    overlap_mode: OverlapMode = OverlapMode.AT_MOST_TWO

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
        object.__setattr__(self, "pulse_orders", tuple(self.pulse_orders))
        if not self.pulse_orders:
            raise ValueError("pulse_orders must hold one order per source, got none")
        for order in self.pulse_orders:  # refuses a pulse that is identically zero at chip_len
            pulse_shape(order, self.chip_len)
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
        if not 0.0 <= self.occupancy <= 1.0:
            raise ValueError(f"occupancy must lie in [0, 1], got {self.occupancy}")
        object.__setattr__(self, "overlap_mode", OverlapMode(self.overlap_mode))
        capped = self.overlap_mode is OverlapMode.AT_MOST_TWO and self.n_sources > 2
        if capped and self.n_chips < self.n_sources + 1:
            raise ValueError(
                f"at_most_two needs at least {self.n_sources + 1} chips per frame,"
                f" got {self.n_chips}"
            )

    @property
    def n_sources(self) -> int:
        return len(self.pulse_orders)

    @property
    def n_chips(self) -> int:
        return self.frame_len // self.chip_len

    @property
    def n_frames(self) -> int:
        # trailing partial frame included
        return -(-self.total_len // self.frame_len)


def pulse_shape(order: int, width: int) -> np.ndarray:
    """Sampled pulse of length width: a Gaussian bell (order 0) or its first or
    second derivative (order 1 or 2).

    The underlying bell is exp(-2*pi*u**2) with u = (t - c) / (width / 4),
    centered on the sample grid at c = (width - 1) / 2, so odd widths hit the
    extremum exactly.  The order-th derivative in u is evaluated and rescaled
    so the largest absolute sample is 1.
    """
    if order not in _VALID_ORDERS:
        raise ValueError(f"pulse order must be one of {_VALID_ORDERS}, got {order}")
    u = (np.arange(width) - 0.5 * (width - 1)) / (width / 4.0)
    bell = np.exp(-2.0 * np.pi * u * u)
    if order == 0:
        raw = bell
    elif order == 1:
        raw = -4.0 * np.pi * u * bell
    else:
        raw = (16.0 * np.pi**2 * u * u - 4.0 * np.pi) * bell
    peak = float(np.max(np.abs(raw)))
    if peak == 0.0:
        raise ValueError(
            f"degenerate pulse: order {order} at width {width} is identically zero"
        )
    return 1.0 / peak * raw  # raw / peak would round some samples differently


def _hop_windows(cfg: ThUwbConfig) -> list[tuple[int, int]]:
    """Per-source (first chip, chip count) window realizing the overlap mode.

    AT_MOST_TWO gives the first and last source two-chip windows sharing
    chip 1 and every middle source a fixed chip of its own from chip 3 on.
    """
    n = cfg.n_sources
    if cfg.overlap_mode is OverlapMode.ALLOW_THREE or n <= 2:
        return [(0, cfg.n_chips)] * n
    return [(0, 2)] + [(3 + k, 1) for k in range(n - 2)] + [(1, 2)]


_LOW32 = 0xFFFFFFFF


def _frame_draws(rng: np.random.Generator, n_frames: int, count: int):
    """The (gate, chip, negative) arrays that, frame after frame,
    rng.random(), rng.integers(count) and rng.integers(2) would return.

    For 2 <= count <= 2**32 the draws are read in one bulk random_raw call and
    decoded the way default_rng's PCG64 hands them out.  random() takes a
    whole 64-bit word, (word >> 11) * 2**-53.  A 32-bit draw takes the low
    half of a fresh word and buffers the high half for the next one;
    integers(count) is Lemire's method on such a draw, and integers(2) is the
    top bit of the buffered half.  A one-chip window, a count past 32 bits and
    a chip draw that Lemire would reject (after a rewind) make the scalar calls.
    """
    if 2 <= count <= 2**32:
        saved = rng.bit_generator.state
        words = rng.bit_generator.random_raw(2 * n_frames).reshape(-1, 2)  # gate, chip + sign
        scaled = (words[:, 1] & _LOW32) * np.uint64(count)
        # Lemire rejects a draw whose product's low half is below 2**32 % count
        if not ((scaled & _LOW32) < 2**32 % count).any():
            return (words[:, 0] >> 11) * 2.0**-53, scaled >> 32, words[:, 1] >> 63
        rng.bit_generator.state = saved
    draws = [(rng.random(), rng.integers(count), rng.integers(2)) for _ in range(n_frames)]
    return tuple(np.array(column) for column in zip(*draws))


def generate_sources(cfg: ThUwbConfig) -> np.ndarray:
    """Build the (total_len, n_sources) source matrix of the layout, column-major.

    Per source k a dedicated generator seeded with [cfg.seed, k] draws, for
    every frame in fixed order: an occupancy gate (rng.random()), a chip
    index inside the source's hop window (rng.integers(count)), and a pulse
    sign, +1 or -1 (rng.integers(2)).  All three draws happen whether or not
    the frame emits, so equal seeds give equal signals regardless of
    occupancy.  A frame emits when its gate is below occupancy and the chosen
    chip lies entirely inside total_len; the trailing partial frame therefore
    only emits from chips it fully contains.  Source k's pulse has order
    cfg.pulse_orders[k] and is sampled at chip_len.  Being column-major changes
    no value.

    A source hopping over two or more chips reads its draws in one bulk call
    and decodes them to exactly the values those per-frame calls would return
    (see _frame_draws); its pulses are then written all at once.  The
    decoding rests on default_rng's PCG64; tests/test_signals.py pins it
    against the per-frame calls and against the per-frame generator.
    """
    out = np.zeros((cfg.total_len, cfg.n_sources), order="F")
    n_slots = cfg.total_len // cfg.chip_len  # whole chips only: no pulse spills past total_len
    first_slots = np.arange(cfg.n_frames) * cfg.n_chips
    for k, (start, count) in enumerate(_hop_windows(cfg)):
        rng = np.random.default_rng([cfg.seed, k])
        gate, chip, negative = _frame_draws(rng, cfg.n_frames, count)
        slot = first_slots + start + chip.astype(np.intp)
        emits = (gate < cfg.occupancy) & (slot < n_slots)
        negative = negative.astype(bool)
        slots = out[: n_slots * cfg.chip_len, k].reshape(n_slots, cfg.chip_len)
        shape = pulse_shape(cfg.pulse_orders[k], cfg.chip_len)
        slots[slot[emits & ~negative]] = shape
        slots[slot[emits & negative]] = -shape
    return out


def mix(sources: np.ndarray, mixing: np.ndarray) -> np.ndarray:
    """Apply x(t) = A s(t) rowwise: (T, N) sources, (M, N) matrix -> (T, M).

    A product that overflows is refused, naming its first row that holds inf or NaN.
    """
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
    with np.errstate(over="ignore"):
        return finite_mixtures(s @ a.T)


def finite_mixtures(x: np.ndarray) -> np.ndarray:
    """x itself; refused, naming its first such row, if it holds NaN or inf."""
    if not np.isfinite(x).all():  # one pass over the array; the row scan runs only on failure
        row = int(np.flatnonzero(~np.isfinite(x).all(axis=1))[0])
        raise ValueError(f"mixtures row {row} holds NaN or inf")
    return x


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
    peaks = np.max(np.abs(a), axis=0)
    if np.any(peaks == 0.0):
        raise ValueError("mixing matrix has an all-zero column")
    scaled = a / peaks  # entries in [-1, 1], so the norms neither overflow nor underflow
    unit = scaled / np.linalg.norm(scaled, axis=0)
    n = a.shape[1]
    for i in range(n):
        for j in range(i + 1, n):
            if abs(abs(float(unit[:, i] @ unit[:, j])) - 1.0) < 1e-12:
                raise ValueError(f"mixing matrix columns {i} and {j} are parallel")
    if np.any(a[0] == 0.0):
        bad = int(np.flatnonzero(a[0] == 0.0)[0])
        raise ValueError(f"column {bad} has a zero first entry; ratio estimation needs a[0,:] != 0")
    return a
