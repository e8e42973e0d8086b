"""Seedable input, noise and plant generators for the simulation harness.

The scalar input process is either white Gaussian or a first-order
autoregression driven by a symmetric two-component Gaussian mixture.  The
regressor seen by the filters is the tapped-delay line of the scalar process
(zero pre-padding before the first sample), and the unknown system is a
piecewise-constant schedule of weight vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "WhiteGaussian",
    "AR1GaussianMixture",
    "InputProcess",
    "PlantSchedule",
    "SignalStream",
    "gen_white_gaussian",
    "gen_ar1_mixture",
    "scalar_stream",
    "benchmark_plants",
    "benchmark_schedule",
    "simulate_plant",
]

AR1_BURN_IN = 1000


@dataclass(frozen=True)
class WhiteGaussian:
    """Zero-mean i.i.d. Gaussian scalar input with the given variance."""

    variance: float = 1.0

    def __post_init__(self):
        if not 0 < self.variance < np.inf:
            raise ValueError(f"input variance must be positive and finite, got {self.variance}")


@dataclass(frozen=True)
class AR1GaussianMixture:
    """First-order AR scalar input driven by a symmetric Gaussian mixture.

    The innovation is drawn from ``0.5 N(a sigma_v, sigma_v2) +
    0.5 N(-a sigma_v, sigma_v2)`` and fed through ``u_t = alpha u_{t-1} + v_t``.
    """

    alpha: float = 0.5
    a: float = 1.5
    sigma_v2: float = 4.0 / 13.0

    def __post_init__(self):
        if not abs(self.alpha) < 1:
            raise ValueError(f"AR coefficient must satisfy |alpha| < 1, got {self.alpha}")
        if not np.isfinite(self.a):
            raise ValueError(f"mixture offset a must be finite, got {self.a}")
        if not 0 < self.sigma_v2 < np.inf:
            raise ValueError(f"innovation variance must be positive and finite, got {self.sigma_v2}")
        if not np.isfinite(stationary_power(self)):
            raise ValueError(f"stationary input power (1 + a^2) sigma_v2 / (1 - alpha^2) "
                             f"must be finite, got {self}")


InputProcess = Union[WhiteGaussian, AR1GaussianMixture]


@dataclass(frozen=True)
class PlantSchedule:
    """Piecewise-constant true weight vectors with 1-based switch times.

    Segment ``k`` is active for samples ``start_k <= n < start_{k+1}`` (the
    last one until ``total_iterations`` inclusive).  The first start must be
    1, no start may pass ``total_iterations``, and all vectors share one length.
    """

    segments: tuple[tuple[int, np.ndarray], ...]
    total_iterations: int

    def __post_init__(self):
        if not self.segments:
            raise ValueError("schedule needs at least one segment")
        if self.segments[0][0] != 1:
            raise ValueError("first segment must start at iteration 1")
        starts = [s for s, _ in self.segments]
        if any(b <= a for a, b in zip(starts, starts[1:])):
            raise ValueError("segment starts must be strictly increasing")
        if starts[-1] > max(self.total_iterations, 1):
            raise ValueError(f"segment start {starts[-1]} lies past "
                             f"total_iterations={self.total_iterations}")
        L = self.segments[0][1].shape[0]
        if any(w.shape != (L,) for _, w in self.segments):
            raise ValueError("all plant vectors must share one length")

    @property
    def L(self) -> int:
        return self.segments[0][1].shape[0]

    def stage_bounds(self) -> list[tuple[int, int]]:
        """Half-open 0-based sample ranges of each segment."""
        starts = [s - 1 for s, _ in self.segments] + [self.total_iterations]
        return [(starts[k], starts[k + 1]) for k in range(len(self.segments))]


def gen_white_gaussian(n: int, variance: float, seed) -> np.ndarray:
    """``n`` i.i.d. zero-mean Gaussian samples, reproducible per seed."""
    if not variance > 0:
        raise ValueError("input variance must be positive")
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, np.sqrt(variance), size=n)


def gen_ar1_mixture(n: int, alpha: float, a: float, sigma_v2: float, seed) -> np.ndarray:
    """``n`` samples of the AR(1) process with Gaussian-mixture innovations.

    The recursion starts from zero and discards :data:`AR1_BURN_IN` samples
    so the returned stretch is approximately stationary.
    """
    if not abs(alpha) < 1:
        raise ValueError("AR coefficient must satisfy |alpha| < 1")
    rng = np.random.default_rng(seed)
    total = n + AR1_BURN_IN
    sigma_v = np.sqrt(sigma_v2)
    means = np.where(rng.random(total) < 0.5, a * sigma_v, -a * sigma_v)
    v = means + rng.normal(0.0, sigma_v, size=total)
    # numpy has no first-order scan; a loop over Python floats keeps the
    # package numpy-only at a few ms per 25k samples
    u = v.tolist()
    acc = 0.0
    for t, vt in enumerate(u):
        acc = vt + alpha * acc
        u[t] = acc
    return np.array(u[AR1_BURN_IN:])


def scalar_stream(process: InputProcess, n: int, seed) -> np.ndarray:
    """Draw ``n`` samples of the configured scalar input process."""
    if isinstance(process, WhiteGaussian):
        return gen_white_gaussian(n, process.variance, seed)
    if isinstance(process, AR1GaussianMixture):
        return gen_ar1_mixture(n, process.alpha, process.a, process.sigma_v2, seed)
    raise TypeError(f"unknown input process {process!r}")


def stationary_power(process: InputProcess) -> float:
    """Exact stationary variance of the scalar input process.

    For the AR(1) mixture this is (1 + a^2) sigma_v2 / (1 - alpha^2): the
    innovation variance of the symmetric two-component mixture divided by the
    usual AR(1) geometric factor.
    """
    if isinstance(process, WhiteGaussian):
        return process.variance
    if isinstance(process, AR1GaussianMixture):
        return (1.0 + process.a * process.a) * process.sigma_v2 / (1.0 - process.alpha**2)
    raise TypeError(f"unknown input process {process!r}")


def benchmark_plants() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three built-in length-35 plant vectors of the benchmark.

    The first and third are group-sparse (their nonzero coefficients sit in
    blocks of five); the second has no zero entry at all.
    """
    w1 = np.array(
        [0.8, 0.5, 0.3, 0.2, 0.1]
        + [0.0] * 15
        + [-0.05, -0.1, -0.2, -0.3, -0.5]
        + [0.0] * 5
        + [0.5, 0.25, 0.5, -0.25, -0.5]
    )
    w2 = np.array(
        [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]
        + [1.0] * 17
        + [-0.1, -0.2, -0.3, -0.4, -0.5, -0.6, -0.7, -0.8, -0.9]
    )
    w3 = np.array(
        [1.2, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.2, 0.5, 0.4]
        + [0.0] * 15
        + [-0.4, -0.5, -0.2, -0.4, -0.5, -0.6, -0.7, -0.8, -0.9, -1.2]
    )
    return w1, w2, w3


# 1-based iterations at which the benchmark plants take over, in order.
BENCHMARK_SWITCHES = (1, 8000, 16000)


def benchmark_schedule(total_iterations: int = 24000) -> PlantSchedule:
    """Built-in schedule of the three benchmark plants, switched at
    :data:`BENCHMARK_SWITCHES`.

    Switches past ``max(total_iterations, 1)`` never happen and are dropped.
    """
    segments = tuple(
        (start, w) for start, w in zip(BENCHMARK_SWITCHES, benchmark_plants())
        if start <= max(total_iterations, 1)
    )
    return PlantSchedule(segments=segments, total_iterations=total_iterations)


@dataclass(frozen=True)
class SignalStream:
    """One realization of the regressor/desired-signal pair.

    ``x_rev`` is the input reversed and zero-padded with ``L - 1`` samples,
    ``d`` the noisy plant output, ``plant_index[i]`` the active schedule
    segment at sample ``i`` (int64, sorted: segment ``k`` repeated over its
    samples, as :func:`simulate_plant` splits them).
    """

    x_rev: np.ndarray
    d: np.ndarray
    plant_index: np.ndarray
    schedule: PlantSchedule

    @property
    def U(self) -> np.ndarray:
        """Row ``i`` is the tapped-delay regressor ``[x_i, x_{i-1}, ...]``
        (zero pre-padding): a read-only window view into ``x_rev``."""
        L = self.schedule.L
        if self.x_rev.shape[0] < L:  # no samples
            return np.empty((0, L))
        return sliding_window_view(self.x_rev, L)[::-1]


def simulate_plant(
    schedule: PlantSchedule, x: np.ndarray, sigma_z2: float, noise_seed
) -> SignalStream:
    """Pass a scalar input stream through the scheduled plant plus noise.

    Applies the active plant vector to each tapped-delay regressor of ``x``
    and adds i.i.d. Gaussian measurement noise drawn from an RNG stream
    independent of the input.  Segment ``k`` covers its
    :meth:`PlantSchedule.stage_bounds` range clipped to ``len(x)``, except
    that the last segment runs to the end of ``x``.
    """
    n = x.shape[0]
    # Samples of segment k are [edges[k], edges[k+1]).
    edges = np.minimum([lo for lo, _ in schedule.stage_bounds()] + [n], n)
    d = np.empty(n)
    stream = SignalStream(np.concatenate([x[::-1], np.zeros(schedule.L - 1)]), d,
                          np.repeat(np.arange(len(edges) - 1), np.diff(edges)), schedule)
    U = stream.U
    for (_, w), lo, hi in zip(schedule.segments, edges, edges[1:]):
        d[lo:hi] = np.einsum("ij,j->i", U[lo:hi], w)
    if sigma_z2 > 0:
        d += np.random.default_rng(noise_seed).normal(0.0, np.sqrt(sigma_z2), size=n)
    return stream
