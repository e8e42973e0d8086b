"""Adaptive filter update engines.

Plain LMS and the group zero-attracting variants (uniform and reweighted)
share a single update path: per step the caller supplies the step size and
shrinkage parameter, so fixed-parameter and variable-parameter operation
cannot drift apart.  Setting the shrinkage parameter to zero reduces every
mode to plain LMS bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .groups import AttractorMode, GroupPartition, attractor_term, row_dot

__all__ = [
    "DivergenceError",
    "FilterConfig",
    "FilterState",
    "initial_state",
    "predict",
    "step",
]


class DivergenceError(RuntimeError):
    """Raised when the weight vector leaves the finite range."""

    def __init__(self, iteration: int):
        super().__init__(f"filter diverged (non-finite weights) at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class FilterConfig:
    """Static description of one adaptive filter.

    ``mode is None`` selects plain LMS; otherwise the attractor mode picks
    the uniform or reweighted group attractor.  ``mu``/``rho`` are the
    fixed-parameter values; :func:`step` takes its step size and shrinkage
    as arguments, so a variable-parameter caller passes its own per step.
    Plain LMS has no attractor to scale, so it takes no nonzero ``rho``.
    """

    L: int
    partition: GroupPartition
    mode: Optional[AttractorMode] = None
    mu: float = 0.0
    rho: float = 0.0

    def __post_init__(self):
        if self.partition.L != self.L:
            raise ValueError(
                f"partition covers {self.partition.L} coefficients, filter has {self.L}"
            )
        if not all(math.isfinite(v) and v >= 0 for v in (self.mu, self.rho)):
            raise ValueError(f"mu and rho must be finite and non-negative, "
                             f"got mu={self.mu}, rho={self.rho}")
        if self.mode is None and self.rho != 0.0:
            raise ValueError(f"plain LMS takes no rho (only gza or grza), got rho={self.rho}")


@dataclass(frozen=True)
class FilterState:
    """Weight estimate after ``n`` updates plus the last estimation error."""

    w: np.ndarray
    n: int = 0
    last_error: float = 0.0


def initial_state(L: int) -> FilterState:
    """All-zero starting point."""
    return FilterState(w=np.zeros(L), n=0, last_error=0.0)


def predict(state: FilterState, u: np.ndarray) -> float:
    """Filter output ``w^T u`` for the current weights."""
    if u.shape != state.w.shape:
        raise ValueError(f"regressor shape {u.shape} != weight shape {state.w.shape}")
    return float(row_dot(state.w, u))


def step(
    state: FilterState,
    cfg: FilterConfig,
    u: np.ndarray,
    d: float,
    mu_n: float,
    rho_n: float,
    beta_s: Optional[np.ndarray] = None,
) -> FilterState:
    """One adaptive update with the supplied step size and shrinkage.

    Computes the estimation error ``e = d - w^T u`` and applies
    ``w <- w + mu_n e u - rho_n (beta o s)`` where the attractor product is
    evaluated at the current weights, unless the caller already holds it
    for this state and passes it as ``beta_s``.  Plain-LMS configs (and
    ``rho_n == 0``) skip the attractor term entirely, which is bit-identical
    to subtracting a zero multiple of it.
    """
    if u.shape[0] != cfg.L:
        raise ValueError(f"regressor length {u.shape[0]} != filter length {cfg.L}")
    if mu_n < 0 or rho_n < 0:
        raise ValueError("per-step mu and rho must be non-negative")
    e = d - predict(state, u)
    w_next = state.w + (mu_n * e) * u
    if rho_n != 0.0 and cfg.mode is not None:
        if beta_s is None:
            beta_s = attractor_term(state.w, cfg.partition, cfg.mode)
        w_next -= rho_n * beta_s
    if not math.isfinite(w_next.sum()):
        raise DivergenceError(state.n)
    return FilterState(w=w_next, n=state.n + 1, last_error=float(e))
