"""Group partitions and group-sparsity operators.

The mixed l1/l2 norm, the log-sum group penalty, the per-group attractor
direction and the reweighting coefficients that drive the zero-attracting
updates all live here.  All operations are pure functions of their inputs;
:class:`GroupPartition` is immutable after construction.

Every operator acts on the last axis, so ``w`` may be one weight vector of
shape ``(L,)`` or a stack of them of shape ``(..., L)``; each row of a
stacked result is bit-identical to the call on that row alone.

The row reductions of the whole package are spelled here once each:
:func:`row_dot` for every row dot product, the block engine's and the
scalar reference's alike, and :func:`_group_norms` for the group norms.
Their summation order is therefore one decision, made in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ZERO_GROUP_TOL",
    "GZA",
    "GRZA",
    "AttractorMode",
    "GroupPartition",
    "row_dot",
    "group_norms",
    "l12_norm",
    "log_sum_penalty",
    "attractor_direction",
    "beta_weights",
    "attractor_term",
    "expand_group_vector",
]

# Group norms below this absolute threshold count as exactly zero, so the
# attractor direction stays bounded near the nondifferentiable point.
ZERO_GROUP_TOL = 1e-12

GZA = "gza"
GRZA = "grza"

# The one row dot product: each row of a stacked call has the bits of the
# call on that row alone, so the block engine and the scalar reference sum
# every row in one order.  Bound, not wrapped, so a call costs what
# ``np.vecdot`` costs.
row_dot = np.vecdot


@dataclass(frozen=True)
class AttractorMode:
    """Which group attractor to apply: uniform (GZA) or reweighted (GRZA).

    ``epsilon`` sets the scale at which the reweighted attractor saturates;
    it is only meaningful in GRZA mode, where it must pass
    :func:`_usable_epsilon`.
    """

    tag: str
    epsilon: float = 0.0

    def __post_init__(self):
        if self.tag not in (GZA, GRZA):
            raise ValueError(f"unknown attractor tag {self.tag!r}")
        if self.tag == GRZA and not _usable_epsilon(self.epsilon):
            raise ValueError(f"GRZA mode requires a positive epsilon with a finite "
                             f"1/epsilon, got {self.epsilon}")


def _usable_epsilon(epsilon: float) -> bool:
    """Finite and positive with a finite ``1 / epsilon``: the GRZA weight at a
    zero group is ``1 / epsilon``, and past the float range ``inf * 0`` turns
    the attractor into NaN."""
    return 0 < epsilon < math.inf and 1.0 / epsilon < math.inf


@dataclass(frozen=True)
class GroupPartition:
    """Disjoint cover of the index range ``[0, L)`` by contiguous groups.

    ``bounds`` holds half-open ``(start, stop)`` pairs that must be sorted,
    non-empty and tile ``[0, L)`` exactly.
    """

    L: int
    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.L < 1:
            raise ValueError("filter length must be at least 1")
        if not self.bounds:
            raise ValueError("partition needs at least one group")
        if len(self.bounds) > self.L:
            raise ValueError("more groups than coefficients")
        expected_start = 0
        for start, stop in self.bounds:
            if start != expected_start:
                raise ValueError(
                    f"groups must tile [0, {self.L}) without gaps or overlap; "
                    f"found group starting at {start}, expected {expected_start}"
                )
            if stop <= start:
                raise ValueError("every group must be non-empty")
            expected_start = stop
        if expected_start != self.L:
            raise ValueError(
                f"groups cover [0, {expected_start}) but L = {self.L}"
            )
        # Cached index arrays for the vectorized per-group reductions.
        starts = np.array([b[0] for b in self.bounds], dtype=np.intp)
        sizes = np.array([b[1] - b[0] for b in self.bounds], dtype=np.intp)
        object.__setattr__(self, "_starts", starts)
        object.__setattr__(self, "_sizes", sizes)

    @property
    def J(self) -> int:
        """Number of groups."""
        return len(self.bounds)

    @property
    def starts(self) -> np.ndarray:
        return self._starts

    @property
    def sizes(self) -> np.ndarray:
        return self._sizes

    @classmethod
    def contiguous(cls, L: int, group_size: int) -> "GroupPartition":
        """Tile ``[0, L)`` with groups of ``group_size``; the last group may
        be shorter when ``group_size`` does not divide ``L``."""
        if group_size < 1:
            raise ValueError("group size must be at least 1")
        bounds = tuple(
            (start, min(start + group_size, L)) for start in range(0, L, group_size)
        )
        return cls(L=L, bounds=bounds)

    @classmethod
    def singletons(cls, L: int) -> "GroupPartition":
        """One group per coefficient (the elementwise sparsity limit)."""
        return cls.contiguous(L, 1)


def _check_length(w: np.ndarray, p: GroupPartition) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim < 1 or w.shape[-1] != p.L:
        raise ValueError(f"expected vectors of length {p.L}, got shape {w.shape}")
    return w


def _group_norms(w: np.ndarray, p: GroupPartition) -> np.ndarray:
    """:func:`group_norms` without the input check."""
    return np.sqrt(np.add.reduceat(w * w, p.starts, axis=-1))


def group_norms(w: np.ndarray, p: GroupPartition) -> np.ndarray:
    """Per-group Euclidean norms, shape ``(..., J)``."""
    return _group_norms(_check_length(w, p), p)


def l12_norm(w: np.ndarray, p: GroupPartition):
    """Sum of per-group Euclidean norms (the mixed l1/l2 norm), per vector."""
    return group_norms(w, p).sum(axis=-1)


def log_sum_penalty(w: np.ndarray, p: GroupPartition, epsilon: float):
    """Sum over groups of ``log(1 + ||w_g|| / epsilon)``, per vector."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    return np.log1p(group_norms(w, p) / epsilon).sum(axis=-1)


def attractor_direction(w: np.ndarray, p: GroupPartition) -> np.ndarray:
    """Per-group unit vector towards which the attractor shrinks.

    Each group of the output is ``w_g / ||w_g||`` when the group norm is
    above :data:`ZERO_GROUP_TOL` and the zero subvector otherwise, so every
    group of the result has Euclidean norm one or zero.
    """
    return _attractor_rows(_check_length(w, p), p, 0.0, None)


def beta_weights(w: np.ndarray, p: GroupPartition, mode: AttractorMode) -> np.ndarray:
    """Per-group attractor weights: all ones for GZA, ``1/(||w_g|| + eps)``
    for GRZA (so each weight lies in ``(0, 1/eps]``)."""
    if mode.tag == GZA:
        w = _check_length(w, p)
        return np.ones(w.shape[:-1] + (p.J,))
    return 1.0 / (group_norms(w, p) + mode.epsilon)


def expand_group_vector(per_group: np.ndarray, p: GroupPartition) -> np.ndarray:
    """Replicate one value per group across that group's indices."""
    per_group = np.asarray(per_group, dtype=np.float64)
    if per_group.ndim < 1 or per_group.shape[-1] != p.J:
        raise ValueError(
            f"expected one entry per group ({p.J}), got shape {per_group.shape}"
        )
    return np.repeat(per_group, p.sizes, axis=-1)


def _attractor_rows(w: np.ndarray, p: GroupPartition, epsilon: float,
                    grza: slice | None, out: np.ndarray | None = None) -> np.ndarray:
    """The GZA attractor of every vector of ``w``, reweighted on rows ``grza``.

    ``grza`` indexes the leading axis (a slice, or None for no row); those
    rows get the GRZA product with this ``epsilon`` and the others keep the
    GZA direction, whose bits a multiplication by one would not change.
    The result is written into ``out`` when given.  Every row is
    bit-identical to :func:`attractor_term` on that row alone with its own
    mode; the group norms are computed once for all rows.
    """
    norms = _group_norms(w, p)
    # Dividing by +inf sends zero groups to exactly 0 without branching.
    safe = np.where(norms > ZERO_GROUP_TOL, norms, np.inf)
    s = np.divide(w, safe.repeat(p.sizes, axis=-1), out=out)
    if grza is not None:
        s[grza] *= (1.0 / (norms[grza] + epsilon)).repeat(p.sizes, axis=-1)
    return s


def attractor_term(w: np.ndarray, p: GroupPartition, mode: AttractorMode) -> np.ndarray:
    """The Hadamard product of expanded beta weights and attractor direction.

    This is the length-L vector subtracted (scaled by the shrinkage
    parameter) in the zero-attracting updates; a ``(..., L)`` stack gives
    one such vector per row.  Bit-identical to composing
    :func:`expand_group_vector`, :func:`beta_weights` and
    :func:`attractor_direction` by hand, but computes the group norms once.
    """
    w = _check_length(w, p)
    return _attractor_rows(w, p, mode.epsilon, slice(None) if mode.tag == GRZA else None)
