"""First-order separability: S statistics, permutation nulls and the test.

The statistic compares the space-time intensity against the separable
factorization built from the marginal estimates,

    S(x, t) = n * lambda_st(x, t) / (lambda_s(x) * lambda_t(t)),

which is identically 1 under first-order separability.  Null replicates
pair the observed locations with permuted observed times, so the marginal
patterns (and therefore the marginal estimates) are unchanged, and under
the null the replicate curves are exchangeable with the observed one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import GridSpec, ScalarField, SpaceTimePattern, _trusted, substream
from .inference import CurveSet, EnvelopeResult, combined_erl_test
from .intensity import (
    _MEMORY_CAP_MB,
    IntensityEstimate,
    KernelSpec,
    _check_memory,
    _chunks,
    _spacetime_rows,
)

__all__ = [
    "SeparabilityStats",
    "compute_S",
    "permute_null",
    "separability_test",
]


@dataclass
class SeparabilityStats:
    """S statistics on the estimation grids: 3D field plus its averages."""

    s_st: ScalarField
    s_s: ScalarField
    s_t: ScalarField
    expected_count: float


def _safe_ratio(num, den):
    """num/den with the a/0 = 0 convention."""
    out = np.zeros(np.broadcast_shapes(num.shape, den.shape))
    ok = den > 0
    np.divide(num, den, out=out, where=ok)
    return out


def compute_S(
    pattern: SpaceTimePattern,
    lam_st: IntensityEstimate,
    lam_s: IntensityEstimate,
    lam_t: IntensityEstimate,
    include_zero_cells: bool = True,
) -> SeparabilityStats:
    """Cellwise S statistics from plugged-in intensity estimates.

    The three estimates must share grids: ``lam_st`` on (nx, ny, nt),
    ``lam_s`` on (nx, ny) and ``lam_t`` on (nt,).  The expected total
    count is estimated by the observed n.  Averages over W and T use the
    masked grid quadrature; cells zeroed by the a/0 = 0 convention are
    included by default, or dropped from the averaging measure with
    ``include_zero_cells=False``.
    """
    f3, f2, f1 = lam_st.field, lam_s.field, lam_t.field
    if f3.grid.shape[:2] != f2.grid.shape or f3.grid.shape[2] != f1.grid.shape[0]:
        raise ValueError("intensity estimates live on incompatible grids")
    n = float(len(pattern))
    den = f2.values[:, :, None] * f1.values[None, None, :]
    s_st = n * _safe_ratio(f3.values, den)
    mask2d = f2.mask
    s_st = np.where(mask2d[:, :, None], s_st, 0.0)
    cell_area = f2.grid.cell_volume
    dt = f1.grid.cell_volume
    if include_zero_cells:
        area = mask2d.sum() * cell_area
        duration = f1.grid.shape[0] * dt
        s_t = s_st.sum(axis=(0, 1)) * cell_area / area
        s_s = s_st.sum(axis=2) * dt / duration
    else:
        defined = (den > 0) & mask2d[:, :, None]
        with np.errstate(invalid="ignore"):
            s_t = s_st.sum(axis=(0, 1)) / np.maximum(defined.sum(axis=(0, 1)), 1)
            s_s = s_st.sum(axis=2) / np.maximum(defined.sum(axis=2), 1)
    return SeparabilityStats(
        ScalarField(f3.grid, s_st, f3.mask),
        ScalarField(f2.grid, np.where(mask2d, s_s, 0.0), mask2d),
        ScalarField(f1.grid, s_t),
        n,
    )


def permute_null(pattern: SpaceTimePattern, B: int, seed) -> list[SpaceTimePattern]:
    """B null replicates pairing fixed locations with permuted times."""
    if B < 1:
        raise ValueError("B must be >= 1")
    out = []
    for b in range(B):
        rng = substream(seed, b)
        perm = rng.permutation(len(pattern))
        pts = np.column_stack([pattern.x, pattern.t[perm]])
        pts = pts[np.lexsort((pts[:, 1], pts[:, 0], pts[:, 2]))]
        out.append(_trusted(SpaceTimePattern, pts, pattern.window))
    return out


class _SeparabilityEngine:
    """Shared kernel rows for the S_t / S_s curves of many pairings.

    Reuses the corrected kernel rows of :func:`estimate_lambda_st` (built
    by ``intensity._spacetime_rows``).  The spatial rows S depend only on
    locations and the temporal rows T only on times, so a permutation
    replicate just re-pairs rows, and the curves of a block of pairings
    are two matrix products, one of which reads S once for the block.
    The rows of all n events are held at once, so the same up-front
    memory check as :func:`estimate_lambda_st` raises ``MemoryError``.
    """

    def __init__(self, pattern, kernel_s, kernel_t, grid):
        window = pattern.window
        nx, ny, nt = grid.shape
        n = len(pattern)
        _check_memory(n, grid, _MEMORY_CAP_MB)
        self.S, self.T, gx, gy, _, _, mask2d = _spacetime_rows(
            pattern.x, pattern.t, window, grid, kernel_s.bandwidth, kernel_t.bandwidth
        )
        if mask2d is None:
            mask2d = np.ones((nx, ny), dtype=bool)
        self.mask2d = mask2d
        cell_area = grid.step[0] * grid.step[1]
        area = mask2d.sum() * cell_area
        lam_s_flat = np.where(mask2d, gx.T @ gy, 0.0).ravel()
        w_s = np.zeros_like(lam_s_flat)
        np.divide(cell_area * n / area, lam_s_flat, out=w_s, where=lam_s_flat > 0)
        self.u = self.S @ w_s
        lam_t = self.T.sum(axis=0)
        w_t = np.zeros(nt)
        np.divide(grid.step[2] * n / window.duration, lam_t, out=w_t, where=lam_t > 0)
        self.v = self.T @ w_t
        self.inv_lam_t = _safe_ratio(np.ones(nt), lam_t)
        self.inv_lam_s = _safe_ratio(np.ones(nx * ny), lam_s_flat)
        self.t_args = grid.centers(2)

    def curves(self, perms):
        """S_t (k, nt) and in-mask S_s (k, cells) curves of k pairings; row
        b of ``perms`` pairs event i's location with event perms[b, i]'s time."""
        scattered = np.zeros(perms.shape)
        scattered[np.arange(len(perms))[:, None], perms] = self.u
        s_t = (scattered @ self.T) * self.inv_lam_t
        del scattered  # so at most one (k, n) float array is alive
        s_s = (self.v[perms] @ self.S) * self.inv_lam_s
        return s_t, s_s[:, self.mask2d.ravel()]


def separability_test(
    pattern: SpaceTimePattern,
    kernel_s: KernelSpec,
    kernel_t: KernelSpec,
    B: int = 199,
    alpha: float = 0.05,
    grid: GridSpec | None = None,
    seed=0,
) -> EnvelopeResult:
    """Permutation test of first-order separability.

    Estimates the marginal intensities once (permutation leaves them
    unchanged), re-estimates the space-time intensity for the observed
    pairing and for B permutation replicates with the same bandwidths, and
    runs a combined global envelope test on the S_t and S_s summaries.
    """
    if grid is None:
        grid = GridSpec.spacetime(pattern.window, 32, 32, 100)
    engine = _SeparabilityEngine(pattern, kernel_s, kernel_t, grid)
    n = len(pattern)
    # row 0 is the observed pairing and row 1 + b the permutation drawn
    # from substream b; blocks of rows keep each (rows, n) array in a chunk
    blocks = [
        engine.curves(np.array([substream(seed, b - 1).permutation(n) if b else np.arange(n)
                                for b in range(rows.start, rows.stop)]))
        for rows in _chunks(B + 1, max(n, 1))
    ]
    s_t, s_s = (np.vstack(parts) for parts in zip(*blocks))
    cs_t = CurveSet(engine.t_args, s_t[0], s_t[1:])
    cs_s = CurveSet(np.arange(s_s.shape[1], dtype=float), s_s[0], s_s[1:])
    return combined_erl_test([cs_t, cs_s], alpha=alpha)
