"""First-order separability: the permutation test on the S statistics.

The statistic compares the space-time intensity against the separable
factorization built from the marginal estimates,

    S(x, t) = n * lambda_st(x, t) / (lambda_s(x) * lambda_t(t)),

which is identically 1 under first-order separability.  Null replicates
pair the observed locations with permuted observed times, so the marginal
patterns (and therefore the marginal estimates) are unchanged, and under
the null the replicate curves are exchangeable with the observed one.
"""

from __future__ import annotations

import numpy as np

from .core import GridSpec, SpaceTimePattern, _blocks, substream
from .inference import CurveSet, EnvelopeResult, combined_erl_test
from .intensity import KernelSpec, _check_memory, _spacetime_rows, _spatial_kernel_rows

__all__ = ["separability_test"]


def _safe_ratio(num, den):
    """num/den with the a/0 = 0 convention."""
    out = np.zeros(np.broadcast_shapes(num.shape, den.shape))
    ok = den > 0
    np.divide(num, den, out=out, where=ok)
    return out


class _SeparabilityEngine:
    """Shared kernel rows for the S_t / S_s curves of many pairings.

    The spatial rows S depend only on locations and the temporal rows T
    only on times, so a permutation replicate just re-pairs rows, and the
    curves of a block of pairings are two matrix products, one of which
    reads S once for the block.  The engine keeps the corrected factor
    rows gx, gy and the rows T of all n events (``intensity._spacetime_rows``)
    and builds S = gx ⊗ gy from them one block of events at a time, at
    most ``core._BLOCK_BYTES``, as :func:`estimate_lambda_st` does:
    once for u here and once per call of :meth:`curves`.  Its memory is
    those rows, one S block and the curves of the ``pairings`` its caller
    keeps; ``MemoryError`` is raised before any row is built when they need
    more than ``intensity._MEMORY_CAP_MB``.  With n within one S block the
    curves are the whole-rows products bit for bit; beyond it the S_s sums
    over events are reordered over blocks (1e-13 relative by test).
    """

    def __init__(self, pattern, kernel_s, kernel_t, grid, pairings=1):
        window = pattern.window
        nx, ny, nt = grid.shape
        n = len(pattern)
        self.blocks = _blocks(n, 8 * nx * ny)
        _check_memory(
            n * (nx + ny + nt)
            + (self.blocks[0].stop if self.blocks else 0) * nx * ny
            + pairings * (nx * ny + nt)
        )
        mask2d = window.raster(GridSpec.spatial(window, nx, ny))
        self.gx, self.gy, self.T, _, _ = _spacetime_rows(
            pattern.x, pattern.t, window, grid, mask2d, kernel_s.bandwidth, kernel_t.bandwidth
        )
        if mask2d is None:
            mask2d = np.ones((nx, ny), dtype=bool)
        self.mask2d = mask2d
        cell_area = grid.step[0] * grid.step[1]
        area = mask2d.sum() * cell_area
        lam_s_flat = np.where(mask2d, self.gx.T @ self.gy, 0.0).ravel()
        w_s = np.zeros_like(lam_s_flat)
        np.divide(cell_area * n / area, lam_s_flat, out=w_s, where=lam_s_flat > 0)
        self.u = np.empty(n)
        for rows in self.blocks:
            self.u[rows] = _spatial_kernel_rows(self.gx[rows], self.gy[rows]) @ w_s
        lam_t = self.T.sum(axis=0)
        w_t = np.zeros(nt)
        np.divide(grid.step[2] * n / window.duration, lam_t, out=w_t, where=lam_t > 0)
        self.v = self.T @ w_t
        self.inv_lam_t = _safe_ratio(np.ones(nt), lam_t)
        self.inv_lam_s = _safe_ratio(np.ones(nx * ny), lam_s_flat)

    def curves(self, perms):
        """S_t (k, nt) and in-mask S_s (k, cells) curves of k pairings; row
        b of ``perms`` pairs event i's location with event perms[b, i]'s time."""
        scattered = np.zeros(perms.shape)
        scattered[np.arange(len(perms))[:, None], perms] = self.u
        s_t = (scattered @ self.T) * self.inv_lam_t
        del scattered  # so at most one (k, n) float array is alive
        s_s = np.zeros((len(perms), len(self.inv_lam_s)))
        for rows in self.blocks:
            s_s += self.v[perms[:, rows]] @ _spatial_kernel_rows(self.gx[rows], self.gy[rows])
        s_s *= self.inv_lam_s
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
    engine = _SeparabilityEngine(pattern, kernel_s, kernel_t, grid, pairings=B + 1)
    n = len(pattern)
    nx, ny, nt = grid.shape
    s_t = np.empty((B + 1, nt))
    s_s = np.empty((B + 1, np.count_nonzero(engine.mask2d)))
    # row 0 is the observed pairing and row 1 + b the permutation drawn
    # from substream b; blocks of rows keep each (rows, n) array and each
    # block's (rows, nx*ny) curves in one row block
    for rows in _blocks(B + 1, 8 * max(n, nx * ny + nt)):
        perms = np.empty((rows.stop - rows.start, n), dtype=np.intp)
        for i, b in enumerate(range(rows.start, rows.stop)):
            perms[i] = substream(seed, b - 1).permutation(n) if b else np.arange(n)
        s_t[rows], s_s[rows] = engine.curves(perms)
    del engine, perms  # the envelope test needs only the curves
    cs_t = CurveSet(grid.centers(2), s_t[0], s_t[1:])
    cs_s = CurveSet(np.arange(s_s.shape[1], dtype=float), s_s[0], s_s[1:])
    return combined_erl_test([cs_t, cs_s], alpha=alpha)
