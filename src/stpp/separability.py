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

from .core import GridSpec, SpaceTimePattern, substream
from .inference import CurveSet, EnvelopeResult, combined_erl_test
from .intensity import KernelSpec, _check_memory, _chunks, _spacetime_rows

__all__ = ["separability_test"]


def _safe_ratio(num, den):
    """num/den with the a/0 = 0 convention."""
    out = np.zeros(np.broadcast_shapes(num.shape, den.shape))
    ok = den > 0
    np.divide(num, den, out=out, where=ok)
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
        _check_memory(n, grid)
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
