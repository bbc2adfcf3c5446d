"""Output checks that re-derive answers through public exactla calls only."""

from __future__ import annotations

from limithodge.exactla import ExactMatrix, apply_to_subspace, induced_map_on_graded, rank


def axioms_hold(N, W) -> bool:
    """Both weight-filtration axioms of W (centered at W.center) for N, re-verified."""
    filt = W.filtration
    levels = filt.graded_range()
    lo, hi = min(levels), max(levels)
    for l in range(lo, hi + 1):
        if not W.step(l - 2).contains(apply_to_subspace(N, W.step(l))):
            return False
    c = W.center
    for j in range(0, hi - c + 1):
        dim_hi, dim_lo = filt.graded_dim(c + j), filt.graded_dim(c - j)
        if dim_hi != dim_lo:
            return False
        if not dim_hi:
            continue
        power = N.power(j) if j else ExactMatrix.identity(N.rows)
        block = induced_map_on_graded(power, filt, c + j, shift=-2 * j)
        if block.cols != dim_hi or rank(block) != dim_hi:
            return False
    return True
