"""Magnitude pruning to target densities, with realistic per-filter spread.

The paper obtains sparse networks by applying Han et al.'s magnitude
pruning to each layer's filters and reports the resulting per-layer
densities (Table 3). Crucially for SparTen, pruning leaves *different
filters with different densities* -- Figure 14 shows AlexNet Layer 2's
per-chunk filter densities spanning under 10% to over 40% around a ~24%
median. That spread is what causes the load imbalance greedy balancing
fixes, so the synthesis here reproduces it:

1. draw a per-filter density from a distribution centred on the layer
   target with a configurable relative spread,
2. magnitude-prune each filter independently to its own density,
3. rescale so the layer-aggregate density matches the target closely.

Everything is seeded and deterministic.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "prune_to_density",
    "per_filter_densities",
    "prune_masks",
    "prune_filters",
    "DEFAULT_FILTER_SPREAD",
]

#: Default relative std-dev of per-filter density, calibrated so the
#: per-chunk density range matches Figure 14 (roughly 10%-40% around a
#: ~24-35% layer mean).
DEFAULT_FILTER_SPREAD = 0.30


def prune_to_density(tensor: np.ndarray, density: float) -> np.ndarray:
    """Magnitude-prune *tensor* so exactly ``round(density * size)`` survive.

    Keeps the largest-magnitude elements, zeroing the rest -- Han et al.'s
    threshold pruning with the threshold chosen to hit the target count.
    Returns a new array.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError(f"density must be in [0, 1], got {density}")
    tensor = np.asarray(tensor, dtype=np.float64)
    keep = int(round(density * tensor.size))
    if keep >= tensor.size:
        return tensor.copy()
    pruned = tensor.copy()
    if keep == 0:
        pruned[...] = 0.0
        return pruned
    flat = np.abs(pruned).reshape(-1)
    # Threshold at the keep-th largest magnitude; ties broken by position
    # via argpartition for an exact count.
    cutoff_order = np.argpartition(flat, -keep)[-keep:]
    mask = np.zeros(flat.size, dtype=bool)
    mask[cutoff_order] = True
    pruned.reshape(-1)[~mask] = 0.0
    return pruned


def per_filter_densities(
    n_filters: int,
    target: float,
    spread: float = DEFAULT_FILTER_SPREAD,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Draw per-filter densities with mean *target* and relative std *spread*.

    Samples a truncated normal (clipped to [0.02, 0.98]) and then shifts
    so the mean hits the target exactly -- the layer-aggregate density is
    what Table 3 fixes; the spread models pruning's natural variation.
    """
    if n_filters <= 0:
        raise ValueError(f"need at least one filter, got {n_filters}")
    if not 0.0 < target <= 1.0:
        raise ValueError(f"target density must be in (0, 1], got {target}")
    if spread < 0.0:
        raise ValueError(f"spread must be non-negative, got {spread}")
    rng = rng if rng is not None else np.random.default_rng(0)
    raw = rng.normal(loc=target, scale=target * spread, size=n_filters)
    clipped = np.clip(raw, 0.02, 0.98)
    shifted = clipped + (target - clipped.mean())
    return np.clip(shifted, 0.01, 1.0)


def prune_masks(magnitudes: np.ndarray, densities: np.ndarray) -> np.ndarray:
    """Per-row magnitude-pruning masks of a ``(F, ...)`` bank of magnitudes.

    Row ``f`` keeps its ``round(densities[f] * row_size)`` largest
    entries -- exactly the elements :func:`prune_to_density` keeps for
    that row, ties included (the same ``argpartition`` on the same
    values).
    """
    rows = magnitudes.reshape(magnitudes.shape[0], -1)
    size = rows.shape[1]
    mask = np.zeros(rows.shape, dtype=bool)
    for f, density in enumerate(densities):
        keep = int(round(float(density) * size))
        if keep >= size:
            mask[f] = True
        elif keep:
            mask[f, np.argpartition(rows[f], -keep)[-keep:]] = True
    return mask.reshape(magnitudes.shape)


def prune_filters(
    filters: np.ndarray,
    target_density: float,
    spread: float = DEFAULT_FILTER_SPREAD,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Prune a (F, ...) filter bank to *target_density* with per-filter spread.

    Each filter is magnitude-pruned to its own sampled density; the bank's
    aggregate density lands on the target (up to per-filter rounding).
    """
    filters = np.asarray(filters, dtype=np.float64)
    if filters.ndim < 2:
        raise ValueError(f"expected (F, ...) filter bank, got shape {filters.shape}")
    densities = per_filter_densities(
        filters.shape[0], target_density, spread=spread, rng=rng
    )
    return np.where(prune_masks(np.abs(filters), densities), filters, 0.0)
