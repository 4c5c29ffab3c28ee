"""Seeded workload synthesis: tensors at the paper's Table 3 densities.

A workload is sampled from a layer spec and a seed:

- Filters: Gaussian weights magnitude-pruned with per-filter density
  spread (:mod:`repro.nets.pruning`), shaped ``(F, k, k, C)``.
- Input feature maps: ReLU-style activations. Sparsity can be i.i.d. or
  *spatially correlated* (blobs of activity, as real post-ReLU maps are),
  controlled by ``correlated``. A layer whose Table 3 input density is
  100% (the network's first layer) gets a fully dense map -- the paper's
  special case of the 3-channel input image.

Every timing model -- the simulators, the analytical tier, the balancing
planners -- reads occupancy only: the masks of a :class:`LayerMasks`,
which :func:`synthesize_masks` produces without ever assembling a dense
tensor. Only the functional accelerator (:mod:`repro.arch`) and the
value-level studies read the magnitudes of a :class:`LayerData`
(:func:`synthesize_layer`), which exposes the same ``spec`` /
``input_mask`` / ``filter_masks`` attributes, so either one drives a
simulator. Both come from one pair of samplers (``_sample_filters``,
``_sample_input``) that return each tensor's draw and its mask: a dense
tensor is its draw (the input's as magnitudes) where the mask is set and
zero elsewhere, so the two views agree bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.nets.layers import ConvLayerSpec
from repro.nets.pruning import DEFAULT_FILTER_SPREAD, per_filter_densities, prune_masks

__all__ = [
    "LayerData",
    "LayerMasks",
    "synthesize_layer",
    "synthesize_masks",
    "synthesize_input",
    "synthesize_filters",
]


@dataclass(frozen=True)
class LayerMasks:
    """The occupancy of one layer's workload: what every timing model reads.

    Attributes:
        spec: the layer specification the masks realise.
        input_mask: boolean ``(H, W, C)`` occupancy of the input map.
        filter_masks: boolean ``(F, k, k, C)`` occupancy of the filters.
    """

    spec: ConvLayerSpec
    input_mask: np.ndarray
    filter_masks: np.ndarray

    @classmethod
    def of(cls, data: LayerData) -> LayerMasks:
        """The masks of *data*, derived once."""
        return cls(spec=data.spec, input_mask=data.input_mask, filter_masks=data.filter_masks)


@dataclass(frozen=True)
class LayerData:
    """A concrete workload for one layer: dense values, zeros included.

    The functional accelerator and value-level studies (quantisation,
    the pipeline's measured activations) need the magnitudes; the
    ``input_mask`` / ``filter_masks`` properties recompute occupancy on
    every read, so the timing tier carries a :class:`LayerMasks` instead.

    Attributes:
        spec: the layer specification this data realises.
        input_map: dense ``(H, W, C)`` activations (zeros included).
        filters: dense ``(F, k, k, C)`` weights (zeros included).
    """

    spec: ConvLayerSpec
    input_map: np.ndarray
    filters: np.ndarray

    def __post_init__(self) -> None:
        expected_in = (self.spec.in_height, self.spec.in_width, self.spec.in_channels)
        if self.input_map.shape != expected_in:
            raise ValueError(
                f"input shape {self.input_map.shape} != spec {expected_in}"
            )
        expected_f = (
            self.spec.n_filters,
            self.spec.kernel,
            self.spec.kernel,
            self.spec.in_channels,
        )
        if self.filters.shape != expected_f:
            raise ValueError(f"filter shape {self.filters.shape} != spec {expected_f}")

    @property
    def input_mask(self) -> np.ndarray:
        """Boolean occupancy of the input map."""
        return self.input_map != 0

    @property
    def filter_masks(self) -> np.ndarray:
        """Boolean occupancy of the filters, ``(F, k, k, C)``."""
        return self.filters != 0

    @property
    def measured_input_density(self) -> float:
        return float(np.count_nonzero(self.input_map)) / self.input_map.size

    @property
    def measured_filter_density(self) -> float:
        return float(np.count_nonzero(self.filters)) / self.filters.size


def synthesize_input(
    spec: ConvLayerSpec,
    rng: np.random.Generator,
    correlated: bool = True,
) -> np.ndarray:
    """A dense (H, W, C) activation map at the spec's input density.

    With ``correlated=True`` the zero pattern is spatially blobby: a
    smoothed random field thresholded at the quantile that yields the
    target density, mimicking post-ReLU activation maps. Otherwise zeros
    are i.i.d. Values of surviving activations are half-normal (ReLU of a
    Gaussian is non-negative).
    """
    draw, mask = _sample_input(spec, rng, correlated, keep_draw=True)
    return np.where(mask, np.abs(draw, out=draw), 0.0)


def synthesize_filters(
    spec: ConvLayerSpec,
    rng: np.random.Generator,
    spread: float = DEFAULT_FILTER_SPREAD,
) -> np.ndarray:
    """A dense (F, k, k, C) filter bank pruned to the spec's filter density."""
    weights, mask = _sample_filters(spec, rng, spread, keep_draw=True)
    return np.where(mask, weights, 0.0)


def synthesize_layer(
    spec: ConvLayerSpec,
    seed: int = 0,
    correlated: bool = True,
    filter_spread: float = DEFAULT_FILTER_SPREAD,
) -> LayerData:
    """Deterministically synthesise a full workload for *spec*.

    The same (spec, seed) always yields identical tensors; different seeds
    model different images in a mini-batch (filters are drawn from a seed
    derived only from the spec so the batch shares weights, as it must).
    """
    filter_rng, input_rng = _rngs(spec, seed)
    filters = synthesize_filters(spec, filter_rng, spread=filter_spread)
    input_map = synthesize_input(spec, input_rng, correlated=correlated)
    return LayerData(spec=spec, input_map=input_map, filters=filters)


def synthesize_masks(
    spec: ConvLayerSpec,
    seed: int = 0,
    correlated: bool = True,
    filter_spread: float = DEFAULT_FILTER_SPREAD,
) -> LayerMasks:
    """The occupancy of :func:`synthesize_layer`, without its dense tensors.

    Bit for bit ``LayerMasks.of(synthesize_layer(spec, seed, ...))``: the
    same draws in the same order, but no magnitude is kept past its
    ``!= 0`` test and no dense tensor is assembled.
    """
    filter_rng, input_rng = _rngs(spec, seed)
    _, filter_masks = _sample_filters(spec, filter_rng, filter_spread, keep_draw=False)
    _, input_mask = _sample_input(spec, input_rng, correlated, keep_draw=False)
    return LayerMasks(spec=spec, input_mask=input_mask, filter_masks=filter_masks)


def _quantile_threshold(x: np.ndarray, q: float) -> float:
    """``np.quantile(x, q)`` (linear method) bit for bit, from one partition.

    ``np.quantile`` partitions a copy of *x* at four ranks -- first,
    last, and the two around the virtual index ``(n - 1) * q`` -- but the
    linear method reads only those two: the lower is one ``partition``
    away, the upper is the minimum of everything above it. The lerp is
    NumPy's own (``numpy.lib._function_base_impl._lerp``), index clamp
    and all. *x* must hold no NaN. The one freedom left is the sign of a
    zero result when ``0.0`` and ``-0.0`` tie at a rank; they compare
    equal, so a ``>`` mask against the threshold is the same either way.
    """
    flat = x.reshape(-1)
    n = flat.size
    virtual = (n - 1) * q
    if virtual >= n - 1:
        # NumPy clamps both neighbours to the last rank (index -1).
        lower = upper = flat.max()
        gamma = virtual + 1.0
    else:
        below = math.floor(virtual)
        part = np.partition(flat, below)
        lower, upper = part[below], part[below + 1 :].min()
        gamma = virtual - below
    diff = upper - lower
    if gamma >= 0.5:
        return float(upper - diff * (1 - gamma))
    return float(lower + diff * gamma)


def _rngs(
    spec: ConvLayerSpec, seed: int
) -> tuple[np.random.Generator, np.random.Generator]:
    """The filter and input generators of one (spec, seed) workload.

    Filters depend on the layer identity only, not the image seed.
    """
    return (
        np.random.default_rng(_stable_seed(spec.name, "filters")),
        np.random.default_rng(_stable_seed(spec.name, f"input{seed}")),
    )


def _sample_filters(
    spec: ConvLayerSpec,
    rng: np.random.Generator,
    spread: float,
    keep_draw: bool,
) -> tuple[np.ndarray | None, np.ndarray]:
    """The filter bank's Gaussian draw and its pruned occupancy.

    Draws the weights, then (below full density) the per-filter
    densities, and keeps each filter's largest magnitudes. Without
    *keep_draw* the magnitudes overwrite the weights, which the mask no
    longer needs once their ``!= 0`` is taken, and the draw comes back as
    ``None``.
    """
    shape = (spec.n_filters, spec.kernel, spec.kernel, spec.in_channels)
    weights = rng.standard_normal(shape)
    if spec.filter_density >= 1.0:
        return weights, weights != 0
    densities = per_filter_densities(
        spec.n_filters, spec.filter_density, spread=spread, rng=rng
    )
    nonzero = weights != 0
    magnitudes = np.abs(weights, out=None if keep_draw else weights)
    if not keep_draw:
        weights = None
    mask = prune_masks(magnitudes, densities)
    mask &= nonzero
    return weights, mask


def _sample_input(
    spec: ConvLayerSpec,
    rng: np.random.Generator,
    correlated: bool,
    keep_draw: bool,
) -> tuple[np.ndarray | None, np.ndarray]:
    """The input map's magnitude draw and its occupancy.

    Draws the magnitudes, then (for a density strictly between 0 and 1)
    the random field whose upper quantile is the occupancy. Without
    *keep_draw* that field is drawn into the magnitudes' buffer, which the
    mask no longer needs once their ``!= 0`` is taken, and the draw comes
    back as ``None``.
    """
    shape = (spec.in_height, spec.in_width, spec.in_channels)
    draw = rng.standard_normal(shape)
    density = spec.input_density
    if density >= 1.0:
        return draw, draw != 0
    if density <= 0.0:
        return draw, np.zeros(shape, dtype=bool)
    nonzero = draw != 0
    field = rng.standard_normal(shape, out=None if keep_draw else draw)
    if not keep_draw:
        draw = None
    if correlated and min(spec.in_height, spec.in_width) >= 4:
        # Smooth only spatially; channels keep independent patterns.
        field = ndimage.gaussian_filter(field, sigma=(1.5, 1.5, 0.0), mode="wrap")
    mask = field > _quantile_threshold(field, 1.0 - density)
    mask &= nonzero
    return draw, mask


def _stable_seed(*parts: str) -> int:
    """A deterministic 63-bit seed from string parts (hash() is salted)."""
    import hashlib

    digest = hashlib.sha256("/".join(parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1
