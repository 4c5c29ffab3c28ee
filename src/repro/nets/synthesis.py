"""Seeded workload synthesis: tensors at the paper's Table 3 densities.

Dense tensors are produced here from a layer spec and a seed:

- Filters: Gaussian weights magnitude-pruned with per-filter density
  spread (:mod:`repro.nets.pruning`), shaped ``(F, k, k, C)``.
- Input feature maps: ReLU-style activations. Sparsity can be i.i.d. or
  *spatially correlated* (blobs of activity, as real post-ReLU maps are),
  controlled by ``correlated``. A layer whose Table 3 input density is
  100% (the network's first layer) gets a fully dense map -- the paper's
  special case of the 3-channel input image.

Every timing model -- the simulators, the analytical tier, the balancing
planners -- reads occupancy only: the masks of a :class:`LayerMasks`,
derived once per (spec, seed). Only the functional accelerator
(:mod:`repro.arch`) and the value-level studies read the magnitudes of
a :class:`LayerData`, which exposes the same ``spec`` / ``input_mask`` /
``filter_masks`` attributes, so either one drives a simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from repro.nets.layers import ConvLayerSpec
from repro.nets.pruning import DEFAULT_FILTER_SPREAD, prune_filters

__all__ = [
    "LayerData",
    "LayerMasks",
    "synthesize_layer",
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
    shape = (spec.in_height, spec.in_width, spec.in_channels)
    magnitudes = np.abs(rng.standard_normal(shape))
    density = spec.input_density
    if density >= 1.0:
        return magnitudes
    if density <= 0.0:
        return np.zeros(shape)
    if correlated and min(spec.in_height, spec.in_width) >= 4:
        field = rng.standard_normal(shape)
        # Smooth only spatially; channels keep independent patterns.
        field = ndimage.gaussian_filter(field, sigma=(1.5, 1.5, 0.0), mode="wrap")
    else:
        field = rng.standard_normal(shape)
    threshold = np.quantile(field, 1.0 - density)
    mask = field > threshold
    return np.where(mask, magnitudes, 0.0)


def synthesize_filters(
    spec: ConvLayerSpec,
    rng: np.random.Generator,
    spread: float = DEFAULT_FILTER_SPREAD,
) -> np.ndarray:
    """A dense (F, k, k, C) filter bank pruned to the spec's filter density."""
    shape = (spec.n_filters, spec.kernel, spec.kernel, spec.in_channels)
    weights = rng.standard_normal(shape)
    if spec.filter_density >= 1.0:
        return weights
    return prune_filters(weights, spec.filter_density, spread=spread, rng=rng)


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
    # Filters depend on the layer identity only, not the image seed.
    filter_rng = np.random.default_rng(_stable_seed(spec.name, "filters"))
    filters = synthesize_filters(spec, filter_rng, spread=filter_spread)
    input_rng = np.random.default_rng(_stable_seed(spec.name, f"input{seed}"))
    input_map = synthesize_input(spec, input_rng, correlated=correlated)
    return LayerData(spec=spec, input_map=input_map, filters=filters)


def _stable_seed(*parts: str) -> int:
    """A deterministic 63-bit seed from string parts (hash() is salted)."""
    import hashlib

    digest = hashlib.sha256("/".join(parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1
