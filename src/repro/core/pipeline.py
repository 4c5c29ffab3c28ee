"""Whole-network sparse inference with GB-S's offline unshuffling.

The paper's offline processing "proceeds layer by layer, unshuffling each
layer's weights to match the previous layer and then sorting the layer's
filters for load balance" (Section 3.3). :class:`NetworkPipeline` runs a
chain of convolutional layers end to end:

1. each layer's output passes through ReLU (creating the natural
   activation sparsity the next layer exploits) and is converted to the
   sparse representation on the fly,
2. under GB-S, outputs are emitted in density-sorted (shuffled) channel
   order and the next layer's weights are statically rewritten to consume
   them -- the pipeline verifies the network function is unchanged,
3. every layer is simulated on the chosen scheme with its *measured*
   densities (not nominal ones), so density propagation is real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.balance.greedy import gb_s_plan
from repro.balance.unshuffle import shuffle_outputs, unshuffle_next_layer_weights
from repro.telemetry import events
from repro.nets.layers import ConvLayerSpec
from repro.nets.pooling import max_pool2d
from repro.nets.reference import conv2d_reference, relu
from repro.nets.synthesis import LayerData
from repro.sim.config import HardwareConfig, LARGE_CONFIG
from repro.sim.results import LayerResult
from repro.sim.sparten import simulate_sparten
from repro.tensor.sparsemap import SparseTensor3D

__all__ = ["PipelineLayer", "PipelineRun", "NetworkPipeline"]


@dataclass(frozen=True)
class PipelineLayer:
    """One pipeline stage: conv weights, geometry, optional pooling.

    ``pool`` is an optional (size, stride) max pool applied after the
    ReLU -- the CPU-side step that chains the Table 3 geometries
    (AlexNet's 3x3/2 pools). Pooling is channelwise, so it commutes with
    GB-S's channel shuffle.
    """

    weights: np.ndarray  # (F, k, k, C)
    stride: int = 1
    padding: int = 0
    name: str = "layer"
    pool: tuple[int, int] | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights)
        if w.ndim != 4 or w.shape[1] != w.shape[2]:
            raise ValueError(
                f"{self.name}: weights must be (F, k, k, C), got {w.shape}"
            )
        if self.pool is not None and (len(self.pool) != 2 or min(self.pool) < 1):
            raise ValueError(f"{self.name}: pool must be (size, stride) >= 1")


@dataclass(frozen=True)
class PipelineRun:
    """Outcome of one end-to-end inference.

    Attributes:
        output: the final dense feature map (unshuffled channel order).
        layer_results: per-layer simulation results (measured densities).
        layer_densities: measured input density entering each layer.
    """

    output: np.ndarray
    layer_results: tuple[LayerResult, ...]
    layer_densities: tuple[float, ...]


class NetworkPipeline:
    """Runs a chain of conv layers through the SparTen model.

    Args:
        layers: the stages in order; stage i's filter channel count must
            equal stage i-1's filter count.
        config: hardware configuration for the per-layer simulations.
        variant: greedy-balancing variant (``gb_s`` exercises the offline
            unshuffling; ``gb_h``/``no_gb`` leave channel order alone).
        fidelity: fidelity-ladder rung for the per-layer performance
            numbers (default: the configured ``REPRO_FIDELITY``).
            ``"analytical"`` predicts each layer in closed form from
            the *measured* activations -- the network function,
            densities and GB-S unshuffling checks are always exact; only
            the cycle estimate changes rungs.
    """

    def __init__(
        self,
        layers: list[PipelineLayer],
        config: HardwareConfig = LARGE_CONFIG,
        variant: str = "gb_s",
        fidelity: str | None = None,
    ):
        if not layers:
            raise ValueError("need at least one layer")
        for prev, nxt in zip(layers, layers[1:]):
            if np.asarray(nxt.weights).shape[3] != np.asarray(prev.weights).shape[0]:
                raise ValueError(
                    f"{nxt.name}: expects {np.asarray(nxt.weights).shape[3]} input "
                    f"channels but {prev.name} produces "
                    f"{np.asarray(prev.weights).shape[0]}"
                )
        self.layers = list(layers)
        self.config = config
        self.variant = variant
        if fidelity is not None:
            from repro.analytical.fidelity import fidelity_level

            fidelity = fidelity_level(fidelity)  # validate eagerly
        self.fidelity = fidelity

    def prepare_gb_s_weights(self) -> list[np.ndarray]:
        """The offline pass: per-layer sorted weights with unshuffling.

        Layer i's weights are first re-indexed along the input-channel
        axis to undo layer i-1's shuffle, then re-ordered along the
        filter axis by their own density sort. Returns the rewritten
        weight banks (what would be loaded into the accelerator).
        """
        rewritten: list[np.ndarray] = []
        prev_order: np.ndarray | None = None
        for layer in self.layers:
            weights = np.asarray(layer.weights, dtype=np.float64)
            if prev_order is not None:
                weights = unshuffle_next_layer_weights(weights, prev_order)
            plan = gb_s_plan(weights != 0, self.config.units_per_cluster)
            rewritten.append(weights[plan.order])
            prev_order = plan.order
        return rewritten

    def run(self, image: np.ndarray, simulate: bool = True) -> PipelineRun:
        """Inference over *image* (H, W, C); ReLU between layers.

        With ``variant="gb_s"`` the execution uses the shuffled weight
        banks and verifies, layer by layer, that unshuffling preserves
        the network function exactly.
        """
        x = np.asarray(image, dtype=np.float64)
        if x.ndim != 3:
            raise ValueError(f"image must be (H, W, C), got shape {x.shape}")
        results: list[LayerResult] = []
        densities: list[float] = []
        use_gb_s = self.variant == "gb_s"
        shuffled_banks = self.prepare_gb_s_weights() if use_gb_s else None
        x_shuffled = x
        events.emit(
            "pipeline.start",
            layers=len(self.layers),
            variant=self.variant,
            simulate=simulate,
        )

        for i, layer in enumerate(self.layers):
            weights = np.asarray(layer.weights, dtype=np.float64)
            density = float(np.count_nonzero(x)) / x.size
            densities.append(density)

            # Reference (unshuffled) path.
            out = relu(
                conv2d_reference(x, weights, stride=layer.stride, padding=layer.padding)
            )
            if layer.pool is not None:
                out = max_pool2d(out, size=layer.pool[0], stride=layer.pool[1])

            if use_gb_s:
                assert shuffled_banks is not None
                out_shuffled = relu(
                    conv2d_reference(
                        x_shuffled,
                        shuffled_banks[i],
                        stride=layer.stride,
                        padding=layer.padding,
                    )
                )
                if layer.pool is not None:
                    out_shuffled = max_pool2d(
                        out_shuffled, size=layer.pool[0], stride=layer.pool[1]
                    )
                plan = gb_s_plan(weights != 0, self.config.units_per_cluster)
                if not np.allclose(out_shuffled, shuffle_outputs(out, plan.order)):
                    raise AssertionError(
                        f"{layer.name}: GB-S unshuffling changed the network function"
                    )
                x_shuffled = out_shuffled

            if simulate:
                spec = self._measured_spec(layer, x, weights, i)
                data = LayerData(spec=spec, input_map=x, filters=weights)
                result = self._layer_result(spec, data)
                results.append(result)
                events.emit(
                    "pipeline.layer",
                    name=spec.name,
                    index=i,
                    density=density,
                    cycles=result.cycles,
                )
            else:
                events.emit(
                    "pipeline.layer", name=layer.name, index=i, density=density
                )
            x = out

        events.emit(
            "pipeline.end",
            layers=len(self.layers),
            output_density=float(np.count_nonzero(x)) / x.size,
        )
        return PipelineRun(
            output=x,
            layer_results=tuple(results),
            layer_densities=tuple(densities),
        )

    def _layer_result(self, spec: ConvLayerSpec, data: LayerData) -> LayerResult:
        """One stage's performance number at the pipeline's fidelity.

        Measured workloads have no synthesis seed, so they bypass the
        result memo; the ``trace`` rung degrades to ``timeline`` here
        (the trace front end keys off the workload cache).
        """
        from repro.analytical.fidelity import at_level, fidelity_level

        level = fidelity_level(self.fidelity)
        with at_level(level):
            if level == "analytical":
                from repro.analytical.model import predict_layer

                scheme = {
                    "no_gb": "sparten_no_gb",
                    "gb_s": "sparten_gb_s",
                    "gb_h": "sparten",
                }[self.variant]
                return predict_layer(spec, self.config, scheme=scheme, data=data)
            return simulate_sparten(
                spec, self.config, variant=self.variant, data=data
            )

    def sparse_footprint(self, feature_map: np.ndarray) -> int:
        """Stored bits of a feature map in the on-the-fly sparse format."""
        return SparseTensor3D(
            np.asarray(feature_map), chunk_size=self.config.chunk_size
        ).storage_bits()

    def _measured_spec(
        self, layer: PipelineLayer, x: np.ndarray, weights: np.ndarray, index: int
    ) -> ConvLayerSpec:
        h, w, c = x.shape
        return ConvLayerSpec(
            name=layer.name if layer.name != "layer" else f"stage{index}",
            in_height=h,
            in_width=w,
            in_channels=c,
            kernel=weights.shape[1],
            n_filters=weights.shape[0],
            stride=layer.stride,
            padding=layer.padding,
            input_density=float(np.count_nonzero(x)) / x.size,
            filter_density=float(np.count_nonzero(weights)) / weights.size,
        )
