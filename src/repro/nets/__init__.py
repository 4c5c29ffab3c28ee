"""CNN model substrate: layers, the paper's benchmark networks, pruning,
workload synthesis and the dense golden-reference convolution.

The paper evaluates pruned AlexNet, GoogLeNet (Inception 3a/5a) and VGGNet
with the per-layer shapes and densities of Table 3. Since the original
PyTorch-pruned weights are unavailable offline, :mod:`repro.nets.synthesis`
generates seeded synthetic tensors at exactly those densities (see
DESIGN.md, substitutions).
"""

from repro.nets.layers import ConvLayerSpec, FCLayerSpec
from repro.nets.models import NetworkSpec, alexnet, googlenet, vggnet, all_networks
from repro.nets.synthesis import LayerData, LayerMasks, synthesize_layer, synthesize_masks
from repro.nets.reference import conv2d_reference, fc_reference
from repro.nets.pooling import max_pool2d

__all__ = [
    "max_pool2d",
    "ConvLayerSpec",
    "FCLayerSpec",
    "NetworkSpec",
    "alexnet",
    "googlenet",
    "vggnet",
    "all_networks",
    "LayerData",
    "LayerMasks",
    "synthesize_layer",
    "synthesize_masks",
    "conv2d_reference",
    "fc_reference",
]
