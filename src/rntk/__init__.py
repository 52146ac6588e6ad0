"""Infinite-width recurrent-network kernels (CK/NTK) with verification and benchmarking tools."""

from .kernels import (
    Arch,
    CompositionError,
    GramPair,
    HyperParams,
    InputOrder,
    PairOutputs,
    ShapeError,
    Variant,
    flip,
    gram,
    gram_cross,
    gram_cross_family,
    gram_family,
    kernel_pair,
    vphi,
)
from .oracle import (
    KernelEstimate,
    RNNWeights,
    analytic_suite,
    empirical_cross_head,
    empirical_suite,
    sample_rnn,
)

__version__ = "0.1.0"

__all__ = [
    "Arch",
    "CompositionError",
    "GramPair",
    "HyperParams",
    "InputOrder",
    "PairOutputs",
    "ShapeError",
    "KernelEstimate",
    "RNNWeights",
    "Variant",
    "analytic_suite",
    "empirical_cross_head",
    "empirical_suite",
    "flip",
    "gram",
    "gram_cross",
    "gram_cross_family",
    "gram_family",
    "kernel_pair",
    "sample_rnn",
    "vphi",
    "__version__",
]
