"""NumPy neural-network substrate.

A minimal, dependency-free replacement for the PyTorch models the paper
uses: layers with explicit forward/backward passes, classification losses,
flat-vector parameter access for over-the-air aggregation, and the batched
engine that trains a whole worker group with plain SGD (Eq. 4).
"""

from .params import (
    Parameter,
    ParameterSet,
    default_dtype,
    flatten_parameters,
    parameter_dtype,
    unflatten_vector,
)
from .batched import (
    BatchedKernel,
    BatchedWorkerEngine,
    batched_layer_supported,
    register_batched_kernel,
)
from .layers import (
    Conv2D,
    Dense,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
    col2im,
    im2col,
)
from .losses import (
    accuracy,
    cross_entropy,
    cross_entropy_from_probs,
    log_softmax,
    softmax,
    softmax_cross_entropy,
)
from .models import (
    CifarCNN,
    LogisticRegressionMLP,
    MiniVGG,
    MnistCNN,
    Model,
    SequentialModel,
)

__all__ = [
    "Parameter",
    "ParameterSet",
    "flatten_parameters",
    "unflatten_vector",
    "default_dtype",
    "parameter_dtype",
    "BatchedKernel",
    "BatchedWorkerEngine",
    "batched_layer_supported",
    "register_batched_kernel",
    "Layer",
    "Dense",
    "ReLU",
    "Flatten",
    "Conv2D",
    "MaxPool2D",
    "im2col",
    "col2im",
    "softmax",
    "log_softmax",
    "cross_entropy",
    "softmax_cross_entropy",
    "cross_entropy_from_probs",
    "accuracy",
    "Model",
    "SequentialModel",
    "LogisticRegressionMLP",
    "MnistCNN",
    "CifarCNN",
    "MiniVGG",
]
