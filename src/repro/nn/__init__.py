"""NumPy neural-network substrate.

A minimal, dependency-free replacement for the PyTorch models the paper
uses: layers with explicit forward/backward passes, classification losses,
SGD, and flat-vector parameter access for over-the-air aggregation.
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
    model_shard_safe,
    register_batched_kernel,
)
from .layers import (
    Conv2D,
    Dense,
    Dropout,
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
from .optim import SGD, Optimizer
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
    "model_shard_safe",
    "register_batched_kernel",
    "Layer",
    "Dense",
    "ReLU",
    "Flatten",
    "Dropout",
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
    "Optimizer",
    "SGD",
    "Model",
    "SequentialModel",
    "LogisticRegressionMLP",
    "MnistCNN",
    "CifarCNN",
    "MiniVGG",
]
