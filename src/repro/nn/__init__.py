"""NumPy neural-network substrate.

A minimal, dependency-free replacement for the PyTorch models the paper
uses: layer and model specs (shapes, hyper-parameters, initialised
parameters), each model's parameters held as one flat vector for
over-the-air aggregation, and the batched engine, the one path that trains a whole worker group with
plain SGD (Eq. 4) and evaluates models.  The scalar forward/backward passes
the engine is checked against live in the test tree
(``tests/oracle/scalar.py``).
"""

from .params import default_dtype, parameter_dtype
from .batched import BatchedWorkerEngine
from .layers import (
    Conv2D,
    Dense,
    Flatten,
    Layer,
    MaxPool2D,
    ReLU,
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
    "default_dtype",
    "parameter_dtype",
    "BatchedWorkerEngine",
    "Layer",
    "Dense",
    "ReLU",
    "Flatten",
    "Conv2D",
    "MaxPool2D",
    "Model",
    "SequentialModel",
    "LogisticRegressionMLP",
    "MnistCNN",
    "CifarCNN",
    "MiniVGG",
]
