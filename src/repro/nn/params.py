"""The dtype a model's flat parameter vector is built in.

The Air-FedGA mechanism (and AirComp aggregation in general) operates on the
*flattened* model parameter vector ``w``: workers transmit analog waveforms
whose amplitudes encode the entries of ``w``, and the parameter server
receives a noisy superposition of those vectors.  A model therefore keeps
its parameters in one contiguous 1-D vector (``model.vector``, see
:mod:`repro.nn.models`), built in the dtype this module selects.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

__all__ = [
    "default_dtype",
    "parameter_dtype",
]

#: Floating dtypes a simulation may run in.  ``float64`` is the reference
#: mode (all equivalence tests run in it); ``float32`` halves the memory
#: bandwidth of the O(q) hot paths for large sweeps at the cost of ~1e-7
#: relative rounding per operation.
_SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_DEFAULT_DTYPE = np.dtype(np.float64)


def default_dtype() -> np.dtype:
    """The dtype a newly constructed model's vector is built in."""
    return _DEFAULT_DTYPE


@contextmanager
def parameter_dtype(dtype: np.dtype | str):
    """Context manager switching the default parameter dtype.

    Trainers wrap their ``model_factory()`` call in this so a single
    config knob (``AirFedGAConfig.dtype``) switches the whole simulation
    between ``float64`` (reference) and ``float32`` (bandwidth-saving) mode
    without touching every layer constructor.
    """
    global _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in _SUPPORTED_DTYPES:
        raise ValueError(f"unsupported parameter dtype {dt}; use float32 or float64")
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = dt
    try:
        yield
    finally:
        _DEFAULT_DTYPE = previous
