"""Parameter containers and vector <-> structured-parameter conversion.

The Air-FedGA mechanism (and AirComp aggregation in general) operates on the
*flattened* model parameter vector ``w``: workers transmit analog waveforms
whose amplitudes encode the entries of ``w``, and the parameter server
receives a noisy superposition of those vectors.  Every model in
:mod:`repro.nn` therefore exposes its parameters both as a list of named
NumPy arrays (the layout of each layer) and as a single contiguous 1-D
``float64`` vector (convenient for channel simulation and aggregation).

The conversion helpers here are deliberately allocation-conscious: flattening
copies each block into its slice of one (optionally pre-allocated) buffer,
and unflattening returns reshaped views of the vector.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = [
    "Parameter",
    "ParameterSet",
    "flatten_parameters",
    "unflatten_vector",
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
    """The dtype newly constructed :class:`Parameter` values are cast to."""
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


@dataclass
class Parameter:
    """A single trainable tensor.

    Attributes
    ----------
    name:
        Human-readable identifier, unique within a :class:`ParameterSet`
        (e.g. ``"conv1.weight"``).
    value:
        The parameter tensor, stored in the default dtype and C-contiguous
        so that flattening is a cheap ``ravel`` view.
    """

    name: str
    value: np.ndarray

    def __post_init__(self) -> None:
        self.value = np.ascontiguousarray(self.value, dtype=default_dtype())

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.value.shape

    @property
    def size(self) -> int:
        return int(self.value.size)


class ParameterSet:
    """Ordered collection of named :class:`Parameter` objects.

    The ordering is significant: the flattened vector layout is defined by
    insertion order, and every worker in a federated run must use the same
    layout for over-the-air aggregation to be meaningful.  Layers register
    their parameters at construction time, so identical model constructors
    yield identical layouts.
    """

    def __init__(self, parameters: Sequence[Parameter] | None = None) -> None:
        self._params: List[Parameter] = []
        self._by_name: Dict[str, Parameter] = {}
        # Flat-vector layout, one ``(offset, size, shape)`` per parameter,
        # extended by ``add`` so the per-round conversions never re-derive it.
        self._layout: List[Tuple[int, int, Tuple[int, ...]]] = []
        self._total_size = 0
        if parameters:
            for p in parameters:
                self.add(p)

    # ------------------------------------------------------------------
    # Container protocol
    # ------------------------------------------------------------------
    def add(self, param: Parameter) -> Parameter:
        if param.name in self._by_name:
            raise ValueError(f"duplicate parameter name: {param.name!r}")
        self._params.append(param)
        self._by_name[param.name] = param
        self._layout.append((self._total_size, param.size, param.shape))
        self._total_size += param.size
        return param

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params)

    def __len__(self) -> int:
        return len(self._params)

    def __getitem__(self, key: str | int) -> Parameter:
        if isinstance(key, int):
            return self._params[key]
        return self._by_name[key]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> List[str]:
        return [p.name for p in self._params]

    def shapes(self) -> List[Tuple[int, ...]]:
        return [p.shape for p in self._params]

    # ------------------------------------------------------------------
    # Vector conversion
    # ------------------------------------------------------------------
    @property
    def total_size(self) -> int:
        """Total number of scalar parameters (the model dimension ``q``)."""
        return self._total_size

    def to_vector(self, out: np.ndarray | None = None) -> np.ndarray:
        """Flatten all parameter values into a single 1-D ``float64`` vector."""
        return flatten_parameters([p.value for p in self._params], out=out)

    def from_vector(self, vector: np.ndarray) -> None:
        """Load parameter values in place from a flat vector."""
        vector = np.asarray(vector).reshape(-1)
        if vector.size != self._total_size:
            raise ValueError(
                f"vector has {vector.size} entries but shapes require "
                f"{self._total_size}"
            )
        for p, (offset, size, shape) in zip(self._params, self._layout):
            np.copyto(p.value, vector[offset : offset + size].reshape(shape))


def flatten_parameters(
    arrays: Sequence[np.ndarray], out: np.ndarray | None = None
) -> np.ndarray:
    """Concatenate arbitrary-shaped arrays into one flat ``float64`` vector.

    Parameters
    ----------
    arrays:
        Tensors to flatten, in layout order.
    out:
        Optional pre-allocated destination of the correct total size.  When
        given, no new vector is allocated; each block is copied into its
        slice of ``out``.
    """
    total = sum(int(a.size) for a in arrays)
    if out is None:
        dtype = (
            np.result_type(*(np.asarray(a).dtype for a in arrays))
            if arrays
            else np.float64
        )
        if dtype not in _SUPPORTED_DTYPES:
            dtype = np.dtype(np.float64)
        out = np.empty(total, dtype=dtype)
    elif out.size != total:
        raise ValueError(
            f"output buffer has size {out.size}, expected {total}"
        )
    offset = 0
    for a in arrays:
        n = int(a.size)
        out[offset : offset + n] = np.asarray(a).ravel()
        offset += n
    return out


def unflatten_vector(
    vector: np.ndarray, shapes: Sequence[Tuple[int, ...]]
) -> List[np.ndarray]:
    """Split a flat vector back into blocks of the given shapes.

    The returned arrays are reshaped *views* into ``vector`` whenever the
    vector is contiguous, so callers that only read the blocks pay no copy.
    """
    vector = np.asarray(vector)
    if vector.dtype not in _SUPPORTED_DTYPES:
        vector = vector.astype(np.float64)
    vector = vector.ravel()
    sizes = [math.prod(s) for s in shapes]
    expected = sum(sizes)
    if vector.size != expected:
        raise ValueError(
            f"vector has {vector.size} entries but shapes require {expected}"
        )
    blocks: List[np.ndarray] = []
    offset = 0
    for shape, n in zip(shapes, sizes):
        blocks.append(vector[offset : offset + n].reshape(shape))
        offset += n
    return blocks
