"""Generic component registry: every swappable piece of an experiment by name.

The paper's evaluation crosses datasets, Non-IID partitions, channel
models, edge-heterogeneity settings and mechanisms.  This module puts all
of those families behind one small registry keyed by *component kind*,
with one lookup path and one error message:

========================  ==========================================
kind                      examples
========================  ==========================================
``"dataset"``             ``synthetic-mnist``, ``synthetic-cifar10``
``"partitioner"``         ``iid``, ``label-skew``, ``dirichlet``
``"channel"``             ``rayleigh``, ``static``
``"latency"``             ``uniform``, ``homogeneous``
``"mechanism"``           ``fedavg``, ``tifl``, …, ``air_fedga``
``"model"``               ``lr``, ``mnist_cnn``, ``cifar_cnn``, ``mini_vgg``
``"clientstate"``         ``always-on``, ``bernoulli``, ``dropout-rejoin``
``"staleness"``           ``constant``, ``hinge``, ``polynomial``
========================  ==========================================

Components self-register at import time via the :func:`register`
decorator; lookups lazily import the standard component modules first, so
``repro.registry.get("mechanism", "air_fedga")`` works without importing
anything else by hand.  Unknown names raise
:class:`UnknownComponentError` — a ``KeyError`` subclass whose message
carries ``difflib`` close-match suggestions ("did you mean …?").

The declarative :class:`repro.experiments.scenario.Scenario` spec is the
main consumer: every section of a scenario names a component of one kind,
so a whole experiment is reproducible from one JSON document.

>>> from repro import registry
>>> registry.get("mechanism", "fedavg").__name__
'FedAvgTrainer'
>>> try:  # doctest: +ELLIPSIS
...     registry.get("mechanism", "air_fedgaa")
... except registry.UnknownComponentError as exc:
...     print(exc)
unknown mechanism 'air_fedgaa'; did you mean 'air_fedga' or 'air_fedavg' or 'fedavg'? (available: ['air_fedavg', 'air_fedga', ...])
"""

from __future__ import annotations

import difflib
import importlib
import inspect
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

__all__ = [
    "COMPONENT_KINDS",
    "UnknownComponentError",
    "register",
    "get",
    "create",
    "names",
    "kinds",
    "as_dict",
    "accepted_parameters",
    "check_kwargs",
]

#: The component kinds populated by the standard library modules.  The
#: registry itself accepts any kind string; these are the ones a
#: :class:`~repro.experiments.scenario.Scenario` is built from.
COMPONENT_KINDS: Tuple[str, ...] = (
    "dataset",
    "partitioner",
    "channel",
    "latency",
    "mechanism",
    "model",
    "clientstate",
    "staleness",
)

#: Human-facing labels used in error messages (kept identical to the
#: wording of the legacy per-family registries so existing callers that
#: match on the message keep working).
_KIND_LABELS: Dict[str, str] = {
    "partitioner": "partition strategy",
    "channel": "channel kind",
    "latency": "latency model",
    "clientstate": "client-state model",
    "staleness": "staleness policy",
}

#: Modules whose import populates the standard kinds (each calls
#: :func:`register` at import time).  Imported lazily on first lookup so
#: ``import repro.registry`` alone stays dependency-free.
_COMPONENT_MODULES: Tuple[str, ...] = (
    "repro.data.synthetic",
    "repro.data.partition",
    "repro.channel.fading",
    "repro.sim.latency",
    "repro.sim.clientstate",
    "repro.nn.models",
    "repro.fl.registry",
    "repro.fl.staleness",
)

_REGISTRY: Dict[str, Dict[str, Callable[..., Any]]] = {}
_populated = False


class UnknownComponentError(KeyError):
    """Lookup of a component name that is not registered for its kind.

    Subclasses :class:`KeyError` for backward compatibility with the
    legacy per-family registries.  Carries the ``kind``, the requested
    ``name``, the ``available`` names and ``difflib`` close-match
    ``suggestions``; the message spells all of that out.
    """

    def __init__(self, kind: str, name: str, available: Sequence[str]) -> None:
        self.kind = kind
        self.name = name
        self.available = sorted(available)
        self.suggestions = difflib.get_close_matches(
            name, self.available, n=3, cutoff=0.4
        )
        label = _KIND_LABELS.get(kind, kind)
        message = f"unknown {label} {name!r}"
        if self.suggestions:
            pretty = " or ".join(repr(s) for s in self.suggestions)
            message += f"; did you mean {pretty}?"
        message += f" (available: {self.available})"
        super().__init__(message)

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


def _ensure_populated() -> None:
    global _populated
    if _populated:
        return
    _populated = True
    for module in _COMPONENT_MODULES:
        importlib.import_module(module)


def register(
    kind: str, name: str, *, overwrite: bool = False
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator registering a component factory under ``(kind, name)``.

    The factory may be a class or a function; it is returned unchanged so
    the decorator composes with normal definitions::

        @register("channel", "rayleigh")
        @dataclass
        class RayleighFading(ChannelModel): ...

    Re-registering an existing name raises ``ValueError`` unless
    ``overwrite=True`` (useful in tests and for user plug-ins shadowing a
    built-in).
    """
    if not kind or not isinstance(kind, str):
        raise ValueError(f"component kind must be a non-empty string, got {kind!r}")
    if not name or not isinstance(name, str):
        raise ValueError(f"component name must be a non-empty string, got {name!r}")

    def decorator(factory: Callable[..., Any]) -> Callable[..., Any]:
        namespace = _REGISTRY.setdefault(kind, {})
        if name in namespace and namespace[name] is not factory and not overwrite:
            raise ValueError(
                f"{_KIND_LABELS.get(kind, kind)} {name!r} is already registered "
                f"(to {namespace[name]!r}); pass overwrite=True to replace it"
            )
        namespace[name] = factory
        return factory

    return decorator


def get(kind: str, name: str) -> Callable[..., Any]:
    """Look up a component factory; raises :class:`UnknownComponentError`."""
    _ensure_populated()
    namespace = _REGISTRY.get(kind, {})
    try:
        return namespace[name]
    except KeyError:
        raise UnknownComponentError(kind, name, list(namespace)) from None


def create(kind: str, name: str, *args: Any, **kwargs: Any) -> Any:
    """Look up and call a component factory in one step."""
    return get(kind, name)(*args, **kwargs)


def names(kind: str) -> List[str]:
    """Sorted names registered for one kind (empty list for unknown kinds)."""
    _ensure_populated()
    return sorted(_REGISTRY.get(kind, {}))


def kinds() -> List[str]:
    """Sorted list of kinds with at least one registered component."""
    _ensure_populated()
    return sorted(k for k, v in _REGISTRY.items() if v)


def as_dict(kind: str) -> Dict[str, Callable[..., Any]]:
    """Snapshot of one kind's ``{name: factory}`` mapping (a copy)."""
    _ensure_populated()
    return dict(_REGISTRY.get(kind, {}))


# ----------------------------------------------------------------------
# Keyword-argument validation for component factories
# ----------------------------------------------------------------------
def accepted_parameters(
    factory: Callable[..., Any], *, exclude: Sequence[str] = ()
) -> Tuple[List[str], bool]:
    """The keyword parameters a factory accepts.

    Returns ``(names, has_var_keyword)`` where ``names`` excludes ``self``
    and anything in ``exclude`` (e.g. positionally supplied arguments like
    the trainer's ``experiment``), and ``has_var_keyword`` reports a
    ``**kwargs`` catch-all (in which case any name is accepted).
    """
    target = factory.__init__ if inspect.isclass(factory) else factory
    signature = inspect.signature(target)
    accepted: List[str] = []
    has_var_keyword = False
    for parameter in signature.parameters.values():
        if parameter.kind is inspect.Parameter.VAR_KEYWORD:
            has_var_keyword = True
            continue
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            if parameter.name != "self" and parameter.name not in exclude:
                accepted.append(parameter.name)
    return accepted, has_var_keyword


def check_kwargs(
    factory: Callable[..., Any],
    kwargs: Dict[str, Any],
    *,
    context: str,
    exclude: Sequence[str] = (),
) -> None:
    """Raise ``TypeError`` when ``kwargs`` contains names the factory rejects.

    Calling a trainer class with a typo'd keyword used to fail deep inside
    the constructor chain; this surfaces the mistake at the registry
    boundary with the full list of accepted parameter names.  Factories
    with a ``**kwargs`` catch-all are not checked (any name may be valid).
    """
    accepted, has_var_keyword = accepted_parameters(factory, exclude=exclude)
    if has_var_keyword:
        return
    unknown = sorted(set(kwargs) - set(accepted))
    if unknown:
        pretty = ", ".join(repr(u) for u in unknown)
        raise TypeError(
            f"{context} got unexpected keyword argument(s) {pretty}; "
            f"accepted parameters: {sorted(accepted)}"
        )


def _close_matches(name: str, candidates: Iterable[str]) -> List[str]:
    """difflib close matches, shared by scenario-field validation."""
    return difflib.get_close_matches(name, list(candidates), n=3, cutoff=0.4)
