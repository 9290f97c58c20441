"""Match-kernel backend registry.

The engine's k-NN math is pluggable: every backend implements the
:class:`~repro.core.kernels.MatchKernel` interface and is registered
here under a short name.  :class:`~repro.core.config.EngineConfig`
selects one via its ``backend`` field, and
:class:`~repro.core.engine.TextureSearchEngine` asks this module for
the kernel instance at construction time.

Built-in backends
-----------------

``algorithm2``
    The paper's RootSIFT pipeline (batched GEMM, no norm vectors) —
    the default.
``algorithm1``
    The paper's cuBLAS pipeline with cached ``N_R`` norms.
``garcia``
    Garcia et al. [9]: Algorithm 1 with the original modified insertion
    sort (Table 1, column 2), now runnable through the full engine.
``opencv``
    The OpenCV CUDA ``knnMatch`` cost model (Table 1, column 1).
``lsh``
    Kusamura et al. LSH compression baseline: Hamming candidate filter
    plus exact re-ranking.
``cascade``
    Cascade-hashing binary prefilter: coarse-to-fine XOR/popcount
    Hamming tests over cached sign-bit codes prune candidates before
    the exact cuBLAS 2-NN pipeline runs on the survivors.

Registration is lazy — the mapping stores import paths, so importing
this module pulls in no kernel code and no baseline code.  Third-party
kernels register classes directly with :func:`register_kernel`.
"""

from __future__ import annotations

from importlib import import_module
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import EngineConfig
    from .kernels import MatchKernel

__all__ = [
    "available_backends",
    "canonical_backend",
    "create_kernel",
    "kernel_class",
    "register_kernel",
    "resolve_backend",
]

#: built-in backends: name -> (module, class).  Lazy so that config
#: validation never triggers heavyweight imports (or import cycles).
_BUILTIN: dict[str, tuple[str, str]] = {
    "algorithm2": ("repro.core.kernels", "Algorithm2Kernel"),
    "algorithm1": ("repro.core.kernels", "Algorithm1Kernel"),
    "garcia": ("repro.baselines.adapters", "GarciaKernel"),
    "opencv": ("repro.baselines.adapters", "OpenCVKernel"),
    "lsh": ("repro.baselines.adapters", "LshKernel"),
    "cascade": ("repro.core.cascade", "CascadeKernel"),
}

#: historical / descriptive aliases.
_ALIASES: dict[str, str] = {
    "rootsift": "algorithm2",
    "cublas": "algorithm1",
}

#: classes registered at runtime (always take priority over aliases).
_CUSTOM: dict[str, type] = {}


def available_backends() -> list[str]:
    """Canonical names of every registered backend, built-ins first."""
    return list(_BUILTIN) + [n for n in _CUSTOM if n not in _BUILTIN]


def canonical_backend(name: str) -> str:
    """Resolve aliases; raise ``ValueError`` for unknown backends.

    The error lists *every* currently registered name — built-ins,
    runtime :func:`register_kernel` additions, and the aliases — so a
    typo'd config points at the real menu, not just the built-in set.
    """
    name = str(name).lower()
    name = _ALIASES.get(name, name)
    if name in _CUSTOM or name in _BUILTIN:
        return name
    aliases = ", ".join(
        f"{alias}->{target}" for alias, target in sorted(_ALIASES.items())
    )
    raise ValueError(
        f"unknown backend {name!r}; registered backends: "
        f"{', '.join(available_backends())} (aliases: {aliases})"
    )


def register_kernel(name: str, cls: type | None = None):
    """Register a kernel class under ``name`` (usable as a decorator).

    Re-registering an existing name replaces it — tests use this to
    shadow a built-in with an instrumented double.
    """

    def _register(kernel_cls: type) -> type:
        _CUSTOM[str(name).lower()] = kernel_cls
        return kernel_cls

    if cls is not None:
        return _register(cls)
    return _register


def kernel_class(name: str) -> type:
    """The kernel class registered under ``name`` (lazily imported)."""
    name = canonical_backend(name)
    if name in _CUSTOM:
        return _CUSTOM[name]
    module_name, attr = _BUILTIN[name]
    return getattr(import_module(module_name), attr)


def resolve_backend(config: "EngineConfig") -> str:
    """The backend a configuration selects (its canonical ``backend``)."""
    return canonical_backend(config.backend)


def create_kernel(config: "EngineConfig", name: str | None = None) -> "MatchKernel":
    """Instantiate (and config-validate) the kernel for ``config``."""
    backend = canonical_backend(name) if name is not None else resolve_backend(config)
    cls = kernel_class(backend)
    cls.validate_config(config)
    return cls(config)
