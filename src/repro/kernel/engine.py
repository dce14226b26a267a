"""The engine flag: compiled kernel vs legacy reference implementations.

The kernel is the engine of every call that does not name one, and the
only engine the service and the edge reach.  The legacy pure-dict
solvers stay as the parity oracle, reachable only through an explicit
``engine="legacy"`` argument.
"""

from __future__ import annotations

__all__ = ["KERNEL", "LEGACY", "resolve_engine"]

KERNEL = "kernel"
LEGACY = "legacy"
_ENGINES = (KERNEL, LEGACY)


def resolve_engine(engine: str | None) -> str:
    """Validate an ``engine=`` argument; ``None`` means the kernel."""
    if engine is None:
        return KERNEL
    if engine not in _ENGINES:
        raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
    return engine
