"""Simulator backend selection (compiled C > pure Python).

The event loop of :func:`repro.runtime.simulator.simulate` has two
interchangeable implementations for its default configuration
(priority scheduler, no fork-join, no recording, NIC network, p2p
multicast):

* ``c``      — :mod:`.csim`, compiled on demand with the system C
  compiler;
* ``python`` — the batch-drained pure-Python loop, always available.

Both produce byte-identical event schedules (the golden and
cross-backend equivalence tests pin this).  ``REPRO_SIM_BACKEND``
overrides the automatic choice: ``auto`` (default), ``c`` or
``python``.  Naming ``c`` where it cannot be built falls back to Python
rather than failing, so the variable is safe to set fleet-wide; any
other value is rejected with a :class:`ValueError`.
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Tuple

__all__ = ["select_backend", "active_backend", "BACKEND_ENV", "BACKENDS"]

BACKEND_ENV = "REPRO_SIM_BACKEND"

#: Accepted ``REPRO_SIM_BACKEND`` values.
BACKENDS = ("auto", "c", "python")

_cached: Optional[Tuple[str, Optional[Callable]]] = None
_cached_env: Optional[str] = None


def select_backend() -> Tuple[str, Optional[Callable]]:
    """Resolve ``(name, runner)`` for the accelerated event loop.

    ``runner`` is ``None`` when only the pure-Python loop is usable.
    The choice is cached per ``REPRO_SIM_BACKEND`` value, so tests can
    monkeypatch the environment and re-resolve.
    """
    global _cached, _cached_env
    env = os.environ.get(BACKEND_ENV, "auto").lower()
    if _cached is not None and env == _cached_env:
        return _cached
    if env not in BACKENDS:
        raise ValueError(f"{BACKEND_ENV}={env!r} is not a simulator backend; "
                         f"choose one of {'|'.join(BACKENDS)}")
    choice = _resolve(env)
    _cached, _cached_env = choice, env
    return choice


def _resolve(env: str) -> Tuple[str, Optional[Callable]]:
    from . import csim
    if env != "python" and csim.available():
        return "c", csim.run
    return "python", None


def active_backend() -> str:
    """Name of the backend ``simulate`` will use for eligible runs."""
    return select_backend()[0]
