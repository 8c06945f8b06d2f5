"""Runtime switch for certificate-sparsified flow tests.

ME and FBM flow tests on dense induced subgraphs run on the
Cheriyan–Kao–Thurimella sparse certificate (at most ``k(n-1)`` edges)
instead of the full subgraph (see ``docs/performance.md``). The switch
is exact: enumeration output is identical with it on or off
(``tests/test_fastpath.py`` asserts this differentially). It exists
for the DESIGN.md §5 ablation and the CLI's ``--no-certificate``, not
because results change.

Configuration is thread-local, mirroring the :mod:`repro.obs`
collector scoping: :func:`configured` overrides for a block,
:func:`active` reads the current settings. Worker processes start from
:data:`DEFAULT`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, replace

__all__ = [
    "DEFAULT",
    "FastPathConfig",
    "active",
    "configured",
]


@dataclass(frozen=True)
class FastPathConfig:
    """Flow-engine switches (on by default)."""

    #: Run ME/FBM flow tests on the CKT sparse certificate when the
    #: induced subgraph is dense (the CLI's ``--no-certificate``
    #: disables this).
    certificate: bool = True


DEFAULT = FastPathConfig()


class _Local(threading.local):
    # Class-attribute fallback: threads that never override read the
    # module default via plain attribute lookup (``active`` sits on
    # per-test paths).
    config: FastPathConfig = DEFAULT


_tls = _Local()


def active() -> FastPathConfig:
    """The thread's active fast-path configuration."""
    return _tls.config


@contextmanager
def configured(**overrides):
    """Scope fast-path overrides over a block (thread-local).

    >>> from repro.flow import fastpath
    >>> with fastpath.configured(certificate=False) as config:
    ...     config.certificate
    False
    >>> fastpath.active().certificate
    True
    """
    previous = active()
    current = replace(previous, **overrides)
    _tls.config = current
    try:
        yield current
    finally:
        _tls.config = previous
