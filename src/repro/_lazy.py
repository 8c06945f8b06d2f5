"""Package re-exports that import their module on first use (PEP 562).

A ``ripple`` command should load only the modules it runs, yet
``from repro.serving import QueryEngine`` must keep working. A package
``__init__`` therefore declares its re-exports as a name → module
table and installs the two hooks returned here::

    _EXPORTS = {"Graph": "repro.graph.adjacency"}
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

The first ``package.Graph`` imports ``repro.graph.adjacency`` and caches
the value in the package namespace, so later lookups never reach the
hook. An exported name must not also name a submodule of the package:
importing that submodule would bind the module over the hook.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable


def lazy_exports(
    namespace: dict, table: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` for ``table``'s names."""

    def __getattr__(name: str) -> object:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            ) from None
        value = namespace[name] = getattr(
            importlib.import_module(module), name
        )
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *table})

    return __getattr__, __dir__
