"""Lazy package surfaces (PEP 562).

A package ``__init__`` that gathers names from heavy sibling modules
re-exports them through :func:`lazy_surface` instead of importing them, so
importing one leaf module (``repro.engine.client_state``,
``repro.comm.wire``, ...) no longer drags in every sibling of its package.
A name's defining module is imported on the first attribute access and the
value is then cached in the package namespace, so later lookups are plain
dict hits and ``from pkg import Name`` / ``from pkg import *`` behave as
with eager re-exports.

Registry packages (``repro.algorithms``, ``repro.models``, ...) stay eager:
importing their members *is* how the members register.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

__all__ = ["lazy_surface"]


def lazy_surface(
    package: str, exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``, whose public
    names are ``exports``: ``{defining module: names}``.

    A name may not share its defining module's name (``compose`` from
    ``pkg.compose``): importing that submodule rebinds the package
    attribute to the module, so such a name has to be imported eagerly.
    """
    origin: Dict[str, str] = {}
    for module, names in exports.items():
        for name in names:
            if module == f"{package}.{name}":
                raise ValueError(
                    f"{package}.{name} names both a submodule and an export; "
                    "import it eagerly"
                )
            origin[name] = module
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, list(origin)
