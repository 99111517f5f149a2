"""Package attributes that load on first access (PEP 562).

A package root that imports every subpackage makes each process pay for
all of them: one that only compresses would load the integral engine and
SciPy.  :func:`lazy_names` gives a package a module-level ``__getattr__``
that imports the defining module the first time a name is read, so
``import repro`` costs next to nothing and ``repro.PaSTRICompressor``
loads the codec alone.
"""

from __future__ import annotations

import importlib
import sys


def lazy_names(package: str, exports: dict[str, tuple[str, ...]],
               submodules: tuple[str, ...]):
    """The ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each defining module to the public names it provides;
    ``submodules`` lists the package's own modules, which resolve as
    attributes (``repro.chem``) the same way.  A resolved value is stored
    in the package namespace, so the hook runs once per name.
    """
    namespace = sys.modules[package].__dict__
    table = {name: module for module, names in exports.items() for name in names}
    table.update((name, f"{package}.{name}") for name in submodules)

    def __getattr__(name: str):
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = importlib.import_module(module)
        if name not in submodules:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__
