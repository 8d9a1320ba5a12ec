"""PEP 562 lazy exports for the package ``__init__`` modules.

A package names the submodule behind each of its lazy exports and
imports that submodule on the first access of one of them, so a
process loads only the code it runs: ``repro serve`` imports neither
the HTTP client nor Almser, the non-forest estimators or the non-Leiden
clustering algorithms, and ``repro lint`` imports no numpy.
"""

import importlib
import sys
from collections.abc import Mapping

__all__ = ["lazy_exports", "LazyRegistry"]


def lazy_exports(namespace, submodules):
    """A module ``__getattr__`` for the package whose globals are
    ``namespace``; ``submodules`` maps a relative submodule name to the
    names the package exports from it.

    The first access of a name imports its submodule and binds every
    name that submodule exports. Importing a submodule also binds the
    submodule itself on the package, under its own name, so the
    ``girvan_newman`` function would otherwise be left shadowed by the
    ``girvan_newman`` module once ``edge_betweenness`` loaded it.
    """
    package = namespace["__name__"]
    source_of = {
        name: source for source, names in submodules.items()
        for name in names
    }

    def __getattr__(name):
        source = source_of.get(name)
        if source is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = importlib.import_module(source, package)
        for export in submodules[source]:
            namespace[export] = getattr(module, export)
        return namespace[name]

    return __getattr__


class LazyRegistry(Mapping):
    """A read-only ``name -> export`` registry of one package: it lists
    every choice up front and reads a value from the package (through
    its lazy exports) only when that name is looked up."""

    def __init__(self, package, names):
        self._package = package
        self._names = tuple(names)

    def __getitem__(self, name):
        if name not in self._names:
            raise KeyError(name)
        return getattr(sys.modules[self._package], name)

    def __iter__(self):
        return iter(self._names)

    def __len__(self):
        return len(self._names)
