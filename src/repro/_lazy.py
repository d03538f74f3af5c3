"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package that re-exports its submodules' names eagerly makes every
``import repro.<pkg>.<leaf>`` pay for the whole package: the serving
front door, which only parses and hashes, would load numpy, the
training engine and the judge that way. :func:`lazy_exports` gives a
package a module-level ``__getattr__`` that imports the defining
submodule on first access instead, so ``from repro.core import
run_experiment`` keeps working and costs only what it names.
"""

from __future__ import annotations

from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """Module ``__getattr__`` for ``package``.

    ``exports`` maps a submodule name to the public names it defines;
    a name equal to its submodule's name exports the submodule itself.
    Each value is cached in the package namespace on first access.
    """
    owner = {name: module for module, names in exports.items()
             for name in names}

    def __getattr__(name: str):
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        loaded = import_module(f"{package}.{module}")
        value = loaded if name == module else getattr(loaded, name)
        setattr(import_module(package), name, value)
        return value

    return __getattr__
