"""Lazy package surfaces: a package ``__init__`` that imports nothing.

Every package under ``repro`` declares its public names (``__all__``) and
the module each one lives in; :func:`lazy_exports` returns the PEP 562
module ``__getattr__`` and ``__dir__`` that import that module on first
access. ``import repro.cluster`` then costs one small file, and a run loads
only the modules it calls. ``from repro.cluster import DistributedTrainer``,
``repro.harness.figures`` and ``from repro.obs import *`` work as before.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, public: list[str], exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for ``package``, whose ``__all__`` is ``public``.

    ``exports`` maps a module, relative to ``package`` (``".tensor"``) or
    absolute, to the names of ``public`` it defines. A name of ``public``
    that no module defines is a submodule of ``package``. A resolved name is
    stored on the package, so the next access is a plain attribute read.
    """
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name in home:
            value = getattr(importlib.import_module(home[name], package), name)
        elif name in public:
            value = importlib.import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(public))

    return __getattr__, __dir__
