"""
numpy, bound as ``np`` for the package, with its import deferred to first use.

Every ``hsmf`` module takes ``np`` from here instead of importing numpy itself.
If numpy is already imported, ``np`` is that module. Otherwise ``np`` is numpy
installed in ``sys.modules`` through ``importlib.util.LazyLoader``: numpy's own
code runs on the first attribute access (``np.asarray``, ``np.float64``, ...),
so a command that never computes an array, such as ``hsmf validate``, never
pays for it. The module object is the one a later ``import numpy`` returns.
A missing numpy still raises ``ModuleNotFoundError`` when ``hsmf`` is imported.

An ``import numpy`` statement anywhere in the package would undo this: the
statement reads the lazy module's ``__spec__``, which runs numpy at once.

Before Python 3.12, ``LazyLoader`` is not thread-safe: two threads that touch
``np`` for the first time together may both run numpy's initialisation. A
program that calls ``hsmf`` from several threads should make the first numpy
use from one thread, or import numpy before it imports ``hsmf``.
"""

import importlib.util
import sys


def _deferred_numpy():
    if (loaded := sys.modules.get("numpy")) is not None:
        return loaded
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    loader = importlib.util.LazyLoader(spec.loader)
    spec.loader = loader
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    loader.exec_module(module)
    return module


np = _deferred_numpy()
