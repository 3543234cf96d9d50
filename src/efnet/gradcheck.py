"""Finite-difference gradient oracle used by the test suites.

Central differences with a fixed step, run in double precision. The
callable under test takes plain numpy arrays and returns a python float,
so the oracle never touches the tape machinery it is checking.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

FD_STEP = 1e-5
# the floor of max_rel_error's denominator, so that two gradients that are
# both near zero do not count as disagreeing
REL_ERROR_FLOOR = 1e-8


def fd_gradient(f: Callable[..., float], arrays: Sequence[np.ndarray]):
    """Numeric gradient of ``f`` w.r.t. each array via central differences.

    ``f`` is called with float64 copies of ``arrays``, and it is those
    copies that get perturbed, so inputs of any dtype (float32 included)
    are differentiated in double precision and the caller's arrays are
    left untouched.
    """
    work = [np.array(a, dtype=np.float64) for a in arrays]
    grads = []
    for a in work:
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            hi = f(*work)
            flat[i] = orig - FD_STEP
            lo = f(*work)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * FD_STEP)
        grads.append(g)
    return grads


def max_rel_error(analytic, numeric) -> float:
    """Worst-case relative disagreement between two gradient arrays."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    if a.shape != n.shape:
        raise ValueError(f"gradient shapes differ: {a.shape} vs {n.shape}")
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), REL_ERROR_FLOOR)
    return float(np.max(np.abs(a - n) / denom))
