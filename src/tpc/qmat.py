"""Dense linear algebra on small Hilbert spaces.

Operators are plain ndarrays, one matrix ``(d, d)`` or a stack
``(..., d, d)``; a family of states is one such stack, checked once by
:class:`tpc.blackbox.StateFamily`.  Its builders pick float64 for real
families, the measurement path follows their dtype, and the public objects
stay complex.  All functions are pure and safe to call from many threads.
"""

from __future__ import annotations

import numpy as np

from .tolerances import active


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.swapaxes(-1, -2).conj()


def _inv_sqrt(a: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root of each Hermitian matrix in a stack
    ``(..., d, d)``: eigenvalues above the matrix's own support cutoff map
    to ``1/sqrt(lam)``, the rest to 0.  Hermiticity is the caller's to
    ensure; negative eigenvalues are checked in every matrix."""
    tol = active()
    w, v = np.linalg.eigh(a)
    lowest = w[..., :1][w[..., :1] < -tol.psd]
    if lowest.size:
        raise ValueError(f"matrix has negative eigenvalue {lowest[0]:.3g} beyond tolerance; not PSD")
    cutoff = tol.rank * np.maximum(w[..., -1:], 0.0)
    inv = np.where(w > cutoff, 1.0 / np.sqrt(np.where(w > cutoff, w, 1.0)), 0.0)
    return (v * inv[..., None, :]) @ dagger(v)
