"""Dense complex linear algebra on small Hilbert spaces.

Operators are plain complex ndarrays; composite-system bookkeeping lives in
:class:`DensityState`, which pairs an operator with the ordered subsystem
dimensions it acts on.  All functions are pure and safe to call from many
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .tolerances import active


def as_operator(m) -> np.ndarray:
    """Coerce to a finite complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix contains non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return m.swapaxes(-1, -2).conj()


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entry of ``|M - M^dag|``."""
    return float(np.abs(m - dagger(m)).max()) if m.size else 0.0


def require_hermitian(m, tol: float | None = None) -> np.ndarray:
    a = as_operator(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    limit = active().herm if tol is None else tol
    defect = hermiticity_defect(a)
    if defect > limit:
        raise ValueError(f"matrix is not Hermitian (defect {defect:.3g} > {limit:.3g})")
    return a


def inv_sqrt_on_support(m) -> np.ndarray:
    """Pseudo-inverse square root: eigenvalues above the support cutoff map
    to ``1/sqrt(lam)``, the rest to 0."""
    return _inv_sqrt(require_hermitian(m))


def _inv_sqrt(a: np.ndarray) -> np.ndarray:
    """:func:`inv_sqrt_on_support` of each Hermitian matrix in a stack
    ``(..., d, d)``, without re-checking Hermiticity; each matrix is still
    checked for negative eigenvalues and cut off at its own support."""
    tol = active()
    w, v = np.linalg.eigh(a)
    lowest = w[..., :1][w[..., :1] < -tol.psd]
    if lowest.size:
        raise ValueError(f"matrix has negative eigenvalue {lowest[0]:.3g} beyond tolerance; not PSD")
    cutoff = tol.rank * np.maximum(w[..., -1:], 0.0)
    inv = np.where(w > cutoff, 1.0 / np.sqrt(np.where(w > cutoff, w, 1.0)), 0.0)
    return (v * inv[..., None, :]) @ dagger(v)


@dataclass(frozen=True)
class DensityState:
    """Hermitian, unit-trace, PSD operator with subsystem dimensions.

    The constructor checks all of that, PSD by one eigenvalue solve.
    :meth:`_from_outer_products` takes sums of ``outer(c, c.conj())`` on
    disjoint blocks of validated inputs, which are finite, PSD and Hermitian
    to an ulp by construction, and checks only shape, dims and unit trace.
    """

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        self._settle(as_operator(self.matrix), self.dims, checked=True)

    @classmethod
    def _from_outer_products(cls, m: np.ndarray, dims: Sequence[int]) -> DensityState:
        """Takes ownership of ``m`` and makes it read-only."""
        state = object.__new__(cls)
        state._settle(m, dims, checked=False)
        return state

    def _settle(self, m: np.ndarray, dims: Sequence[int], checked: bool) -> None:
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        dims = tuple(int(d) for d in dims)
        if not dims or any(d <= 0 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        if math.prod(dims) != m.shape[0]:
            raise ValueError(
                f"subsystem dimensions {dims} do not multiply to matrix size {m.shape[0]}"
            )
        tol = active()
        defect = hermiticity_defect(m) if checked else 0.0
        if defect > tol.herm:
            raise ValueError(f"density matrix not Hermitian (defect {defect:.3g})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > tol.trace:
            raise ValueError(f"density matrix trace {tr:.12g} is not 1")
        if checked:
            lo = float(np.linalg.eigvalsh(m).min())
            if lo < -tol.psd:
                raise ValueError(f"density matrix has negative eigenvalue {lo:.3g}")
            m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

