"""Dense complex linear algebra on small Hilbert spaces.

Operators are plain complex ndarrays; composite-system bookkeeping lives in
:class:`DensityState`, which pairs an operator with the ordered subsystem
dimensions it acts on.  All functions are pure and safe to call from many
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .tolerances import active


def as_operator(m) -> np.ndarray:
    """Coerce to a finite complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m.T)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entry of ``|M - M^dag|``."""
    return float(np.abs(m - dagger(m)).max()) if m.size else 0.0


def require_hermitian(m, tol: float | None = None, what: str = "matrix") -> np.ndarray:
    a = as_operator(m)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    limit = active().herm if tol is None else tol
    defect = hermiticity_defect(a)
    if defect > limit:
        raise ValueError(f"{what} is not Hermitian (defect {defect:.3g} > {limit:.3g})")
    return a


def tensor(a, b) -> np.ndarray:
    """Kronecker product; dimensions multiply."""
    return np.kron(as_operator(a), as_operator(b))


def eig_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (real, descending) and matching eigenvector columns.

    Eigenvector phases are solver-dependent; downstream uses are
    phase-insensitive (projectors, operator functions).
    """
    a = require_hermitian(m)
    w, v = np.linalg.eigh(a)
    return w[::-1].copy(), v[:, ::-1].copy()


def trace_norm(m) -> float:
    """Sum of absolute eigenvalues of a Hermitian matrix."""
    a = require_hermitian(m)
    return float(np.abs(np.linalg.eigvalsh(a)).sum())


def is_psd(m, tol: float | None = None) -> bool:
    """True iff the minimum eigenvalue is >= -tol."""
    a = require_hermitian(m)
    limit = active().psd if tol is None else tol
    return bool(np.linalg.eigvalsh(a).min() >= -limit)


def inv_sqrt_on_support(m) -> np.ndarray:
    """Pseudo-inverse square root: eigenvalues above the support cutoff map
    to ``1/sqrt(lam)``, the rest to 0."""
    a = require_hermitian(m)
    tol = active()
    w, v = np.linalg.eigh(a)
    if w.size and w[0] < -tol.psd:
        raise ValueError(
            f"matrix has negative eigenvalue {w[0]:.3g} beyond tolerance; not PSD"
        )
    largest = float(w[-1]) if w.size else 0.0
    cutoff = tol.rank * max(largest, 0.0)
    inv = np.where(w > cutoff, 1.0 / np.sqrt(np.where(w > cutoff, w, 1.0)), 0.0)
    return (v * inv) @ dagger(v)


@dataclass(frozen=True)
class DensityState:
    """Hermitian, unit-trace, PSD operator with subsystem dimensions."""

    matrix: np.ndarray
    dims: tuple[int, ...]

    def __post_init__(self):
        m = as_operator(self.matrix)
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"density matrix must be square, got {m.shape}")
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d <= 0 for d in dims):
            raise ValueError(f"subsystem dimensions must be positive, got {dims}")
        if math.prod(dims) != m.shape[0]:
            raise ValueError(
                f"subsystem dimensions {dims} do not multiply to matrix size {m.shape[0]}"
            )
        tol = active()
        defect = hermiticity_defect(m)
        if defect > tol.herm:
            raise ValueError(f"density matrix not Hermitian (defect {defect:.3g})")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > tol.trace:
            raise ValueError(f"density matrix trace {tr:.12g} is not 1")
        lo = float(np.linalg.eigvalsh(m).min())
        if lo < -tol.psd:
            raise ValueError(f"density matrix has negative eigenvalue {lo:.3g}")
        frozen = m.copy()
        frozen.setflags(write=False)
        object.__setattr__(self, "matrix", frozen)
        object.__setattr__(self, "dims", dims)

    @classmethod
    def _trusted(cls, matrix: np.ndarray, dims: tuple[int, ...]) -> "DensityState":
        """Wrap a matrix its builder has already validated with the checks
        above; only a frozen copy is made."""
        state = object.__new__(cls)
        frozen = matrix.copy()
        frozen.setflags(write=False)
        object.__setattr__(state, "matrix", frozen)
        object.__setattr__(state, "dims", dims)
        return state

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def basis_ket(dim: int, k: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def pure_state(amplitudes: Sequence[complex], dims: Sequence[int] | None = None) -> DensityState:
    """Rank-1 DensityState from a unit-norm amplitude vector."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > active().trace:
        raise ValueError(f"amplitude vector norm {norm:.12g} is not 1")
    return DensityState(np.outer(v, v.conj()), tuple(dims) if dims is not None else (v.size,))


def partial_trace(state: DensityState, keep: Iterable[int]) -> DensityState:
    """Reduced state on the ``keep`` subsystems (original order preserved)."""
    keep_idx = sorted({int(i) for i in keep})
    n = len(state.dims)
    if not keep_idx:
        raise ValueError("keep must select at least one subsystem")
    for i in keep_idx:
        if i < 0 or i >= n:
            raise ValueError(f"subsystem index {i} out of range for {n} subsystems")
    dims = list(state.dims)
    tensor_form = state.matrix.reshape(tuple(dims) * 2)
    for idx in sorted(set(range(n)) - set(keep_idx), reverse=True):
        tensor_form = np.trace(tensor_form, axis1=idx, axis2=idx + len(dims))
        del dims[idx]
    d = math.prod(dims)
    return DensityState(tensor_form.reshape(d, d), tuple(dims))
