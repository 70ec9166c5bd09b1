"""Dense linear algebra on small Hilbert spaces.

Operators are plain ndarrays, one matrix ``(d, d)`` or a stack
``(..., d, d)``.  The attack pipeline carries block-diagonal families as
their blocks: one ``(N, m, b, b)`` array holds the ``b x b`` outcome blocks
of every family of a stack, family by family, and an index array
``starts`` says where each family's blocks begin; a dense family
``(m, d, d)`` is the one-block case ``(1, m, d, d)`` with ``starts``
:data:`ONE_FAMILY`.  Only :func:`tpc.blackbox.output_family` assembles dense
stacks from blocks, checked once by :class:`tpc.blackbox.StateFamily`.
Every per-family number is a segment reduction over its blocks.  The
builders pick float64 for real families, the measurement path follows
their dtype, and the public objects stay complex.  All functions are pure
and safe to call from many threads.
"""

from __future__ import annotations

import functools

import numpy as np

from .tolerances import RANK_TOL, TOL_PSD

# ``starts`` of a stack that holds one family
ONE_FAMILY = np.zeros(1, dtype=np.intp)


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack; of a
    real stack, its transposed view with no copy, so callers never write
    into the result."""
    return m.swapaxes(-1, -2).conj() if m.dtype.kind == "c" else m.swapaxes(-1, -2)


@functools.cache
def identity(d: int) -> np.ndarray:
    """The read-only ``d x d`` identity, built once per dimension."""
    eye = np.eye(d)
    eye.setflags(write=False)
    return eye


def _per_block(x: np.ndarray, starts: np.ndarray, blocks: int) -> np.ndarray:
    """Each family's row of ``x`` for each block of a stack of ``blocks``
    blocks whose families start at ``starts``, as an array that broadcasts
    along the block axis: ``x`` itself when each block is a family or one
    family holds them all, else its rows repeated."""
    if len(starts) in (1, blocks):
        return x
    bounds = starts.tolist() + [blocks]
    return np.repeat(x, [end - start for start, end in zip(bounds, bounds[1:])], axis=0)


def _inv_sqrt(a: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root of each Hermitian matrix of a stack
    ``(N, b, b)``, or of one matrix ``(d, d)``: eigenvalues above the
    support cutoff map to ``1/sqrt(lam)``, the rest to 0.  The cutoff is
    ``rank`` times the largest eigenvalue of each family, over its blocks
    from its ``starts``, as for the dense matrix they form
    (:data:`ONE_FAMILY` for the whole stack or the one matrix,
    ``np.arange(N)`` for each matrix).  Hermiticity is the caller's to
    ensure; negative eigenvalues are checked in every matrix."""
    w, v = np.linalg.eigh(a)
    if w[..., 0].min() < -TOL_PSD:
        lowest = w[..., 0][w[..., 0] < -TOL_PSD]
        raise ValueError(f"matrix has negative eigenvalue {lowest[0]:.3g} beyond tolerance; not PSD")
    top = _per_block(np.maximum.reduceat(w[..., -1:], starts), starts, len(w))
    # off the support 1/sqrt(inf) is exactly 0
    inv = 1.0 / np.sqrt(np.where(w > RANK_TOL * np.maximum(top, 0.0), w, np.inf))
    return (v * inv[..., None, :]) @ dagger(v)
