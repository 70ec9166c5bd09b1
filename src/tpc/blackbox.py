"""Reduced states held by the cheating party after using an ideal box.

The box keeps everything in the computational basis: on inputs ``|i>|j>``
it writes outcome ``k`` with amplitude ``sqrt(p(k|i,j))`` to both parties'
outcome registers (two-sided) or to the receiver's register only
(one-sided).  Amplitudes are fixed to the nonnegative real root; the
effect of complex phases on the amplitudes is not explored.

The builders emit each family as its outcome blocks (the layout of
:mod:`tpc.qmat`): a two-sided state is block-diagonal in the outcome, one
``i x i`` outer product per outcome, and a one-sided state is one block.
Only :func:`output_family` assembles a dense ``(m, d, d)`` stack, in
(input, outcome) register order, for the public :class:`StateFamily`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qmat
from .funcspec import FunctionSpec, transpose
from .tolerances import TOL_HERM, TOL_PSD, TOL_TRACE


@dataclass(frozen=True, eq=False)
class StateFamily:
    """One state per input of the guessed party, as one read-only complex
    ``(m, d, d)`` stack, every state checked at once: square matrices of one
    shape, finite entries, Hermiticity, unit trace and PSD (one stacked
    ``eigvalsh``), naming the first defect.  Families compare by identity."""

    states: np.ndarray

    def __post_init__(self):
        shapes = [np.shape(s) for s in self.states]
        if not shapes:
            raise ValueError("state family must be a non-empty sequence of density matrices")
        for shape in shapes:
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(f"density matrix must be square, got {shape}")
        dims = {shape[0] for shape in shapes}
        if len(dims) != 1:
            raise ValueError(f"family states have inconsistent dimensions {dims}")
        stack = np.array(self.states, dtype=complex)
        if not np.isfinite(stack).all():
            raise ValueError("matrix contains non-finite entries")
        defects = np.abs(stack - qmat.dagger(stack)).max(axis=(-2, -1))
        defects = defects[defects > TOL_HERM]
        if defects.size:
            raise ValueError(f"density matrix not Hermitian (defect {defects[0]:.3g})")
        lowest = np.linalg.eigvalsh(_unit_traces(stack)).min(axis=-1)
        lowest = lowest[lowest < -TOL_PSD]
        if lowest.size:
            raise ValueError(f"density matrix has negative eigenvalue {lowest[0]:.3g}")
        object.__setattr__(self, "states", stack)


def amplitude_vector(amplitudes: Sequence[complex], n: int) -> np.ndarray:
    a = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if a.shape != (n,):
        raise ValueError(f"expected {n} amplitudes, got {a.shape[0]}")
    norm = float(np.linalg.norm(a))
    if not abs(norm - 1.0) <= TOL_TRACE:
        raise ValueError(f"input superposition norm {norm:.12g} is not 1")
    return a


def uniform_superposition(n: int) -> np.ndarray:
    return np.full(n, 1.0 / np.sqrt(n), dtype=complex)


def _two_sided_families(
    p: np.ndarray, amplitudes, starts: np.ndarray = qmat.ONE_FAMILY
) -> np.ndarray:
    """Alice's reduced states after a superposed input, as outcome blocks:
    ``p`` holds the rows ``p(k|i,j)``, indexed ``[k][j][i]``, of the
    outcomes of each table of a stack, table by table, and ``starts`` where
    each table's outcomes begin (one table by default).  Returns one
    read-only array ``(N, j, i, i)``, one block per outcome row and one
    state per Bob input.

    Each state is block-diagonal in the outcome label: block k is the outer
    product of the vector ``a_i * sqrt(p(k|i,j))``, so PSD by construction
    and it skips the eigenvalue check, but every state's trace, the sum of
    its blocks' traces, is checked (:func:`_unit_traces`).  Float64 when no
    amplitude has an imaginary part, else complex128.
    """
    a = amplitude_vector(amplitudes, p.shape[-1])
    c = (a if a.imag.any() else a.real) * np.sqrt(p)
    return _unit_traces(c[..., :, None] * c[..., None, :].conj(), starts)


def _one_sided_families(p: np.ndarray) -> np.ndarray:
    """The receiver's pure outcome-register states after each honest input,
    for one table ``p(k|i,j)`` indexed ``[k][j][i]``: one read-only float64
    array ``(i, j, k, k)`` of the outer products of ``sqrt(p(k|i,j))``, one
    one-block family per honest input, PSD by construction, each state's
    trace checked (:func:`_unit_traces`)."""
    c = np.sqrt(p.T)
    return _unit_traces(c[..., :, None] * c[..., None, :])


def _unit_traces(blocks: np.ndarray, starts: np.ndarray | None = None) -> np.ndarray:
    """``blocks``, a stack of states ``(..., b, b)``, or, given ``starts``,
    of the blocks ``(N, m, b, b)`` of families that start there, made
    read-only once every state's trace (the sum of its blocks' traces) is 1,
    else :class:`StateFamily`'s message for the first that is not."""
    traces = np.trace(blocks, axis1=-2, axis2=-1)
    if starts is not None:
        traces = np.add.reduceat(traces, starts)
    failed = traces[np.abs(traces - 1.0) > TOL_TRACE]
    if failed.size:
        raise ValueError(f"density matrix trace {complex(failed[0]):.12g} is not 1")
    blocks.setflags(write=False)
    return blocks


def _assemble(blocks: np.ndarray) -> np.ndarray:
    """The dense states ``(m, d, d)`` of one two-sided family from its
    outcome blocks ``(k, m, i, i)``, in (input, outcome) register order."""
    kdim, bob, n, _ = blocks.shape
    dense = np.zeros((bob, n, kdim, n, kdim), dtype=blocks.dtype)
    k = np.arange(kdim)
    dense[:, :, k, :, k] += blocks
    dense = dense.reshape(bob, n * kdim, n * kdim)
    dense.setflags(write=False)
    return dense


def output_family(f: FunctionSpec, alice_input, role: str = "alice") -> StateFamily:
    """States indexed by the guessed party's input, for the given cheater.

    ``role`` names the cheating party; cheating Bob against ``f`` is
    cheating Alice against the transposed table.  For two-sided functions
    ``alice_input`` is an amplitude vector; for one-sided functions it is
    the cheater's honest input index (the cheater must be the receiver).
    """
    if role == "bob":
        f = transpose(f)
    elif role != "alice":
        raise ValueError(f"role must be 'alice' or 'bob', got {role!r}")
    if f.sided == "two":
        return StateFamily(_assemble(_two_sided_families(f.probabilities(), alice_input)))
    i = int(alice_input)
    if not 0 <= i < f.alice_arity:
        raise ValueError(f"honest input {i} out of range [0, {f.alice_arity})")
    return StateFamily(_one_sided_families(f.probabilities())[i])
