"""Reduced states held by the cheating party after using an ideal box.

The box keeps everything in the computational basis: on inputs ``|i>|j>``
it writes outcome ``k`` with amplitude ``sqrt(p(k|i,j))`` to both parties'
outcome registers (two-sided) or to the receiver's register only
(one-sided).  Amplitudes are fixed to the nonnegative real root; the
effect of complex phases on the amplitudes is not explored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import qmat
from .funcspec import FunctionSpec, transpose
from .tolerances import active


@dataclass(frozen=True)
class StateFamily:
    """One state per possible input of the party being guessed, all of one
    dimension; each state's ``dims`` names its registers."""

    states: tuple[qmat.DensityState, ...]

    def __post_init__(self):
        if not self.states or not all(isinstance(s, qmat.DensityState) for s in self.states):
            raise ValueError("state family must be a non-empty sequence of DensityState")
        dims = {s.dim for s in self.states}
        if len(dims) != 1:
            raise ValueError(f"family states have inconsistent dimensions {dims}")

    def __len__(self) -> int:
        return len(self.states)


def amplitude_vector(amplitudes: Sequence[complex], n: int) -> np.ndarray:
    a = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if a.shape != (n,):
        raise ValueError(f"expected {n} amplitudes, got {a.shape[0]}")
    norm = float(np.linalg.norm(a))
    if not abs(norm - 1.0) <= active().trace:
        raise ValueError(f"input superposition norm {norm:.12g} is not 1")
    return a


def uniform_superposition(n: int) -> np.ndarray:
    return np.full(n, 1.0 / np.sqrt(n), dtype=complex)


def _two_sided_families(p: np.ndarray, amplitudes) -> np.ndarray:
    """Alice's reduced states after a superposed input, for a stack of
    same-shape tables ``p(k|i,j)`` indexed ``[t][k][j][i]``: one read-only
    array ``(t, j, d, d)``, one family per table and one state per Bob input.

    Register order is (input, outcome); each state is block-diagonal in the
    outcome label, with block k equal to the outer product of the vector
    ``a_i * sqrt(p(k|i,j))``: PSD by construction, so it skips the
    eigenvalue check, but every state's trace is checked (:func:`_unit_traces`).
    """
    tables, kdim, bob, n = p.shape
    a = amplitude_vector(amplitudes, n)
    c = a * np.sqrt(p)
    m = np.zeros((tables, bob, n, kdim, n, kdim), dtype=complex)
    k = np.arange(kdim)
    m[:, :, :, k, :, k] += (c[..., :, None] * c[..., None, :].conj()).swapaxes(0, 1)
    return _unit_traces(m.reshape(tables, bob, n * kdim, n * kdim))


def _one_sided_families(p: np.ndarray) -> np.ndarray:
    """The receiver's pure outcome-register states after each honest input,
    for one table ``p(k|i,j)`` indexed ``[k][j][i]``: one read-only array
    ``(i, j, k, k)`` of the outer products of ``sqrt(p(k|i,j))``, PSD by
    construction, each state's trace checked (:func:`_unit_traces`)."""
    c = np.sqrt(p.T).astype(complex)
    return _unit_traces(c[..., :, None] * c[..., None, :].conj())


def _unit_traces(m: np.ndarray) -> np.ndarray:
    """``m``, a stack of states ``(..., d, d)``, made read-only once every
    trace is 1, else :class:`qmat.DensityState`'s message for the first
    that is not."""
    traces = np.trace(m, axis1=-2, axis2=-1)
    failed = traces[np.abs(traces - 1.0) > active().trace]
    if failed.size:
        raise ValueError(f"density matrix trace {complex(failed[0]):.12g} is not 1")
    m.setflags(write=False)
    return m


def _family(states: np.ndarray, dims: Sequence[int]) -> StateFamily:
    """A :class:`StateFamily` of states ``(m, d, d)`` from the builders above."""
    return StateFamily(tuple(qmat.DensityState._from_outer_products(m, dims) for m in states))


def alice_reduced_state_one_sided(f: FunctionSpec, i: int, j: int) -> qmat.DensityState:
    """The receiver's pure outcome-register state after an honest input i,
    the outer product of ``sqrt(p(k|i,j))``: :func:`_one_sided_families`."""
    if f.sided != "one":
        raise ValueError("one-sided reduced states require a one-sided function")
    if not 0 <= i < f.alice_arity:
        raise ValueError(f"honest input {i} out of range [0, {f.alice_arity})")
    if not 0 <= j < f.bob_arity:
        raise ValueError(f"partner input {j} out of range [0, {f.bob_arity})")
    m = _one_sided_families(f.probabilities())[i, j]
    return qmat.DensityState._from_outer_products(m, (f.outcome_count,))


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
        states = _two_sided_families(f.probabilities()[None], alice_input)[0]
        return _family(states, (f.alice_arity, f.outcome_count))
    i = int(alice_input)
    return StateFamily(tuple(alice_reduced_state_one_sided(f, i, j) for j in range(f.bob_arity)))
