"""Reduced states held by the cheating party after using an ideal box.

The box keeps everything in the computational basis: on inputs ``|i>|j>``
it writes outcome ``k`` with amplitude ``sqrt(p(k|i,j))`` to both parties'
outcome registers (two-sided) or to the receiver's register only
(one-sided).  Amplitudes are fixed to the nonnegative real root; the
effect of complex phases on the amplitudes is not explored.

Two independent construction routes are provided for the two-sided case:
:func:`alice_reduced_states` assembles the reduced operators for a whole
stack of inputs directly from the closed-form entries and validates the
stack at once (:func:`alice_reduced_state` and :func:`output_family` are its
one-input case), while :func:`purified_reduced_state` materializes all four
registers and traces the other party out.  They must agree entrywise; the
test suite enforces this.
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
    """One state per possible input of the party being guessed."""

    states: tuple[qmat.DensityState, ...]
    input_dim: int
    outcome_dim: int

    def __post_init__(self):
        if not self.states:
            raise ValueError("state family must contain at least one state")
        dims = {s.dim for s in self.states}
        if len(dims) != 1:
            raise ValueError(f"family states have inconsistent dimensions {dims}")

    def __len__(self) -> int:
        return len(self.states)

    @property
    def dim(self) -> int:
        return self.states[0].dim


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


def _reject_first(bad: np.ndarray, message) -> None:
    """Raise naming the first amplitude row flagged in ``bad``."""
    if bad.any():
        row = int(np.flatnonzero(bad)[0])
        raise ValueError(f"amplitude row {row}: {message(row)}")


def alice_reduced_states(f: FunctionSpec, amplitudes) -> np.ndarray:
    """Alice's reduced states for a stack of superposed inputs.

    ``amplitudes`` holds one input per row, shape ``(n, alice_arity)``; the
    result has shape ``(n, bob_arity, d, d)``, entry ``[r, j]`` being the
    state after input row ``r`` against Bob's input ``j``.  Register order
    is (input, outcome); each state is block-diagonal in the outcome label,
    with block k equal to the outer product of the vector
    ``a_i * sqrt(p(k|i,j))``.  The whole stack is validated at once with the
    checks and tolerances of :class:`qmat.DensityState` (finite unit-norm
    rows, Hermiticity, unit trace, minimum eigenvalue); each check runs over
    the whole stack in that order, and the ``ValueError`` names the first
    row that fails it.
    """
    if f.sided != "two":
        raise ValueError("superposed-input reduced states require a two-sided function")
    n, nb, kdim = f.alice_arity, f.bob_arity, f.outcome_count
    a = np.asarray(amplitudes, dtype=complex)
    if a.ndim != 2 or a.shape[1] != n:
        raise ValueError(f"expected rows of {n} amplitudes, got shape {a.shape}")
    tol = active()
    norms = np.linalg.norm(a, axis=1)
    _reject_first(
        ~(np.abs(norms - 1.0) <= tol.trace),
        lambda r: f"input superposition norm {norms[r]:.12g} is not 1",
    )
    sqrt_p = np.sqrt(
        [[[float(f.prob(k, i, j)) for i in range(n)] for k in range(kdim)] for j in range(nb)]
    )
    m = np.zeros((a.shape[0], nb, n * kdim, n * kdim), dtype=complex)
    for k in range(kdim):
        c = a[:, None, :] * sqrt_p[:, k]
        m[..., k::kdim, k::kdim] += c[..., :, None] * c.conj()[..., None, :]
    # |M - M^dag| from real and imaginary parts: no complex temporaries the
    # size of the stack
    re, im = m.real, m.imag
    skew = re - re.swapaxes(-1, -2)
    defect = np.hypot(skew, im + im.swapaxes(-1, -2), out=skew).max(axis=(1, 2, 3))
    _reject_first(
        ~(defect <= tol.herm), lambda r: f"density matrix not Hermitian (defect {defect[r]:.3g})"
    )
    trace_err = np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0).max(axis=1)
    _reject_first(
        ~(trace_err <= tol.trace), lambda r: f"density matrix trace is off 1 by {trace_err[r]:.3g}"
    )
    lo = np.linalg.eigvalsh(m)[..., 0].min(axis=1)
    _reject_first(
        ~(lo >= -tol.psd), lambda r: f"density matrix has negative eigenvalue {lo[r]:.3g}"
    )
    return m


def _two_sided_family(f: FunctionSpec, amplitudes) -> tuple[qmat.DensityState, ...]:
    """The n=1 case of :func:`alice_reduced_states`, one state per Bob input."""
    stack = alice_reduced_states(f, np.asarray(amplitudes, dtype=complex).reshape(1, -1))
    dims = (f.alice_arity, f.outcome_count)
    return tuple(qmat.DensityState._trusted(m, dims) for m in stack[0])


def alice_reduced_state(f: FunctionSpec, amplitudes: Sequence[complex], j: int) -> qmat.DensityState:
    """Alice's reduced state after a superposed input against Bob's input j
    (see :func:`alice_reduced_states`)."""
    if not 0 <= j < f.bob_arity:
        raise ValueError(f"honest input {j} out of range [0, {f.bob_arity})")
    return _two_sided_family(f, amplitudes)[j]


def alice_reduced_state_one_sided(f: FunctionSpec, i: int, j: int) -> qmat.DensityState:
    """The receiver's pure outcome-register state after an honest input i."""
    if f.sided != "one":
        raise ValueError("one-sided reduced states require a one-sided function")
    if not 0 <= i < f.alice_arity:
        raise ValueError(f"honest input {i} out of range [0, {f.alice_arity})")
    if not 0 <= j < f.bob_arity:
        raise ValueError(f"partner input {j} out of range [0, {f.bob_arity})")
    amps = np.sqrt([float(f.prob(k, i, j)) for k in range(f.outcome_count)])
    return qmat.pure_state(amps, (f.outcome_count,))


def purified_reduced_state(f: FunctionSpec, amplitudes: Sequence[complex], j: int) -> qmat.DensityState:
    """Independent route: build the full four-register pure state and trace
    out the other party's registers."""
    if f.sided != "two":
        raise ValueError("purification route requires a two-sided function")
    a = amplitude_vector(amplitudes, f.alice_arity)
    n, nb, kdim = f.alice_arity, f.bob_arity, f.outcome_count
    ket = np.zeros(n * nb * kdim * kdim, dtype=complex)
    for i in range(n):
        for k in range(kdim):
            idx = ((i * nb + j) * kdim + k) * kdim + k
            ket[idx] = a[i] * np.sqrt(float(f.prob(k, i, j)))
    full = qmat.pure_state(ket, (n, nb, kdim, kdim))
    return qmat.partial_trace(full, keep=(0, 2))


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
        return StateFamily(_two_sided_family(f, alice_input), f.alice_arity, f.outcome_count)
    i = int(alice_input)
    states = tuple(
        alice_reduced_state_one_sided(f, i, j) for j in range(f.bob_arity)
    )
    return StateFamily(states, 1, f.outcome_count)
