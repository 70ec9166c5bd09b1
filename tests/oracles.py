"""Independent routes the suite checks the library against.

None of these is called by ``src/tpc``; each rebuilds a number the library
computes another way.

The two-sided states have two construction routes:
:func:`tpc.blackbox.output_family` assembles each reduced operator, one per
Bob input, directly from the closed-form entries, while
:func:`purified_reduced_state` materializes all four registers for one Bob
input and traces the other party out.  They must agree entrywise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from tpc import qmat
from tpc.blackbox import amplitude_vector
from tpc.discrim import Povm, certify_optimal
from tpc.funcspec import FunctionSpec
from tpc.tolerances import active


def pure_state(amplitudes: Sequence[complex], dims: Sequence[int] | None = None) -> qmat.DensityState:
    """Rank-1 DensityState from a unit-norm amplitude vector."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= active().trace:  # written so that a NaN norm fails too
        raise ValueError(f"amplitude vector norm {norm:.12g} is not 1")
    return qmat.DensityState(np.outer(v, v.conj()), tuple(dims) if dims is not None else (v.size,))


def partial_trace(state: qmat.DensityState, keep: Iterable[int]) -> qmat.DensityState:
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
    return qmat.DensityState(tensor_form.reshape(d, d), tuple(dims))


def purified_reduced_state(f: FunctionSpec, amplitudes: Sequence[complex], j: int) -> qmat.DensityState:
    """Build the full four-register pure state and trace out the other
    party's registers."""
    if f.sided != "two":
        raise ValueError("purification route requires a two-sided function")
    a = amplitude_vector(amplitudes, f.alice_arity)
    n, nb, kdim = f.alice_arity, f.bob_arity, f.outcome_count
    ket = np.zeros(n * nb * kdim * kdim, dtype=complex)
    for i in range(n):
        for k in range(kdim):
            idx = ((i * nb + j) * kdim + k) * kdim + k
            ket[idx] = a[i] * np.sqrt(float(f.prob(k, i, j)))
    full = pure_state(ket, (n, nb, kdim, kdim))
    return partial_trace(full, keep=(0, 2))


def honest_family_povm(a: int, b: int, outcome_dim: int, alphas: Sequence[float], input_dim: int = 3) -> Povm:
    """The family of measurements equivalent to honest play for canonical
    3x3 functions probed with the balanced two-term superposition.

    Outcome-basis projectors ``|i,k><i,k|`` are regrouped into three guess
    operators parameterized by five free splits ``alphas`` in [0, 1]; the
    split parameters never change the success probability.
    """
    al = [float(x) for x in alphas]
    if len(al) != 5 or any(x < 0 or x > 1 for x in al):
        raise ValueError("alphas must be five numbers in [0, 1]")
    if a == b or not (0 <= a < outcome_dim and 0 <= b < outcome_dim):
        raise ValueError(f"labels a={a}, b={b} invalid for {outcome_dim} outcomes")
    dim = input_dim * outcome_dim

    def proj(i, k):
        p = np.zeros((dim, dim), dtype=complex)
        p[i * outcome_dim + k, i * outcome_dim + k] = 1.0
        return p

    e0 = al[0] * proj(0, 0) + proj(1, a)
    e1 = (1.0 - al[0]) * proj(0, 0) + al[1 + b] * proj(1, b)
    e2 = np.eye(dim, dtype=complex) - e0 - e1
    return Povm((e0, e1, e2), (0, 1, 2))


def reference_helstrom(rho0: qmat.DensityState, rho1: qmat.DensityState, q0: float):
    """Per-pair Helstrom measurement: projector onto the nonnegative
    eigenspace of ``q0 rho0 - q1 rho1`` from the selected eigenvector
    columns, its complement, and the certificate of
    :func:`tpc.discrim.certify_optimal`.  Returns the success, the elements,
    the certified flag and the residuals."""
    delta = q0 * rho0.matrix - (1.0 - q0) * rho1.matrix
    w, v = np.linalg.eigh(delta)
    positive = v[:, w >= 0]
    e0 = positive @ qmat.dagger(positive)
    e0 = (e0 + qmat.dagger(e0)) / 2
    povm = Povm((e0, np.eye(rho0.dim, dtype=complex) - e0), (0, 1))
    ok, residuals = certify_optimal((rho0, rho1), (q0, 1.0 - q0), povm)
    return 0.5 * (1.0 + float(np.abs(w).sum())), povm.elements, ok, residuals


def fraction_slope_bound(f: FunctionSpec, q0: Fraction) -> Fraction:
    """:func:`tpc.attacks._endpoint_slope_bound` in ``Fraction`` arithmetic,
    term by term as its docstring states it: per outcome block k,
    ``sign(A_k) A_k' + 2 q0 q1 R_k / |A_k|``, the surd in ``R_k`` bounded
    from below by ``math.isqrt`` on the reduced ``g = p00 p01 p10 p11``."""
    q1 = 1 - q0
    total = Fraction(0)
    for k in range(f.outcome_count):
        p00, p01, p10, p11 = (f.prob(k, i, j) for i in (0, 1) for j in (0, 1))
        a = q0 * p00 - q1 * p01
        if a == 0:
            raise ArithmeticError(f"outcome {k} carries no weight difference at input |0>")
        slope_a = q0 * (p10 - p00) - q1 * (p11 - p01)
        g = p00 * p01 * p10 * p11
        root = Fraction(math.isqrt((g.numerator * g.denominator) << 128), g.denominator << 64)
        r = p10 * p01 + p00 * p11 - 2 * root
        total += (slope_a if a > 0 else -slope_a) + 2 * q0 * q1 * r / abs(a)
    return total
