"""Independent routes the suite checks the library against.

None of these is called by ``src/tpc``; each rebuilds a number the library
computes another way, except :func:`pretty_good_povm` and
:func:`dense_search`, which run the library's own private stages on one
dense family.

States are plain density matrices; the oracles that split a matrix into
subsystems take their dimensions explicitly.  The two-sided states have two
construction routes: :func:`tpc.blackbox.output_family` assembles each
reduced operator, one per Bob input, directly from the closed-form entries,
while :func:`purified_reduced_state` materializes all four registers for one
Bob input and traces the other party out.  They must agree entrywise.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

import mpmath
import numpy as np

from tpc import discrim, qmat
from tpc.blackbox import amplitude_vector
from tpc.discrim import Povm, certify_optimal
from tpc.funcspec import FunctionSpec, validate_prior
from tpc.tolerances import active


def pure_state(amplitudes: Sequence[complex]) -> np.ndarray:
    """Rank-1 density matrix from a unit-norm amplitude vector."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= active().trace:  # written so that a NaN norm fails too
        raise ValueError(f"amplitude vector norm {norm:.12g} is not 1")
    return np.outer(v, v.conj())


def partial_trace(
    matrix: np.ndarray, dims: Sequence[int], keep: Iterable[int]
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Reduced matrix on the ``keep`` subsystems of a matrix on subsystems
    ``dims`` (original order preserved), and the dimensions it acts on."""
    dims = [int(d) for d in dims]
    if math.prod(dims) != len(matrix):
        raise ValueError(f"subsystem dimensions {tuple(dims)} do not multiply to matrix size {len(matrix)}")
    keep_idx = sorted({int(i) for i in keep})
    n = len(dims)
    if not keep_idx:
        raise ValueError("keep must select at least one subsystem")
    for i in keep_idx:
        if i < 0 or i >= n:
            raise ValueError(f"subsystem index {i} out of range for {n} subsystems")
    tensor_form = np.asarray(matrix).reshape(tuple(dims) * 2)
    for idx in sorted(set(range(n)) - set(keep_idx), reverse=True):
        tensor_form = np.trace(tensor_form, axis1=idx, axis2=idx + len(dims))
        del dims[idx]
    d = math.prod(dims)
    return tensor_form.reshape(d, d), tuple(dims)


def purified_reduced_state(
    f: FunctionSpec, amplitudes: Sequence[complex], j: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Build the full four-register pure state and trace out the other
    party's registers: the reduced matrix and its dimensions (input, outcome)."""
    if f.sided != "two":
        raise ValueError("purification route requires a two-sided function")
    a = amplitude_vector(amplitudes, f.alice_arity)
    n, nb, kdim = f.alice_arity, f.bob_arity, f.outcome_count
    ket = np.zeros(n * nb * kdim * kdim, dtype=complex)
    for i in range(n):
        for k in range(kdim):
            idx = ((i * nb + j) * kdim + k) * kdim + k
            ket[idx] = a[i] * np.sqrt(float(f.prob(k, i, j)))
    return partial_trace(pure_state(ket), (n, nb, kdim, kdim), keep=(0, 2))


def loop_honest_probability(f: FunctionSpec, prior: Sequence[float]) -> float:
    """The honest guessing probability ``max_i sum_k max_j p(k|i,j) q_j``
    cell by cell, through :meth:`FunctionSpec.prob`, in the order of
    operations of :func:`tpc.discrim._honest`."""
    q = validate_prior(prior, f.bob_arity)
    best = 0.0
    for i in range(f.alice_arity):
        total = 0.0
        for k in range(f.outcome_count):
            total += max(float(f.prob(k, i, j)) * q[j] for j in range(f.bob_arity))
        best = max(best, total)
    return best


def mp_pretty_good_success(f: FunctionSpec, dps: int = 50) -> mpmath.mpf:
    """The pretty-good success of a two-sided table under the uniform
    superposition and the uniform prior, in ``dps``-digit mpmath arithmetic
    from the exact ``p(k|i,j)``: each state ``rho_j`` on (input, outcome) is
    ``sum_k |v_jk><v_jk|`` with ``v_jk = sum_i sqrt(p(k|i,j) / n) |i, k>``,
    ``S = sum_j rho_j`` is inverted on its support by ``mpmath.eigsy``, and
    the value is ``sum_j tr(S^-1/2 rho_j S^-1/2 rho_j) / m``.  The element
    absorbing the kernel of S adds nothing, as every ``rho_j`` lies in S's
    support."""
    if f.sided != "two":
        raise ValueError("pretty-good oracle requires a two-sided function")
    n, m, kdim = f.alice_arity, f.bob_arity, f.outcome_count
    d = n * kdim
    with mpmath.workdps(dps):
        states = []
        for j in range(m):
            rho = mpmath.zeros(d, d)
            for k in range(kdim):
                amps = (f.prob(k, i, j) / n for i in range(n))
                v = [mpmath.sqrt(mpmath.mpf(a.numerator) / a.denominator) for a in amps]
                for i, l in itertools.product(range(n), repeat=2):
                    rho[i * kdim + k, l * kdim + k] = v[i] * v[l]
            states.append(rho)
        w, u = mpmath.eigsy(sum(states[1:], states[0]))
        cutoff = mpmath.mpf(10) ** (-dps // 2) * max(w)
        root = u * mpmath.diag([1 / mpmath.sqrt(x) if x > cutoff else 0 for x in w]) * u.T
        total = mpmath.mpf(0)
        for rho in states:
            product = root * rho * root * rho
            total += sum(product[i, i] for i in range(d))
        return total / m


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


def below_psd_tolerance(elements: np.ndarray) -> bool:
    """Whether some Hermitian element of a stack ``(..., b, b)`` has an
    eigenvalue below ``-TOL_PSD``, from its full spectrum (``eigvalsh``)."""
    return bool(np.linalg.eigvalsh(elements).min() < -active().psd)


def pretty_good_povm(family, prior: Sequence[float]) -> Povm:
    """The pretty-good measurement of one dense family as a checked
    :class:`Povm`: :func:`tpc.discrim._pretty_good` on a single block."""
    states = discrim._family_states(family)
    elements = discrim._pretty_good(states[None], qmat.ONE_FAMILY, np.array([prior], dtype=float))
    return Povm(elements[0], range(len(states)))


def dense_search(family, prior: Sequence[float], seed: Povm | None = None, max_iters: int = 10000):
    """:func:`tpc.discrim._fixed_point` on one dense family, a single block,
    from ``seed`` or the pretty-good measurement, with the family, prior and
    seed checked by :func:`tpc.discrim._checked_inputs`."""
    seed = pretty_good_povm(family, prior) if seed is None else seed
    matrices, priors, family_weighted = discrim._checked_inputs(family, prior, seed)
    return discrim._fixed_point(seed.elements[None], matrices[None], priors, family_weighted[None], max_iters)


def reference_helstrom(rho0: np.ndarray, rho1: np.ndarray, q0: float):
    """Per-pair Helstrom measurement: projector onto the nonnegative
    eigenspace of ``q0 rho0 - q1 rho1`` from the selected eigenvector
    columns, its complement, and the certificate of
    :func:`tpc.discrim.certify_optimal`.  Returns the success, the elements,
    the certified flag and the residuals."""
    delta = q0 * rho0 - (1.0 - q0) * rho1
    w, v = np.linalg.eigh(delta)
    positive = v[:, w >= 0]
    e0 = positive @ qmat.dagger(positive)
    e0 = (e0 + qmat.dagger(e0)) / 2
    povm = Povm((e0, np.eye(len(rho0), dtype=complex) - e0), (0, 1))
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
