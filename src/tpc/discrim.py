"""State discrimination: honest baseline, two-state optimum, pretty-good
measurement, optimality certification, and an iterative POVM search.

The optimality certificate implements the standard necessary-and-sufficient
conditions for minimum-error discrimination of states ``rho_l`` with priors
``q_l`` by operators ``E_j``:

    E_j (q_j rho_j - q_l rho_l) E_l = 0         for all j, l
    sum_j E_j q_j rho_j - q_l rho_l  >= 0       for all l

The operator in the second condition need not come out Hermitian for an
arbitrary POVM; its Hermitian part is tested and the anti-Hermitian part's
magnitude is reported as a residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import qmat
from .blackbox import StateFamily
from .funcspec import FunctionSpec, validate_prior
from .tolerances import active


@dataclass(frozen=True)
class Povm:
    """PSD operators of one dimension summing to the identity; ``labels``
    gives the guessed state index for each element."""

    elements: tuple[np.ndarray, ...]
    labels: tuple[int, ...]

    def __post_init__(self):
        tol = active()
        elements = tuple(qmat.as_operator(e) for e in self.elements)
        if not elements:
            raise ValueError("POVM must have at least one element")
        d = elements[0].shape[0]
        for e in elements:
            if e.shape != (d, d):
                raise ValueError("POVM elements must share one square dimension")
            qmat.require_hermitian(e, what="POVM element")
            if not qmat.is_psd(e, tol.psd):
                raise ValueError("POVM element is not PSD within tolerance")
        total = sum(elements)
        defect = float(np.abs(total - np.eye(d)).max())
        if defect > tol.recon:
            raise ValueError(f"POVM elements sum to identity only within {defect:.3g}")
        labels = tuple(int(x) for x in self.labels)
        if len(labels) != len(elements):
            raise ValueError("need exactly one label per POVM element")
        frozen = []
        for e in elements:
            c = e.copy()
            c.setflags(write=False)
            frozen.append(c)
        object.__setattr__(self, "elements", tuple(frozen))
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]


class CertificateResiduals(NamedTuple):
    pairwise_max: float       # largest entry over all pairwise products
    min_eigenvalue: float     # most negative eigenvalue over the PSD checks
    anti_hermitian_max: float


@dataclass(frozen=True)
class DiscriminationResult:
    success_probability: float
    povm: Povm
    certified_optimal: bool
    residuals: CertificateResiduals


def _family_states(family) -> tuple[qmat.DensityState, ...]:
    if isinstance(family, StateFamily):
        return family.states
    states = tuple(family)
    if not states or not all(isinstance(s, qmat.DensityState) for s in states):
        raise ValueError("family must be a StateFamily or a sequence of DensityState")
    if len({s.dim for s in states}) != 1:
        raise ValueError("family states have inconsistent dimensions")
    return states


def honest_probability(f: FunctionSpec, prior: Sequence[float]) -> float:
    """Best guessing probability with a classical input.

    The guesser picks the most informative input i, observes the outcome k,
    and guesses the other party's input j with the largest posterior weight:
    ``max_i sum_k max_j p(k|i,j) q_j``.
    """
    q = validate_prior(prior, f.bob_arity)
    best = 0.0
    for i in range(f.alice_arity):
        total = 0.0
        for k in range(f.outcome_count):
            total += max(float(f.prob(k, i, j)) * q[j] for j in range(f.bob_arity))
        best = max(best, total)
    return best


def per_input_basis_rate(f: FunctionSpec, i: int, prior: Sequence[float]) -> float:
    """Guess rate of the outcome-basis measurement for one honest input."""
    q = validate_prior(prior, f.bob_arity)
    return float(
        sum(
            max(float(f.prob(k, i, j)) * q[j] for j in range(f.bob_arity))
            for k in range(f.outcome_count)
        )
    )


def povm_success(family, prior: Sequence[float], povm: Povm) -> float:
    """Born-rule success probability ``sum_e q[label_e] tr(E_e rho_label_e)``."""
    states = _family_states(family)
    q = validate_prior(prior, len(states))
    if povm.dim != states[0].dim:
        raise ValueError(
            f"POVM dimension {povm.dim} does not match state dimension {states[0].dim}"
        )
    for lab in povm.labels:
        if not 0 <= lab < len(states):
            raise ValueError(f"POVM label {lab} does not index a family state")
    total = 0.0
    for e, lab in zip(povm.elements, povm.labels):
        total += q[lab] * float(np.trace(e @ states[lab].matrix).real)
    return total


def certify_optimal(family, prior: Sequence[float], povm: Povm) -> tuple[bool, CertificateResiduals]:
    """Check the minimum-error optimality conditions for a POVM."""
    states = _family_states(family)
    q = validate_prior(prior, len(states))
    if povm.dim != states[0].dim:
        raise ValueError("POVM and family dimensions differ")
    for lab in povm.labels:
        if not 0 <= lab < len(states):
            raise ValueError(f"POVM label {lab} does not index a family state")
    tol = active()
    weighted = [q[lab] * states[lab].matrix for lab in povm.labels]
    pairwise = 0.0
    for ej, wj in zip(povm.elements, weighted):
        for el, wl in zip(povm.elements, weighted):
            residual = ej @ (wj - wl) @ el
            if residual.size:
                pairwise = max(pairwise, float(np.abs(residual).max()))
    lagrange = sum(e @ w for e, w in zip(povm.elements, weighted))
    min_eig = math.inf
    anti = 0.0
    for l in range(len(states)):
        gap = lagrange - q[l] * states[l].matrix
        herm = (gap + qmat.dagger(gap)) / 2
        anti = max(anti, float(np.abs(gap - qmat.dagger(gap)).max()) / 2)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(herm).min()))
    residuals = CertificateResiduals(pairwise, min_eig, anti)
    ok = (
        pairwise <= tol.cert
        and min_eig >= -tol.cert
        and anti <= tol.cert
    )
    return ok, residuals


def helstrom(rho0: qmat.DensityState, rho1: qmat.DensityState, q0: float) -> DiscriminationResult:
    """Optimal two-state discrimination.

    Success probability ``(1 + tr|q0 rho0 - q1 rho1|) / 2``; the measurement
    projects onto the nonnegative and negative eigenspaces of the weighted
    difference.
    """
    if rho0.dim != rho1.dim:
        raise ValueError(f"state dimensions differ: {rho0.dim} vs {rho1.dim}")
    if not 0.0 <= q0 <= 1.0:
        raise ValueError(f"prior weight q0={q0} outside [0, 1]")
    delta = q0 * rho0.matrix - (1.0 - q0) * rho1.matrix
    w, v = np.linalg.eigh(delta)
    positive = v[:, w >= 0]
    e0 = positive @ qmat.dagger(positive)
    e0 = (e0 + qmat.dagger(e0)) / 2
    povm = Povm((e0, np.eye(rho0.dim, dtype=complex) - e0), (0, 1))
    success = 0.5 * (1.0 + float(np.abs(w).sum()))
    ok, residuals = certify_optimal((rho0, rho1), (q0, 1.0 - q0), povm)
    return DiscriminationResult(success, povm, ok, residuals)


def square_root_measurement(family, prior: Sequence[float]) -> Povm:
    """Pretty-good measurement ``S^-1/2 sigma_j S^-1/2`` with the unweighted
    sum ``S = sum_j sigma_j``.

    Any kernel of S is absorbed into the element of the highest-prior state
    (ties broken by lowest index), where the states have no support.
    """
    states = _family_states(family)
    q = validate_prior(prior, len(states))
    if len(states) < 2:
        raise ValueError("need at least two states to discriminate")
    matrices = [s.matrix for s in states]
    root = qmat.inv_sqrt_on_support(sum(matrices))
    elements = [root @ m @ root for m in matrices]
    kernel = np.eye(states[0].dim, dtype=complex) - sum(elements)
    elements[int(np.argmax(q))] += kernel
    elements = [(e + qmat.dagger(e)) / 2 for e in elements]
    return Povm(tuple(elements), tuple(range(len(states))))


def optimize_povm(
    family,
    prior: Sequence[float],
    seed_povm: Povm | None = None,
    max_iters: int = 10000,
    step_tol: float = 1e-12,
) -> DiscriminationResult:
    """Monotone fixed-point search for a minimum-error POVM.

    Each sweep applies ``E_e <- R^-1 (w_e rho_e) E_e (w_e rho_e) R^-1`` with
    ``R = (sum_e w_e rho_e E_e w_e rho_e)^(1/2)`` on its support, seeded by
    the pretty-good measurement.  The success probability never decreases
    (checked each step within 1e-12).  Once a sweep improves by less than
    ``step_tol`` the value has converged, but the operators themselves may
    still be far from the fixed point (the value gap scales like the square
    of the certificate residual); polishing sweeps therefore continue, still
    bounded by ``max_iters``, until the optimality certificate settles.  The
    final flag is reported honestly either way.
    """
    states = _family_states(family)
    q = validate_prior(prior, len(states))
    if seed_povm is None:
        seed_povm = square_root_measurement(states, q)
    labels = seed_povm.labels
    for lab in labels:
        if not 0 <= lab < len(states):
            raise ValueError(f"seed POVM label {lab} does not index a family state")
    if seed_povm.dim != states[0].dim:
        raise ValueError("seed POVM and family dimensions differ")
    dim = states[0].dim
    weighted = [q[lab] * states[lab].matrix for lab in labels]
    kernel_slot = int(np.argmax([q[lab] for lab in labels]))
    elements = list(seed_povm.elements)
    current = povm_success(states, q, seed_povm)
    polish_block = 100
    last_residual = math.inf
    steps = 0
    while steps < max_iters:
        gram = sum(w @ e @ w for e, w in zip(elements, weighted))
        root = qmat.inv_sqrt_on_support((gram + qmat.dagger(gram)) / 2)
        updated = [root @ w @ e @ w @ root for e, w in zip(elements, weighted)]
        updated = [(e + qmat.dagger(e)) / 2 for e in updated]
        defect = np.eye(dim, dtype=complex) - sum(updated)
        updated[kernel_slot] = updated[kernel_slot] + defect
        candidate = Povm(tuple(updated), labels)
        value = povm_success(states, q, candidate)
        if value < current - 1e-12:
            raise ArithmeticError(
                f"fixed-point sweep decreased success {current:.17g} -> {value:.17g}"
            )
        elements = list(candidate.elements)
        improved = value - current
        current = value
        steps += 1
        if improved >= step_tol:
            continue
        if steps % polish_block:
            continue
        ok, residuals = certify_optimal(states, q, candidate)
        residual = max(residuals.pairwise_max, -residuals.min_eigenvalue)
        if ok or residual >= 0.9 * last_residual:
            break
        last_residual = residual
    final = Povm(tuple(elements), labels)
    ok, residuals = certify_optimal(states, q, final)
    return DiscriminationResult(current, final, ok, residuals)


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


class WeightedDifferenceEigenvalues(NamedTuple):
    lam_plus: float
    lam_minus: float
    mu_plus: float
    mu_minus: float
    a_val: float
    b_val: float
    a_bar: float
    b_bar: float


def weighted_difference_eigenvalues(f: FunctionSpec, q0: float) -> WeightedDifferenceEigenvalues:
    """Closed-form eigenvalues of ``q0 rho0 - q1 rho1`` for a binary-output
    2x2 two-sided table probed with the balanced superposition.

    With ``a = (p00 + p10) q0 - (p01 + p11) q1`` and
    ``b = 4 (sqrt(p01 p10) - sqrt(p00 p11))^2 q0 q1`` (``p_ij = p(0|i,j)``),
    the outcome-0 block contributes ``(a +- sqrt(a^2 + b)) / 4`` and the
    outcome-1 block the same with every probability complemented.
    """
    if f.kind != "probabilistic" or f.sided != "two":
        raise ValueError("closed form requires a probabilistic two-sided function")
    if (f.alice_arity, f.bob_arity, f.outcome_count) != (2, 2, 2):
        raise ValueError("closed form requires a binary-output 2x2 table")
    if not 0.0 <= q0 <= 1.0:
        raise ValueError(f"prior weight q0={q0} outside [0, 1]")
    q1 = 1.0 - q0
    p = {(i, j): float(f.prob(0, i, j)) for i in range(2) for j in range(2)}

    def pair(t):
        a_val = (t[(0, 0)] + t[(1, 0)]) * q0 - (t[(0, 1)] + t[(1, 1)]) * q1
        b_val = (
            4.0
            * (math.sqrt(t[(0, 1)] * t[(1, 0)]) - math.sqrt(t[(0, 0)] * t[(1, 1)])) ** 2
            * q0
            * q1
        )
        disc = math.sqrt(a_val * a_val + b_val)
        return 0.25 * (a_val + disc), 0.25 * (a_val - disc), a_val, b_val

    lam_plus, lam_minus, a_val, b_val = pair(p)
    pbar = {key: 1.0 - val for key, val in p.items()}
    mu_plus, mu_minus, a_bar, b_bar = pair(pbar)
    return WeightedDifferenceEigenvalues(
        lam_plus, lam_minus, mu_plus, mu_minus, a_val, b_val, a_bar, b_bar
    )


def basis_measurement_optimal(f: FunctionSpec, i: int, q0: float, tol: float = 1e-10) -> bool:
    """Whether the outcome-basis measurement satisfies the pairwise
    optimality condition for honest input ``i`` of a binary one-sided table:
    ``q0 sqrt(p_i0 (1-p_i0)) == q1 sqrt(p_i1 (1-p_i1))``."""
    if f.kind != "probabilistic" or f.sided != "one":
        raise ValueError("basis check requires a probabilistic one-sided function")
    if (f.bob_arity, f.outcome_count) != (2, 2):
        raise ValueError("basis check requires a binary-output table with two partner inputs")
    if not 0 <= i < f.alice_arity:
        raise ValueError(f"honest input {i} out of range")
    p_i0 = float(f.prob(0, i, 0))
    p_i1 = float(f.prob(0, i, 1))
    lhs = q0 * math.sqrt(p_i0 * (1.0 - p_i0))
    rhs = (1.0 - q0) * math.sqrt(p_i1 * (1.0 - p_i1))
    return abs(lhs - rhs) <= tol
