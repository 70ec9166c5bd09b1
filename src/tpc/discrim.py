"""State discrimination: honest baseline, two-state optimum, pretty-good
measurement, optimality certification, and the ``--optimize`` POVM search.

The optimality certificate implements the standard necessary-and-sufficient
conditions for minimum-error discrimination of states ``rho_l`` with priors
``q_l`` by operators ``E_j``:

    E_j (q_j rho_j - q_l rho_l) E_l = 0         for all j, l
    sum_j E_j q_j rho_j - q_l rho_l  >= 0       for all l

The operator in the second condition need not come out Hermitian for an
arbitrary POVM; its Hermitian part is tested and the anti-Hermitian part's
magnitude is reported as a residual.

For block-diagonal states both conditions, the success and the dual bound
split block by block (Eldar, Megretski & Verghese, IEEE Trans. Inf. Theory
49, 1007), and so does every measurement built here.  The private helpers
therefore work on the block stacks of :mod:`tpc.qmat`: elements and states
``(N, m, b, b)``, the ``starts`` of each family's blocks, and one prior row
per family ``(F, m)`` (per block ``(N, m)`` for the Helstrom and
pretty-good elements); each per-family number (success, residuals, lowest
Lagrange eigenvalue, support cutoff, the dimension ``d = sum b``) is a
segment reduction over the family's blocks.  The public functions pass a
dense family as the one-block case.  Every helper runs in the dtype of the
states it is given: float64 for real families, complex128 otherwise.
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


@dataclass(frozen=True, eq=False)
class Povm:
    """PSD operators of one dimension summing to the identity, held as one
    read-only ``(m, d, d)`` stack; ``labels`` gives the guessed state index
    for each element.

    The constructor checks all elements at once: matrices with finite
    entries, one shared square shape, Hermiticity, PSD (one stacked
    Cholesky of ``E + psd I``) and completeness.  Povms compare by identity.
    """

    elements: np.ndarray
    labels: tuple[int, ...]

    def __post_init__(self):
        shapes = [np.shape(e) for e in self.elements]
        if not shapes:
            raise ValueError("POVM must have at least one element")
        for shape in shapes:
            if len(shape) != 2:
                raise ValueError(f"expected a matrix, got array of shape {shape}")
        d = shapes[0][0]
        if any(shape != (d, d) for shape in shapes):
            raise ValueError("POVM elements must share one square dimension")
        stack = np.array(self.elements, dtype=complex)
        _check_povm_stack(stack[None], qmat.ONE_FAMILY)
        labels = tuple(int(x) for x in self.labels)
        if len(labels) != len(stack):
            raise ValueError("need exactly one label per POVM element")
        stack.setflags(write=False)
        object.__setattr__(self, "elements", stack)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.elements.shape[1]


def _check_povm_stack(stack: np.ndarray, starts: np.ndarray) -> None:
    """:class:`Povm`'s checks on the element blocks ``(N, m, b, b)`` of the
    element sets that start at ``starts``: finite entries, Hermiticity, PSD
    and completeness, naming the first failing defect as the dense check of
    each set would.  Each check passes on one whole-stack ``max``; only a
    failing one reduces per set to name it.  PSD is one stacked Cholesky of
    ``E + psd I``, which factors, up to rounding, exactly when no element
    has an eigenvalue below ``-psd`` (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 2002, ch. 10); like ``eigvalsh`` it reads only
    the lower triangle."""
    if not np.isfinite(stack).all():
        raise ValueError("matrix contains non-finite entries")
    tol = active()
    herm = np.abs(stack - qmat.dagger(stack))
    if herm.max() > tol.herm:
        # each set's defect, as its dense check gives it
        herm = np.maximum.reduceat(herm.max(axis=(-2, -1)), starts)
        herm = herm[herm > tol.herm]
        raise ValueError(f"POVM element is not Hermitian (defect {herm[0]:.3g} > {tol.herm:.3g})")
    try:
        np.linalg.cholesky(stack + tol.psd * qmat.identity(stack.shape[-1]))
    except np.linalg.LinAlgError:
        raise ValueError("POVM element is not PSD within tolerance") from None
    defect = np.abs(stack.sum(axis=-3) - qmat.identity(stack.shape[-1]))
    if defect.max() > tol.recon:
        defect = np.maximum.reduceat(defect.max(axis=(-2, -1)), starts)
        defect = defect[defect > tol.recon]
        raise ValueError(f"POVM elements sum to identity only within {defect[0]:.3g}")


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


def _family_states(family) -> np.ndarray:
    """A :class:`StateFamily`'s stack, or a stack or sequence of matrices checked as one."""
    if not isinstance(family, StateFamily):
        family = StateFamily(family)
    return family.states


def _checked_inputs(family, prior: Sequence[float], povm: Povm) -> tuple[np.ndarray, ...]:
    """The boundary checks of :func:`povm_success` and
    :func:`certify_optimal`: a valid family, a prior over its states, and a
    POVM of the states' dimension whose labels index them.  Returns the
    state each element guesses ``(m, d, d)``, its prior ``(m,)``, and
    ``q_l rho_l`` for every family state ``(n, d, d)``."""
    states = _family_states(family)
    q = validate_prior(prior, len(states))
    if povm.dim != states.shape[-1]:
        raise ValueError("POVM and family dimensions differ")
    for lab in povm.labels:
        if not 0 <= lab < len(states):
            raise ValueError(f"POVM label {lab} does not index a family state")
    labels = list(povm.labels)
    return states[labels], q[labels], q[:, None, None] * states


def _honest(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Best guessing probability with a classical input: the guesser picks
    the most informative input i, observes the outcome k, and guesses the
    other party's input j with the largest posterior weight,
    ``max_i sum_k max_j p(k|i,j) q_j``, the best of :func:`_basis_rates`.
    For one table ``p(k|i,j)`` indexed ``[k, j, i]``, or each of a stack
    ``[t, k, j, i]``, under one validated prior ``q`` over ``j``."""
    return _basis_rates(p, q).max(axis=-1)


def _basis_rates(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Guess rate of the outcome-basis measurement for each honest input i,
    ``sum_k max_j p(k|i,j) q_j``, of one table or a stack as for
    :func:`_honest`: ``(..., i)``."""
    # one row per outcome k of max_j p(k|i,j) q_j, summed in outcome order
    return sum((p * q[:, None]).max(axis=-2).swapaxes(0, -2))


def povm_success(family, prior: Sequence[float], povm: Povm) -> float:
    """Born-rule success probability ``sum_e q[label_e] tr(E_e rho_label_e)``."""
    matrices, priors, _ = _checked_inputs(family, prior, povm)
    return float(_success(povm.elements[None], matrices[None], priors[None], qmat.ONE_FAMILY)[0])


def _success(
    elements: np.ndarray, matrices: np.ndarray, priors: np.ndarray, starts: np.ndarray
) -> np.ndarray:
    """``sum_e q_e tr(E_e rho_e)`` of each family, over element and state
    blocks ``(N, m, b, b)`` with priors ``(F, m)``: each element's trace
    summed over its family's blocks, then the terms in element order."""
    traces = (elements @ matrices).trace(axis1=-2, axis2=-1).real
    return (priors * np.add.reduceat(traces, starts)).sum(axis=-1)


class _Lagrange(NamedTuple):
    """:func:`_lagrange`'s operators for element blocks ``(N, m, b, b)``."""

    product: np.ndarray  # Y = sum_e E_e w_e, per block (N, b, b)
    gap: np.ndarray      # Y - q_l rho_l, per block and family state (N, n, b, b)
    lowest: np.ndarray   # least eigenvalue of Herm(gap) over each family's blocks (F,)


def _lagrange(
    elements: np.ndarray, weighted: np.ndarray, family_weighted: np.ndarray, starts: np.ndarray
) -> _Lagrange:
    """The product ``Y = sum_e E_e w_e``, the gap operators ``Y - q_l rho_l``,
    one per family state, and the lowest eigenvalue of their Hermitian parts:
    the certificate's PSD test, and the search's bound, as with
    ``shift = max(0, -lowest)`` ``Herm(Y) + shift I`` is dual-feasible
    (Eldar, Megretski & Verghese, IEEE Trans. Inf. Theory 49, 1007), so
    ``p + d * shift`` bounds every POVM's success.  Works on element blocks
    ``(N, m, b, b)``, with one lowest eigenvalue per family, the least over
    its blocks."""
    product = (elements @ weighted).sum(axis=-3)
    gap = product[..., None, :, :] - family_weighted
    lowest = np.linalg.eigvalsh((gap + qmat.dagger(gap)) / 2).min(axis=(-2, -1))
    return _Lagrange(product, gap, np.minimum.reduceat(lowest, starts))


def _anti_hermitian(gap: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """The certificate's anti-Hermitian residual of each family: half the
    largest entry of ``gap - gap^dag`` over its :func:`_lagrange` gap blocks."""
    return np.maximum.reduceat(np.abs(gap - qmat.dagger(gap)).max(axis=(-3, -2, -1)), starts) / 2


def _certificate_fails(lagrange: _Lagrange) -> bool:
    """Whether :func:`_certify` must reject the one family whose
    :func:`_lagrange` operators these are, without running it: its
    anti-Hermitian residual, computed as :func:`_certify` computes it,
    exceeds the certificate tolerance."""
    return _anti_hermitian(lagrange.gap, qmat.ONE_FAMILY)[0] > active().cert


def _certify(
    elements: np.ndarray, weighted: np.ndarray, lagrange: _Lagrange, starts: np.ndarray,
) -> list[tuple[bool, CertificateResiduals]]:
    """Both optimality conditions for element blocks ``E_e`` with weighted
    state blocks ``w_e`` ``(N, m, b, b)``, given their :func:`_lagrange`
    operators: one verdict per family, each residual the largest over the
    family's blocks."""
    tol = active()
    # every pair (j, l) at once, each product associated as (E_j (w_j - w_l)) E_l
    differences = weighted[..., :, None, :, :] - weighted[..., None, :, :, :]
    products = elements[..., :, None, :, :] @ differences @ elements[..., None, :, :, :]
    pairwise = np.maximum.reduceat(np.abs(products).max(axis=(-4, -3, -2, -1)), starts)
    anti = _anti_hermitian(lagrange.gap, starts)
    return [
        (p <= tol.cert and e >= -tol.cert and a <= tol.cert, CertificateResiduals(p, e, a))
        for p, e, a in zip(pairwise.tolist(), lagrange.lowest.tolist(), anti.tolist())
    ]


def certify_optimal(family, prior: Sequence[float], povm: Povm) -> tuple[bool, CertificateResiduals]:
    """Check the minimum-error optimality conditions for a POVM."""
    matrices, priors, family_weighted = _checked_inputs(family, prior, povm)
    elements, weighted = povm.elements[None], (priors[:, None, None] * matrices)[None]
    lagrange = _lagrange(elements, weighted, family_weighted[None], qmat.ONE_FAMILY)
    return _certify(elements, weighted, lagrange, qmat.ONE_FAMILY)[0]


def helstrom(rho0, rho1, q0: float) -> DiscriminationResult:
    """Optimal two-state discrimination of two ``(d, d)`` density matrices,
    checked as one :class:`StateFamily`.

    Success probability ``(1 + tr|q0 rho0 - q1 rho1|) / 2``; the measurement
    projects onto the nonnegative and negative eigenspaces of the weighted
    difference.  The one-pair case of :func:`_helstrom_stack`, checked as a
    :class:`Povm` and certified by :func:`certify_optimal`.
    """
    if len(rho0) != len(rho1):
        raise ValueError(f"state dimensions differ: {len(rho0)} vs {len(rho1)}")
    if not 0.0 <= q0 <= 1.0:
        raise ValueError(f"prior weight q0={q0} outside [0, 1]")
    family = StateFamily((rho0, rho1))
    prior = (q0, 1.0 - q0)
    elements, success = _helstrom_stack(family.states[None], qmat.ONE_FAMILY, np.array([prior]))
    povm = Povm(elements[0], (0, 1))
    ok, residuals = certify_optimal(family, prior, povm)
    return DiscriminationResult(float(success[0]), povm, ok, residuals)


def _helstrom_stack(
    states: np.ndarray, starts: np.ndarray, priors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`helstrom`'s element blocks and each pair's value, for state
    pair blocks ``(N, 2, b, b)`` of pairs starting at ``starts``, under each
    block's pair's priors ``(N, 2)``, with one stacked ``eigh``: the
    projector onto the nonnegative eigenspace of each block's weighted
    difference, and half of one plus the trace norms summed over the pair's
    blocks.  The caller checks them."""
    delta = priors[:, 0, None, None] * states[:, 0] - priors[:, 1, None, None] * states[:, 1]
    w, v = np.linalg.eigh(delta)
    # mask, not select, the nonnegative eigenvectors: one matmul for the whole stack
    e0 = (v * (w >= 0)[:, None, :]) @ qmat.dagger(v)
    e0 = (e0 + qmat.dagger(e0)) / 2
    elements = np.stack([e0, qmat.identity(states.shape[-1]) - e0], axis=1)
    return elements, 0.5 * (1.0 + np.add.reduceat(np.abs(w).sum(axis=-1), starts))


def _pretty_good(states: np.ndarray, starts: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """Pretty-good element blocks ``S^-1/2 rho_j S^-1/2``, ``S = sum_j rho_j``,
    for state blocks ``(N, m, b, b)`` of families starting at ``starts``, one
    stacked inverse root cut off at each family's support.  S's kernel goes to
    each block's highest prior ``(N, m)``, the first on a tie; unchecked."""
    blocks, m, b, _ = states.shape
    if m < 2:
        raise ValueError("need at least two states to discriminate")
    root = qmat._inv_sqrt(states.sum(axis=1), starts)[:, None]
    elements = root @ states @ root
    elements[np.arange(blocks), np.argmax(priors, axis=1)] += qmat.identity(b) - elements.sum(axis=1)
    return (elements + qmat.dagger(elements)) / 2


def _measure_stack(
    states: np.ndarray, starts: np.ndarray, priors: np.ndarray
) -> tuple[np.ndarray, list, list]:
    """Element blocks (element e guesses state e), successes and certificate
    verdicts for the validated state blocks ``(N, m, b, b)`` of families
    starting at ``starts``, under validated priors ``(F, m)``: Helstrom for
    two states, else pretty-good, with one POVM check for the whole stack,
    in the dtype of ``states`` (float64 if real); one success and verdict
    per family."""
    block_priors = qmat._per_block(priors, starts, len(states))
    if states.shape[1] == 2:
        elements, successes = _helstrom_stack(states, starts, block_priors)
    else:
        elements = _pretty_good(states, starts, block_priors)
        successes = _success(elements, states, priors, starts)
    _check_povm_stack(elements, starts)
    weighted = block_priors[..., None, None] * states
    lagrange = _lagrange(elements, weighted, weighted, starts)
    return elements, successes.tolist(), _certify(elements, weighted, lagrange, starts)


class _Search(NamedTuple):
    """:func:`_fixed_point`'s last iterate ``(K, m, b, b)``, its value and
    certificate, sweeps, stop reason and dual bound ``p_upper``."""

    elements: np.ndarray
    success_probability: float
    certified_optimal: bool
    residuals: CertificateResiduals
    iterations: int
    stop_reason: str
    p_upper: float


def _fixed_point(
    elements: np.ndarray, matrices: np.ndarray, priors: np.ndarray,
    family_weighted: np.ndarray, max_iters: int = 10000, step_tol: float = 1e-12,
) -> _Search:
    """The fixed-point search ``--optimize`` runs on one family's outcome
    blocks: checked seed element blocks ``(K, m, b, b)``, the guessed states'
    blocks, their priors ``(m,)`` and the weighted family state blocks
    ``(K, n, b, b)``.  Each sweep checks its bare iterate stack with
    :func:`_check_povm_stack`, in the inputs' dtype, and never lowers the
    value; ``p_upper`` (:func:`_lagrange`, counting ``d = K b``) bounds the
    optimum.  It stops on a certified closed bracket or a stalled polish."""
    one, dim = qmat.ONE_FAMILY, elements.shape[0] * elements.shape[-1]
    weighted = priors[:, None, None] * matrices
    kernel_slot = int(np.argmax(priors))
    current = float(_success(elements, matrices, priors[None], one)[0])
    polish_block, last_residual, identity = 100, math.inf, qmat.identity(elements.shape[-1])
    steps, stop_reason, residuals = 0, "max_iters", None
    while steps < max_iters:
        sandwiched = weighted @ elements @ weighted
        gram = sandwiched.sum(axis=1)
        root = qmat._inv_sqrt((gram + qmat.dagger(gram)) / 2, one)[:, None]
        elements = root @ sandwiched @ root
        elements = (elements + qmat.dagger(elements)) / 2
        elements[:, kernel_slot] += identity - elements.sum(axis=1)
        _check_povm_stack(elements, one)
        value = float(_success(elements, matrices, priors[None], one)[0])
        if value < current - 1e-12:
            raise ArithmeticError(
                f"fixed-point sweep decreased success {current:.17g} -> {value:.17g}"
            )
        improved, current, residuals = value - current, value, None
        steps += 1
        lagrange = _lagrange(elements, weighted, family_weighted, one)
        closed = dim * max(-float(lagrange.lowest[0]), 0.0) <= active().cert
        polish = improved < step_tol and steps % polish_block == 0
        # a polish block's certificate feeds the stall rule, so it always runs
        if not polish and (not closed or _certificate_fails(lagrange)):
            continue
        ok, residuals = _certify(elements, weighted, lagrange, one)[0]
        residual = max(residuals.pairwise_max, -residuals.min_eigenvalue)
        if (ok and closed) or (polish and residual >= 0.9 * last_residual):
            stop_reason = "converged" if ok and closed else "stalled"
            break
        if polish:
            last_residual = residual
    if residuals is None:
        lagrange = _lagrange(elements, weighted, family_weighted, one)
        ok, residuals = _certify(elements, weighted, lagrange, one)[0]
    p_upper = current + dim * max(-residuals.min_eigenvalue, 0.0)
    return _Search(elements, current, ok, residuals, steps, stop_reason, p_upper)


class WeightedDifferenceEigenvalues(NamedTuple):
    lam_plus: float
    lam_minus: float
    mu_plus: float
    mu_minus: float
    a_val: float
    b_val: float
    a_bar: float
    b_bar: float


def _weighted_difference(p: np.ndarray, q0: float) -> WeightedDifferenceEigenvalues:
    """Closed-form eigenvalues of ``q0 rho0 - q1 rho1``, outcome block by
    outcome block, for a binary-output 2x2 two-sided table under the balanced
    superposition, read once into floats ``p(k|i,j)`` indexed ``[k, j, i]``."""
    q1 = 1.0 - q0

    def pair(t):  # t[j][i] = p(0|i,j), or its complement
        a_val = (t[0][0] + t[0][1]) * q0 - (t[1][0] + t[1][1]) * q1
        root_gap = math.sqrt(t[1][0] * t[0][1]) - math.sqrt(t[0][0] * t[1][1])
        b_val = 4.0 * root_gap**2 * q0 * q1
        disc = math.sqrt(a_val * a_val + b_val)
        return 0.25 * (a_val + disc), 0.25 * (a_val - disc), a_val, b_val

    zero = p[0].tolist()
    lam_plus, lam_minus, a_val, b_val = pair(zero)
    mu_plus, mu_minus, a_bar, b_bar = pair([[1.0 - x for x in row] for row in zero])
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
    return _basis_flags(f.probabilities(), q0, tol)[i]


def _basis_flags(p: np.ndarray, q0: float, tol: float = 1e-10) -> list[bool]:
    """:func:`basis_measurement_optimal` for every honest input of a binary
    one-sided table read once into floats ``p(k|i,j)``, indexed ``[k, j, i]``."""
    sides = np.sqrt(p[0] * (1.0 - p[0]))  # (j, i)
    return (np.abs(q0 * sides[0] - (1.0 - q0) * sides[1]) <= tol).tolist()
