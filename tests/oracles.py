"""Independent routes the suite checks the library against.

None of these is called by ``src/tpc``; each rebuilds a number the library
computes another way, except :func:`pretty_good_povm` and
:func:`dense_search`, which run the library's own private stages on one
dense family, :func:`unstopped_search`, which runs the search's update with
no stop rule, and :func:`count_kernels`, which counts the linear-algebra
kernels they run.

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

from tpc import discrim, funcspec, qmat
from tpc.blackbox import amplitude_vector
from tpc.discrim import Povm, certify_optimal
from tpc.funcspec import _MAX_DECIMAL_POWER, FunctionFileError, FunctionSpec, validate_prior
from tpc.tolerances import TOL_PSD, TOL_TRACE


def pure_state(amplitudes: Sequence[complex]) -> np.ndarray:
    """Rank-1 density matrix from a unit-norm amplitude vector."""
    v = np.asarray(amplitudes, dtype=complex).reshape(-1)
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= TOL_TRACE:  # written so that a NaN norm fails too
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
            ket[idx] = a[i] * np.sqrt(float(exact_prob(f, k, i, j)))
    return partial_trace(pure_state(ket), (n, nb, kdim, kdim), keep=(0, 2))


def exact_prob(f: FunctionSpec, k: int, i: int, j: int) -> Fraction:
    """The exact ``p(k|i,j)`` of a table: its ``prob_table`` entry, or 0 or 1
    from a deterministic table's outcome matrix."""
    if f.det_table is None:
        return f.prob_table[k][j][i]
    return Fraction(int(f.det_table[j][i] == k))


def loop_honest_probability(f: FunctionSpec, prior: Sequence[float]) -> float:
    """The honest guessing probability ``max_i sum_k max_j p(k|i,j) q_j``
    cell by cell, through :func:`exact_prob`, in the order of
    operations of :func:`tpc.discrim._honest`."""
    q = validate_prior(prior, f.bob_arity)
    best = 0.0
    for i in range(f.alice_arity):
        total = 0.0
        for k in range(f.outcome_count):
            total += max(float(exact_prob(f, k, i, j)) * q[j] for j in range(f.bob_arity))
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
                amps = (exact_prob(f, k, i, j) / n for i in range(n))
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


def conditions_ok_flat(flat):
    """Potentially concealing and non-degenerate, on a row-major 9-tuple."""
    rows = (flat[0:3], flat[3:6], flat[6:9])
    cols = (flat[0::3], flat[1::3], flat[2::3])
    if any(len(set(line)) == 3 for line in rows + cols):
        return False
    return len(set(rows)) == 3 and len(set(cols)) == 3


def condition_masks(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch oracle for the conditions :func:`tpc.funcspec._canonical_form`
    checks: concealment and degeneracy of deterministic outcome matrices
    ``(rows, cols, ...)``, as two masks.

    Potentially concealing: every row and every column contains a repeated
    element (no input pins down the other party's input with certainty).
    Non-degenerate: no two rows and no two columns are equal.
    """
    rows, cols = t.shape[:2]
    same = t[:, :, None, None] == t[None, None]  # cell (r, c) against cell (r', c')
    in_row = np.diagonal(same, axis1=0, axis2=2)  # (c, c', ..., r)
    in_col = np.diagonal(same, axis1=1, axis2=3)  # (r, r', ..., c)
    # a line repeats an element when some cell matches another cell, not only itself
    concealing = (in_row.sum(axis=(0, 1)) > cols).all(axis=-1)
    concealing &= (in_col.sum(axis=(0, 1)) > rows).all(axis=-1)
    # two rows are equal when they match in every column; only a row equals itself
    non_degenerate = in_col.all(axis=-1).sum(axis=(0, 1)) == rows
    non_degenerate &= in_row.all(axis=-1).sum(axis=(0, 1)) == cols
    return concealing, non_degenerate


def layout_candidates() -> np.ndarray:
    """The 264 row-major tables ``(9, 264)`` int8 in the reference layout and
    its labels, valid or not, in increasing order of their free cells a,
    (0,2), b, (1,2), (2,2): first column (0, 0, 1), second (a, b, b) with
    a != b and a == 0 or b < 2, and each free cell at most one above every
    label before it, the first column's included.  Filtered by
    :func:`condition_masks`, they are :func:`tpc.funcspec._layout_tables`."""
    free = np.indices((4,) * 5, dtype=np.int8).reshape(5, -1)
    seen = np.maximum(np.maximum.accumulate(free[:-1], axis=0), 1)
    a, b = free[0], free[2]
    fits = (free[1:] <= seen + 1).all(axis=0) & (a < 3) & (a != b) & ((a == 0) | (b < 2))
    a, c02, b, c12, c22 = np.compress(fits, free, axis=1)
    zero = np.zeros_like(a)
    return np.stack([zero, a, c02, zero, b, c12, zero + 1, b, c22])


def normalized_flat_tables():
    """All 9-cell tables with labels in first-appearance order and at most
    4 distinct outcomes, built one cell per pass."""
    out = [()]
    for _ in range(9):
        out = [t + (v,) for t in out for v in range(min(max(t, default=-1) + 2, 4))]
    return out


# First appearance in this cell order gives the reference labels (0,0) -> 0, (2,0) -> 1.
REFERENCE_ORDER = [0, 6, 1, 2, 3, 4, 5, 7, 8]
REFERENCE_GATHER = funcspec._GATHER[REFERENCE_ORDER]
REFERENCE_KEY = funcspec._KEY[REFERENCE_ORDER]


def in_reference_layout(t: np.ndarray) -> np.ndarray:
    """Which row-major 3x3 tables ``(9, ...)`` have first column (x, x, y)
    and second column (a, b, b) with x != y, a != b, and a == x or b == x or
    b == y; with x, y labelled 0, 1 this is the layout of
    :class:`tpc.funcspec.CanonicalForm3x3`."""
    x, a, b, y = t[0], t[1], t[4], t[6]
    return (t[3] == x) & (x != y) & (t[7] == b) & (a != b) & ((a == x) | (b == x) | (b == y))


def canonical_forms(tables: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batch oracle for :func:`tpc.funcspec._canonical_form` on row-major
    label tables ``(9, n)``, with its checks, on one gather ``(9, 36, n)``:
    the base tables ``(n, 9)`` (cells 1 and 4 are ``a`` and ``b``) and the
    index of the input permutation reaching each.  Each candidate base
    table is read as a base-4 key, so the smallest is one ``argmin``, the
    first transform on a tie.  A failing table raises the
    :class:`~tpc.funcspec.ConditionError` of the first one."""
    # each cell labelled by the first cell holding its outcome, so labels stay below 9
    tables = (tables[:, None] == tables).argmax(axis=0)
    concealing, non_degenerate = condition_masks(tables.reshape(3, 3, -1))
    failed = np.flatnonzero(~(concealing & non_degenerate))
    if failed.size:
        n = failed[0]
        raise funcspec.ConditionError(
            funcspec.ConditionCheck(bool(concealing[n]), bool(non_degenerate[n]))
        )
    # cell (0,0) is labelled 0 and cell (2,0) 1, the rest in first-appearance order;
    # transforms out of the layout get a key above every table's
    keys = funcspec._keys(tables[REFERENCE_GATHER], REFERENCE_KEY)
    keys[~in_reference_layout(tables[funcspec._GATHER])] = 4 * funcspec._KEY[0]
    best, smallest = keys.argmin(axis=0), keys.min(axis=0)
    if smallest.max() == 4 * funcspec._KEY[0]:
        raise ValueError("function admits no canonical form; conditions violated")
    return smallest[:, None] // funcspec._KEY % 4, best


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


def count_kernels(monkeypatch) -> list[str]:
    """Record every ``np.linalg`` eigen-solve and Cholesky factorization
    run from here on, by name, in one list."""
    calls = []
    for name in ("cholesky", "eigh", "eigvalsh"):

        def counted(*args, _original=getattr(np.linalg, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def below_psd_tolerance(elements: np.ndarray) -> bool:
    """Whether some Hermitian element of a stack ``(..., b, b)`` has an
    eigenvalue below ``-TOL_PSD``, from its full spectrum (``eigvalsh``)."""
    return bool(np.linalg.eigvalsh(elements).min() < -TOL_PSD)


def pretty_good_povm(family, prior: Sequence[float]) -> Povm:
    """The pretty-good measurement of one dense family as a checked
    :class:`Povm`: :func:`tpc.discrim._pretty_good` on a single block."""
    states = discrim._family_states(family)
    elements = discrim._pretty_good(states[None], qmat.ONE_FAMILY, np.array([prior], dtype=float))
    return Povm(elements[0], range(len(states)))


def dense_inputs(family, prior: Sequence[float], seed: Povm | None = None) -> tuple[np.ndarray, ...]:
    """The arguments of :func:`tpc.discrim._fixed_point` on one dense family,
    a single block, from ``seed`` or the pretty-good measurement, with the
    family, prior and seed checked by :func:`tpc.discrim._checked_inputs`."""
    seed = pretty_good_povm(family, prior) if seed is None else seed
    matrices, priors, family_weighted = discrim._checked_inputs(family, prior, seed)
    return seed.elements[None], matrices[None], priors, family_weighted[None]


def dense_search(family, prior: Sequence[float], seed: Povm | None = None, max_iters: int = 10000):
    """:func:`tpc.discrim._fixed_point` on :func:`dense_inputs`."""
    return discrim._fixed_point(*dense_inputs(family, prior, seed), max_iters)


def unstopped_search(
    elements: np.ndarray, matrices: np.ndarray, priors: np.ndarray, sweeps: int
) -> float:
    """The update of :func:`tpc.discrim._fixed_point` on the same arguments,
    run ``sweeps`` times with no stop rule and no checks: the value of its
    last iterate.  The sweeps never lower the value, and weak duality bounds
    every POVM, so run past a stopped search's last sweep, it lies inside
    that search's bracket."""
    one, weighted = qmat.ONE_FAMILY, priors[:, None, None] * matrices
    kernel_slot, identity = int(np.argmax(priors)), qmat.identity(elements.shape[-1])
    for _ in range(sweeps):
        sandwiched = weighted @ elements @ weighted
        gram = sandwiched.sum(axis=1)
        root = qmat._inv_sqrt((gram + qmat.dagger(gram)) / 2, one)[:, None]
        elements = root @ sandwiched @ root
        elements = (elements + qmat.dagger(elements)) / 2
        elements[:, kernel_slot] += identity - elements.sum(axis=1)
    return float(discrim._success(elements, matrices, priors[None], one)[0])


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


def pure_state_helstrom(f: FunctionSpec, q0: float) -> float:
    """The one-sided receiver's optimum from the closed form for two pure
    states (Helstrom 1976), in 40-digit mpmath: the best over honest inputs
    i of ``(1 + sqrt(1 - 4 q0 q1 F_i**2)) / 2``, with the overlap
    ``F_i = sum_k sqrt(p(k|i,0) p(k|i,1))`` of the two outcome vectors."""

    def root(x: Fraction) -> mpmath.mpf:
        return mpmath.sqrt(mpmath.mpf(x.numerator) / x.denominator)

    with mpmath.workdps(40):
        weight = 4 * mpmath.mpf(q0) * (1 - mpmath.mpf(q0))
        return float(max(
            (1 + mpmath.sqrt(1 - weight * overlap**2)) / 2
            for overlap in (
                mpmath.fsum(root(exact_prob(f, k, i, 0) * exact_prob(f, k, i, 1))
                            for k in range(f.outcome_count))
                for i in range(f.alice_arity)
            )
        ))


def fraction_basis_rate(f: FunctionSpec, q0: float) -> Fraction:
    """The honest baseline ``max_i sum_k max_j p(k|i,j) q_j`` of a table with
    two partner inputs, exactly, at the prior ``(q0, 1 - q0)`` read as the
    exact value of the float ``q0``."""
    q = (Fraction(q0), 1 - Fraction(q0))
    return max(
        sum(max(exact_prob(f, k, i, j) * q[j] for j in (0, 1)) for k in range(f.outcome_count))
        for i in range(f.alice_arity)
    )


def fraction_slope_bound(f: FunctionSpec, q0: Fraction) -> Fraction:
    """:func:`tpc.attacks._endpoint_slope_bound` in ``Fraction`` arithmetic,
    term by term as its docstring states it: per outcome block k,
    ``sign(A_k) A_k' + 2 q0 q1 R_k / |A_k|``, the surd in ``R_k`` bounded
    from below by ``math.isqrt`` on the reduced ``g = p00 p01 p10 p11``."""
    q1 = 1 - q0
    total = Fraction(0)
    for k in range(f.outcome_count):
        p00, p01, p10, p11 = (f.prob_table[k][j][i] for i in (0, 1) for j in (0, 1))
        a = q0 * p00 - q1 * p01
        if a == 0:
            raise ArithmeticError(f"outcome {k} carries no weight difference at input |0>")
        slope_a = q0 * (p10 - p00) - q1 * (p11 - p01)
        g = p00 * p01 * p10 * p11
        root = Fraction(math.isqrt((g.numerator * g.denominator) << 128), g.denominator << 64)
        r = p10 * p01 + p00 * p11 - 2 * root
        total += (slope_a if a > 0 else -slope_a) + 2 * q0 * q1 * r / abs(a)
    return total


def fraction_token(ln: int, token: str) -> Fraction:
    """:func:`tpc.funcspec._parse_fraction` with every token read by
    ``Fraction(token)``, its decimal places and exponent bounded first, and
    the range checked on the value."""
    mantissa, _, exponent = token.lower().partition("e")
    try:
        power = max(len(mantissa.partition(".")[2]), abs(int(exponent or 0)))
        value = Fraction(token) if power <= _MAX_DECIMAL_POWER else None
    except (ValueError, ZeroDivisionError):
        raise FunctionFileError(ln, f"cannot parse probability {token!r}") from None
    if value is None:
        raise FunctionFileError(ln, f"decimal places or exponent beyond {_MAX_DECIMAL_POWER}")
    if value < 0 or value > 1:
        raise FunctionFileError(ln, f"probability {token} outside [0, 1]")
    return value
