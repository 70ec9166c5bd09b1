"""Discrimination engine: honest baseline, two-state optimum, pretty-good
measurement, certification, and the fixed-point search."""

import itertools
import math
import re
import warnings
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tpc import attacks, blackbox, discrim, funcspec, qmat
from tpc.attacks import ot_explicit_povm
from tpc.blackbox import output_family, uniform_superposition
from tpc.discrim import (
    Povm,
    basis_measurement_optimal,
    certify_optimal,
    helstrom,
    povm_success,
)
from tpc.funcspec import builtin, canonicalize_3x3, one_sided_binary, transpose, two_sided_binary
from tpc.tolerances import CERT_TOL, TOL_PSD

from oracles import (
    below_psd_tolerance,
    count_kernels,
    dense_inputs,
    dense_search,
    exact_prob,
    honest_family_povm,
    loop_honest_probability,
    pretty_good_povm,
    pure_state,
    reference_helstrom,
    unstopped_search,
)

SEED = 424242
# the 18 canonical class files and the pinned fields of their searches
OPTIMIZE_PINS = Path(__file__).parent / "data" / "optimize3x3"


def random_pure_pair(rng, dim=3):
    states = []
    for _ in range(2):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        states.append(pure_state(v / np.linalg.norm(v)))
    return states


def random_mixed_pair(rng, dim=4):
    states = []
    for _ in range(2):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = g @ g.conj().T
        states.append(m / np.trace(m).real)
    return states


def random_mixed_family(rng, dim, count):
    states = []
    for _ in range(count):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = g @ g.conj().T
        states.append(m / np.trace(m).real)
    w = rng.uniform(0.1, 1.0, size=count)
    return states, tuple(w / w.sum())


def reference_dual_gap(states, prior, labels, elements):
    """Independent oracle for the bracket width: ``d * shift`` for the
    dual-feasible ``Herm(sum_e E_e q_e rho_e) + shift I``, one state at a time."""
    y = sum(e @ (prior[lab] * states[lab]) for e, lab in zip(elements, labels))
    y = (y + y.conj().T) / 2
    lowest = min(
        float(np.linalg.eigvalsh(y - prior[l] * state).min())
        for l, state in enumerate(states)
    )
    return len(states[0]) * max(-lowest, 0.0)


def reference_fixed_point(states, prior, seed, max_iters=10000, step_tol=1e-12):
    """Independent oracle: the fixed-point search one element at a time,
    with no POVM validated per sweep, stopping at the first iterate whose
    dual bracket is no wider than the certificate tolerance, or at a polish
    block whose certificate residual stalls.  Returns the value, the
    elements, the sweeps run, the stop reason, whether the bracket closed
    and the bracket's upper end."""
    labels = seed.labels
    weighted = [prior[lab] * states[lab] for lab in labels]
    kernel_slot = int(np.argmax([prior[lab] for lab in labels]))

    def success(elements):
        return sum(
            prior[lab] * float(np.trace(e @ states[lab]).real)
            for e, lab in zip(elements, labels)
        )

    elements = list(seed.elements)
    current, last_residual, steps, reason = success(elements), math.inf, 0, "max_iters"
    width = reference_dual_gap(states, prior, labels, elements)
    while steps < max_iters:
        gram = sum(w @ e @ w for e, w in zip(elements, weighted))
        root = qmat._inv_sqrt((gram + gram.conj().T) / 2, qmat.ONE_FAMILY)
        updated = [root @ w @ e @ w @ root for e, w in zip(elements, weighted)]
        updated = [(e + e.conj().T) / 2 for e in updated]
        defect = np.eye(len(states[0]), dtype=complex) - sum(updated)
        updated[kernel_slot] = updated[kernel_slot] + defect
        value = success(updated)
        elements, improved, current = updated, value - current, value
        steps += 1
        width = reference_dual_gap(states, prior, labels, elements)
        if width <= CERT_TOL:
            reason = "bracket"
            break
        if improved < step_tol and steps % 100 == 0:
            _, residuals = certify_optimal(states, prior, Povm(tuple(elements), labels))
            residual = max(residuals.pairwise_max, -residuals.min_eigenvalue)
            if residual >= 0.9 * last_residual:
                reason = "stalled"
                break
            last_residual = residual
    return current, elements, steps, reason, width <= CERT_TOL, current + width


def reference_certificate(states, prior, povm):
    """Independent oracle: the optimality residuals one pair and one state
    at a time."""
    weighted = [prior[lab] * states[lab] for lab in povm.labels]
    pairwise = max(
        float(np.abs(ej @ (wj - wl) @ el).max())
        for ej, wj in zip(povm.elements, weighted)
        for el, wl in zip(povm.elements, weighted)
    )
    lagrange = sum(e @ w for e, w in zip(povm.elements, weighted))
    min_eig, anti = math.inf, 0.0
    for q, state in zip(prior, states):
        gap = lagrange - q * state
        anti = max(anti, float(np.abs(gap - gap.conj().T).max()) / 2)
        min_eig = min(min_eig, float(np.linalg.eigvalsh((gap + gap.conj().T) / 2).min()))
    return pairwise, min_eig, anti


def brute_force_honest(f, prior):
    """Independent oracle: maximize over the honest input and every
    outcome-to-guess rule."""
    best = 0.0
    for i in range(f.alice_arity):
        for rule in itertools.product(range(f.bob_arity), repeat=f.outcome_count):
            value = sum(
                prior[j] * float(exact_prob(f, k, i, j))
                for j in range(f.bob_arity)
                for k in range(f.outcome_count)
                if rule[k] == j
            )
            best = max(best, value)
    return best


def honest_value(f, prior):
    """``discrim._honest`` of one table under a checked prior, as a float."""
    return float(discrim._honest(f.probabilities(), funcspec.validate_prior(prior, f.bob_arity)))


def loop_basis_rate(f, i, prior):
    """Oracle for one input's rate of :func:`discrim._basis_rates`, cell by cell."""
    q = funcspec.validate_prior(prior, f.bob_arity)
    return float(
        sum(
            max(float(exact_prob(f, k, i, j)) * q[j] for j in range(f.bob_arity))
            for k in range(f.outcome_count)
        )
    )


def honest_baseline_cases():
    """Acceptance criterion 3's 500 seeded two-sided tables at each default
    q0, criterion 4's 200 seeded one-sided tables at their q0, and the 18
    classes under the uniform and five seeded priors."""
    rng = np.random.default_rng(20250808)
    count = 0
    while count < 500:
        f = two_sided_binary(rng.uniform(0.02, 0.98, size=(2, 2)))
        if attacks._two_sided_exception(f):
            continue
        count += 1
        for q0 in attacks.DEFAULT_Q0_SWEEP:
            yield f, (q0, 1 - q0)
    rng = np.random.default_rng(314159)
    for _ in range(200):
        f = one_sided_binary(rng.uniform(0.05, 0.95, size=(2, 2)))
        q0 = float(rng.uniform(0.1, 0.9))
        yield f, (q0, 1 - q0)
    rng = np.random.default_rng(SEED + 13)
    priors = [funcspec.uniform_prior(3)] + [rng.dirichlet(np.ones(3)) for _ in range(5)]
    for f in funcspec.enumerate_valid_3x3():
        for prior in priors:
            yield f, tuple(prior)


class TestHonestProbability:
    def test_equals_cell_by_cell_loop_exactly(self):
        cases = 0
        for f, prior in honest_baseline_cases():
            cases += 1
            assert honest_value(f, prior) == loop_honest_probability(f, prior)
            rates = discrim._basis_rates(f.probabilities(), funcspec.validate_prior(prior, f.bob_arity))
            for i in range(f.alice_arity):
                assert rates[i] == loop_basis_rate(f, i, prior)
        assert cases == 1500 + 200 + 18 * 6

    def test_stack_equals_one_table_exactly(self):
        # the same cases, stacked per table shape and prior, as the 3x3 sweep
        # stacks its classes; the outcome-order sum keeps every bit
        stacks = {}
        for f, prior in honest_baseline_cases():
            stacks.setdefault((f.probabilities().shape, tuple(prior)), []).append(f)
        assert max(len(tables) for tables in stacks.values()) == 500
        for (_, prior), tables in stacks.items():
            q = funcspec.validate_prior(prior, tables[0].bob_arity)
            stacked = discrim._honest(np.array([f.probabilities() for f in tables]), q)
            assert stacked.tolist() == [honest_value(f, prior) for f in tables]

    def test_skewed_prior_reduces_to_largest_weight(self):
        f = two_sided_binary([[0.3, 0.6], [0.7, 0.2]])
        for eps in (1e-2, 1e-3):
            assert honest_value(f, (1 - eps, eps)) == pytest.approx(1 - eps)

    def test_neq3_uniform_is_two_thirds(self):
        f = builtin("neq3")
        prior = (1 / 3, 1 / 3, 1 / 3)
        assert honest_value(f, prior) == pytest.approx(2 / 3, abs=1e-15)
        assert brute_force_honest(f, prior) == pytest.approx(2 / 3, abs=1e-15)

    def test_ot_receiver_guesses_three_quarters(self):
        f = transpose(builtin("ot"))
        assert honest_value(f, (0.5, 0.5)) == pytest.approx(0.75, abs=0)

    def test_matches_brute_force_on_random_tables(self):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            rows = rng.uniform(0, 1, size=(2, 2))
            f = two_sided_binary(rows)
            q0 = rng.uniform(0, 1)
            prior = (q0, 1 - q0)
            assert honest_value(f, prior) == pytest.approx(
                brute_force_honest(f, prior), abs=1e-12
            )


class TestHelstrom:
    def test_identical_states_give_half(self):
        rho = pure_state([1.0, 0.0])
        assert helstrom(rho, rho, 0.5).success_probability == pytest.approx(0.5)

    def test_orthogonal_states_give_one(self):
        r0 = pure_state([1.0, 0.0])
        r1 = pure_state([0.0, 1.0])
        for q0 in (0.1, 0.5, 0.9):
            assert helstrom(r0, r1, q0).success_probability == pytest.approx(1.0)

    def test_ot_value(self):
        family = output_family(builtin("ot"), 0, role="bob")
        result = helstrom(family.states[0], family.states[1], 0.5)
        assert result.success_probability == pytest.approx(
            0.5 + math.sqrt(3) / 4, abs=1e-12
        )
        assert result.certified_optimal

    def test_certificate_holds_on_random_families(self):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            r0, r1 = random_mixed_pair(rng)
            q0 = float(rng.uniform(0, 1))
            result = helstrom(r0, r1, q0)
            assert result.certified_optimal
            assert result.residuals.pairwise_max < CERT_TOL
            assert result.residuals.min_eigenvalue > -CERT_TOL

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="state dimensions differ: 2 vs 3"):
            helstrom(pure_state([1.0, 0.0]), pure_state([1.0, 0.0, 0.0]), 0.5)

    @pytest.mark.parametrize("q0", [-0.1, 1.5, math.nan])
    def test_prior_weight_outside_unit_interval_rejected(self, q0):
        rho = pure_state([1.0, 0.0])
        with pytest.raises(ValueError, match=f"prior weight q0={q0} outside"):
            helstrom(rho, rho, q0)

    def test_states_are_checked_as_one_family(self):
        with pytest.raises(ValueError, match="density matrix has negative eigenvalue -0.5"):
            helstrom(pure_state([1.0, 0.0]), np.diag([1.5, -0.5]), 0.5)

    @staticmethod
    def two_state_families():
        """Seeded two-sided and one-sided binary tables, ``@ot`` and
        ``@counterexample``: each family the attacks measure, with a prior
        weight on state 0."""
        rng = np.random.default_rng(SEED + 9)
        cases = []
        for _ in range(60):
            rows = [[Fraction(int(x), 24) for x in row] for row in rng.integers(0, 25, size=(2, 2))]
            q0 = float(rng.choice([0.5, 0.99, 0.999, 0.9999, rng.uniform()]))
            cases.append((output_family(two_sided_binary(rows), uniform_superposition(2)), q0))
            cases += [(output_family(one_sided_binary(rows), i), q0) for i in range(2)]
        cases.append((output_family(builtin("ot"), 0, role="bob"), 0.5))
        cases.append((output_family(builtin("counterexample"), (1.0, 0.0)), 0.5))
        return [(family.states, q0) for family, q0 in cases]

    @staticmethod
    def assert_equals_oracle(oracle, success, elements, certified, residuals):
        assert float(success).hex() == float(oracle[0]).hex()
        assert elements.tobytes() == oracle[1].tobytes()
        assert certified == oracle[2]
        assert [float(x).hex() for x in residuals] == [float(x).hex() for x in oracle[3]]

    def test_matches_per_pair_oracle_bitwise(self):
        for states, q0 in self.two_state_families():
            result = helstrom(*states, q0)
            oracle = reference_helstrom(*states, q0)
            self.assert_equals_oracle(
                oracle, result.success_probability, result.povm.elements,
                result.certified_optimal, result.residuals,
            )

    def test_stack_matches_per_pair_oracle_bitwise(self):
        # the attacks' path: one stack per dimension, checked and certified at once
        by_dim = {}
        for states, q0 in self.two_state_families():
            by_dim.setdefault(len(states[0]), []).append((states, q0))
        assert sorted(by_dim) == [2, 3, 4]
        for cases in by_dim.values():
            stack = np.array([states for states, _ in cases])  # one block per pair
            priors = np.array([(q0, 1.0 - q0) for _, q0 in cases])
            elements, successes, verdicts = discrim._measure_stack(stack, np.arange(len(stack)), priors)
            assert elements.shape == stack.shape
            for (states, q0), e, p, (ok, residuals) in zip(cases, elements, successes, verdicts):
                self.assert_equals_oracle(reference_helstrom(*states, q0), p, e, ok, residuals)


def block_stacks(superposition=None):
    """The attacks' block stacks ``(blocks, starts, priors)``: the 18
    classes' 50 outcome blocks under the uniform prior, then seeded 2x2
    two-sided tables (two blocks each, under ``superposition`` or the
    uniform one) and one-sided tables at each honest input (one block
    each), under seeded priors."""
    tables, _ = funcspec._class_tables()
    counts = (tables.max(axis=0) + 1).tolist()
    rows = np.concatenate(
        [(t == np.arange(c)[:, None]).reshape(c, 3, 3) * 1.0 for t, c in zip(tables.T, counts)]
    )
    starts = np.cumsum([0] + counts[:-1])
    yield blackbox._two_sided_families(rows, uniform_superposition(3), starts), starts, np.full((18, 3), 1 / 3)
    rng = np.random.default_rng(SEED + 17)
    rows = [[[Fraction(int(x), 24) for x in r] for r in rng.integers(0, 25, size=(2, 2))] for _ in range(40)]
    q0 = rng.uniform(0.05, 0.95, size=len(rows))
    priors = np.stack([q0, 1.0 - q0], axis=1)
    amps = uniform_superposition(2) if superposition is None else superposition
    p = np.array([two_sided_binary(r).probabilities() for r in rows])
    yield blackbox._two_sided_families(p.reshape(-1, 2, 2), amps, np.arange(40) * 2), np.arange(40) * 2, priors
    p = np.array([one_sided_binary(r).probabilities() for r in rows])
    for i in range(2):
        yield np.array([blackbox._one_sided_families(table)[i] for table in p]), np.arange(40), priors


def random_basis(rng, b: int, complex_: bool) -> np.ndarray:
    """A seeded orthonormal basis of dimension ``b``, as matrix columns."""
    z = rng.normal(size=(b, b)) + (1j * rng.normal(size=(b, b)) if complex_ else 0)
    return np.linalg.qr(z)[0]


def boundary_povm_stack(rng, blocks: int, m: int, b: int, lowest: float, complex_: bool) -> np.ndarray:
    """Element blocks ``(blocks, m, b, b)`` that sum to the identity in each
    block, with one seeded element whose lowest eigenvalue is ``lowest`` and
    every other eigenvalue of the stack at or above 0.  Each block holds a
    projective measurement of rank-one pieces on a random basis (so some
    elements are rank-deficient, some zero) sandwiched in the root of what
    its first element leaves; the marked element is the first of a seeded
    block, moved to a seeded place."""
    stack = np.empty((blocks, m, b, b), dtype=complex if complex_ else float)
    marked = int(rng.integers(blocks))
    for n in range(blocks):
        spectrum = rng.uniform(0, 0.5, size=b)
        spectrum[rng.integers(b)] = lowest if n == marked else 0.0
        v = random_basis(rng, b, complex_)
        first = (v * spectrum) @ v.conj().T
        rest = (v * np.sqrt(1 - spectrum)) @ v.conj().T
        u = random_basis(rng, b, complex_)
        owner = rng.integers(1, m, size=b)
        pieces = [(u[:, owner == k] @ u[:, owner == k].conj().T) for k in range(1, m)]
        stack[n] = [first] + [rest @ piece @ rest for piece in pieces]
    stack[marked] = np.roll(stack[marked], int(rng.integers(m)), axis=0)
    return (stack + qmat.dagger(stack)) / 2


class TestRealMeasurePath:
    """The builders hand real families to ``discrim._measure_stack`` as
    float64 block stacks; their complex128 casts must measure the same."""

    def test_complex_cast_measures_the_same(self):
        shapes = []
        for stack, starts, priors in block_stacks():
            assert stack.dtype == np.float64
            elements, successes, verdicts = discrim._measure_stack(stack, starts, priors)
            cast = discrim._measure_stack(stack.astype(complex), starts, priors)
            assert elements.dtype == np.float64 and cast[0].dtype == np.complex128
            for p, q in zip(successes, cast[1], strict=True):
                assert abs(p - q) <= 8 * np.spacing(max(p, q))
            for (ok, residuals), (cast_ok, cast_residuals) in zip(verdicts, cast[2], strict=True):
                assert ok == cast_ok
                assert np.abs(np.subtract(residuals, cast_residuals)).max() <= 1e-15
            shapes.append((stack.shape, len(starts)))
        assert shapes[0] == ((50, 3, 3, 3), funcspec.VALID_3X3_CLASS_COUNT)
        assert shapes[1:] == [((80, 2, 2, 2), 40), ((40, 2, 2, 2), 40), ((40, 2, 2, 2), 40)]


class TestBlockMeasurePath:
    """Block-diagonal families measured on their outcome blocks against the
    same families assembled dense, each a one-block family."""

    @staticmethod
    def dense(stack, starts):
        """Each family's blocks assembled dense, as one array per dense shape
        with the families' positions."""
        ends = np.append(starts[1:], len(stack))
        by_shape = {}
        for n, (start, end) in enumerate(zip(starts, ends)):
            family = blackbox._assemble(stack[start:end])
            by_shape.setdefault(family.shape, []).append((n, family))
        return [(np.array([f for _, f in members]), [n for n, _ in members]) for members in by_shape.values()]

    @pytest.mark.parametrize("superposition", [None, (0.6, 0.8), (0.6, 0.8j)], ids=["uniform", "real", "complex"])
    def test_blocks_measure_as_the_dense_assembly(self, superposition):
        kinds = []
        for stack, starts, priors in block_stacks(superposition):
            elements, successes, verdicts = discrim._measure_stack(stack, starts, priors)
            assert elements.shape == stack.shape
            kinds.append(stack.dtype)
            for dense, members in self.dense(stack, starts):
                _, dense_successes, dense_verdicts = discrim._measure_stack(
                    dense, np.arange(len(dense)), priors[members]
                )
                for n, p, (ok, residuals) in zip(members, dense_successes, dense_verdicts, strict=True):
                    assert abs(successes[n] - p) <= 8 * np.spacing(p)
                    assert verdicts[n][0] == ok
                    assert np.abs(np.subtract(verdicts[n][1], residuals)).max() <= 1e-15
        assert kinds[1] == (np.complex128 if superposition and np.iscomplexobj(superposition) else np.float64)

    @pytest.mark.parametrize(
        "defect, message",
        [
            ("hermiticity", r"POVM element is not Hermitian \(defect 1e-06 > 1e-10\)"),
            ("positivity", "POVM element is not PSD within tolerance"),
            ("completeness", "POVM elements sum to identity only within 1e-06"),
        ],
    )
    def test_defect_in_the_last_block_is_named_as_dense(self, defect, message):
        stack, starts, priors = next(block_stacks())
        elements = discrim._pretty_good(stack, starts, qmat._per_block(priors, starts, len(stack)))
        discrim._check_povm_stack(elements, starts)
        last = elements[-1]
        if defect == "hermiticity":
            last[0, 0, 1] += 1e-6
        elif defect == "positivity":
            last[0] += 2 * np.eye(3)
            last[1] -= 2 * np.eye(3)
        else:
            last[0] += 1e-6 * np.eye(3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            discrim._check_povm_stack(elements, starts)
        with pytest.raises(ValueError, match=f"^{message}$"):
            Povm(blackbox._assemble(elements[starts[-1]:]), (0, 1, 2))

    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("b", [2, 3, 6])
    def test_psd_verdict_matches_the_eigvalsh_oracle(self, b, complex_):
        # the lowest eigenvalue at 0 and just inside and just outside -TOL_PSD
        psd = TOL_PSD
        rng = np.random.default_rng(SEED + 31 + b + 10 * complex_)
        verdicts = []
        for lowest in (0.0, -psd * (1 - 1e-3), -psd * (1 + 1e-3)):
            for blocks in (1, 7, 50):
                m = int(rng.integers(2, 5))
                stack = boundary_povm_stack(rng, blocks, m, b, lowest, complex_)
                starts = np.arange(0, blocks, 3)
                fails = below_psd_tolerance(stack)
                assert fails == (lowest < -psd)
                verdicts.append(fails)
                marked = int(np.argmin(np.linalg.eigvalsh(stack).min(axis=(-2, -1))))
                if fails:
                    with pytest.raises(ValueError, match="^POVM element is not PSD within tolerance$"):
                        discrim._check_povm_stack(stack, starts)
                    with pytest.raises(ValueError, match="^POVM element is not PSD within tolerance$"):
                        Povm(stack[marked], range(m))
                else:
                    discrim._check_povm_stack(stack, starts)
                    Povm(stack[marked], range(m))
        assert verdicts == [False] * 6 + [True] * 3

    def test_search_on_blocks_matches_the_dense_search(self):
        # the dense search is the one-block case on the assembled float64
        # family, seeded by its own pretty-good measurement; an open bracket
        # (max_iters 1 and 3) shows that p_upper counts d = sum b, not b
        stack, starts, priors = next(block_stacks())
        q, one = priors[0], qmat.ONE_FAMILY
        seeds = discrim._pretty_good(stack, starts, qmat._per_block(priors, starts, len(stack)))
        open_brackets = 0
        for start, end in zip(starts, np.append(starts[1:], len(stack))):
            blocks, dense = stack[start:end], blackbox._assemble(stack[start:end])[None]
            dense_seed = discrim._pretty_good(dense, one, priors[:1])
            for max_iters in (1, 3, 10000):
                search = discrim._fixed_point(seeds[start:end], blocks, q, q[:, None, None] * blocks, max_iters)
                oracle = discrim._fixed_point(dense_seed, dense, q, q[:, None, None] * dense, max_iters)
                assert (search.iterations, search.stop_reason) == (oracle.iterations, oracle.stop_reason)
                assert search.certified_optimal == oracle.certified_optimal
                # the dense iterates carry round-off between blocks: measured
                # up to 1.3e-15 apart in p and 2.6e-15 in p_upper; a bound
                # that counted b would move an open bracket's p_upper by
                # (K - 1) / K of its width, above 1e-7 here
                assert abs(search.success_probability - oracle.success_probability) <= 4e-15
                assert abs(search.p_upper - oracle.p_upper) <= 4e-15
                open_brackets += oracle.p_upper - oracle.success_probability > 1e-6
        assert open_brackets >= funcspec.VALID_3X3_CLASS_COUNT


class TestSquareRootMeasurement:
    """The pretty-good measurement, ``discrim._pretty_good``, on dense families."""

    def test_orthogonal_pure_states_give_projectors(self):
        r0 = pure_state([1.0, 0.0])
        r1 = pure_state([0.0, 1.0])
        povm = pretty_good_povm((r0, r1), (0.5, 0.5))
        np.testing.assert_allclose(povm.elements[0], r0, atol=1e-12)
        np.testing.assert_allclose(povm.elements[1], r1, atol=1e-12)

    def test_identical_rank_deficient_states(self):
        sigma = pure_state([1.0, 0.0, 0.0])
        povm = pretty_good_povm((sigma, sigma, sigma), (0.2, 0.5, 0.3))
        support = sigma
        kernel = np.eye(3) - support
        np.testing.assert_allclose(povm.elements[0], support / 3, atol=1e-12)
        np.testing.assert_allclose(povm.elements[1], support / 3 + kernel, atol=1e-12)
        np.testing.assert_allclose(povm.elements[2], support / 3, atol=1e-12)

    def test_kernel_tie_breaks_to_lowest_index(self):
        sigma = pure_state([1.0, 0.0])
        povm = pretty_good_povm((sigma, sigma), (0.5, 0.5))
        kernel = np.eye(2) - sigma
        np.testing.assert_allclose(povm.elements[0], sigma / 2 + kernel, atol=1e-12)

    def test_beats_honest_for_every_valid_3x3(self):
        prior = (1 / 3, 1 / 3, 1 / 3)
        for f in funcspec.enumerate_valid_3x3():
            base = canonicalize_3x3(f).base
            family = output_family(base, uniform_superposition(3))
            povm = pretty_good_povm(family, prior)
            assert povm_success(family, prior, povm) > honest_value(base, prior)

    def test_valid_on_random_rank_deficient_families(self):
        rng = np.random.default_rng(SEED + 5)
        for _ in range(200):
            dim = int(rng.integers(3, 7))
            count = int(rng.integers(2, 5))
            states = []
            for _ in range(count):
                rank = int(rng.integers(1, 3))
                g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
                m = g @ g.conj().T
                states.append(m / np.trace(m).real)
            w = rng.uniform(0.1, 1.0, size=count)
            povm = pretty_good_povm(states, tuple(w / w.sum()))
            assert povm.dim == dim  # Povm construction enforces PSD + completeness


class TestPovmSuccess:
    def test_trivial_single_state(self):
        rho = pure_state([1.0, 0.0])
        povm = Povm((np.eye(2),), (0,))
        assert povm_success((rho,), (1.0,), povm) == pytest.approx(1.0)

    def test_ot_explicit_matrix(self):
        family = output_family(builtin("ot"), 0, role="bob")
        value = povm_success(family, (0.5, 0.5), ot_explicit_povm())
        assert value == pytest.approx(0.5 + math.sqrt(3) / 4, abs=1e-12)

    def test_honest_family_equals_honest_probability_for_all_alphas(self):
        prior = (1 / 3, 1 / 3, 1 / 3)
        amps = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        grid = (0.0, 0.5, 1.0)
        for f in funcspec.enumerate_valid_3x3():
            canon = canonicalize_3x3(f)
            family = output_family(canon.base, amps)
            expected = honest_value(canon.base, prior)
            for a1 in grid:
                for ab in grid:
                    alphas = [a1, ab, ab, ab, ab]
                    povm = honest_family_povm(
                        canon.a, canon.b, canon.base.outcome_count, alphas
                    )
                    assert povm_success(family, prior, povm) == pytest.approx(
                        expected, abs=1e-12
                    )

    def test_label_out_of_range_rejected(self):
        rho = pure_state([1.0, 0.0])
        povm = Povm((np.eye(2),), (1,))
        with pytest.raises(ValueError):
            povm_success((rho,), (1.0,), povm)

    def test_dimension_mismatch_rejected(self):
        rho = pure_state([1.0, 0.0, 0.0])
        povm = Povm((np.eye(2),), (0,))
        with pytest.raises(ValueError):
            povm_success((rho,), (1.0,), povm)


class TestCertifyOptimal:
    def test_helstrom_certifies_on_two_state_families(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(100):
            r0, r1 = random_pure_pair(rng)
            q0 = float(rng.uniform(0.05, 0.95))
            result = helstrom(r0, r1, q0)
            ok, _ = certify_optimal((r0, r1), (q0, 1 - q0), result.povm)
            assert ok

    def test_honest_family_never_certifies(self):
        prior = (1 / 3, 1 / 3, 1 / 3)
        amps = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        grid = (0.0, 0.25, 0.5, 0.75, 1.0)
        for f in funcspec.enumerate_valid_3x3():
            canon = canonicalize_3x3(f)
            family = output_family(canon.base, amps)
            for a1 in grid:
                for ab in grid:
                    povm = honest_family_povm(
                        canon.a, canon.b, canon.base.outcome_count,
                        [a1, ab, ab, ab, ab],
                    )
                    ok, residuals = certify_optimal(family, prior, povm)
                    assert not ok
                    violation = max(
                        residuals.pairwise_max, -residuals.min_eigenvalue
                    )
                    assert violation > CERT_TOL

    def test_matches_reference_residuals_exactly(self):
        # same products in the same association, so the residuals agree bitwise
        cases = []
        for f in funcspec.enumerate_valid_3x3():
            canon = canonicalize_3x3(f)
            family = output_family(canon.base, uniform_superposition(3))
            prior = (1 / 3, 1 / 3, 1 / 3)
            cases.append((family.states, prior, pretty_good_povm(family, prior)))
            honest = honest_family_povm(canon.a, canon.b, canon.base.outcome_count, [0.5] * 5)
            cases.append((family.states, prior, honest))
        rng = np.random.default_rng(SEED + 8)
        for _ in range(50):
            dim, count = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            states, prior = random_mixed_family(rng, dim, count)
            cases.append((states, prior, pretty_good_povm(states, prior)))
            if count == 2:
                cases.append((states, prior, helstrom(*states, prior[0]).povm))
        for states, prior, povm in cases:
            _, residuals = certify_optimal(states, prior, povm)
            assert tuple(residuals) == reference_certificate(states, np.array(prior), povm)

    def test_ot_explicit_povm_certifies(self):
        family = output_family(builtin("ot"), 0, role="bob")
        ok, residuals = certify_optimal(family, (0.5, 0.5), ot_explicit_povm())
        assert ok
        assert residuals.pairwise_max < 1e-12


def class_search_inputs(f, superposition=None):
    """The arguments of the search ``tpc analyze <3x3> --optimize`` runs on
    ``f``, as :func:`attacks._measure` runs it: the outcome blocks
    :func:`attacks._det3x3_candidates` builds, seeded by their pretty-good
    element blocks."""
    labels = funcspec._labels_3x3(f)
    bases = [funcspec._canonical_form(labels)[0]]
    blocks, _, priors, *_ = attacks._det3x3_candidates(np.array(labels)[:, None], bases, superposition)
    q, one = priors[0], qmat.ONE_FAMILY
    seed = discrim._pretty_good(blocks, one, qmat._per_block(q[None], one, len(blocks)))
    return seed, blocks, q, q[:, None, None] * blocks


def class_search(f, superposition=None):
    """:func:`discrim._fixed_point` on :func:`class_search_inputs`."""
    return discrim._fixed_point(*class_search_inputs(f, superposition))


def class_files():
    """The 18 canonical class files of ``tests/data/optimize3x3``, in order."""
    for n in range(funcspec.VALID_3X3_CLASS_COUNT):
        yield funcspec.parse_function_file((OPTIMIZE_PINS / f"class{n:02d}.fn").read_text())


@pytest.fixture(scope="module")
def searched_families():
    """The 18 classes at the uniform prior and 50 seeded random families,
    each with the result of a full fixed-point search."""
    cases = []
    for f in funcspec.enumerate_valid_3x3():
        family = output_family(canonicalize_3x3(f).base, uniform_superposition(3))
        cases.append((family.states, (1 / 3, 1 / 3, 1 / 3)))
    rng = np.random.default_rng(SEED + 6)
    for _ in range(50):
        dim, count = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        cases.append(random_mixed_family(rng, dim, count))
    return [(states, prior, dense_search(states, prior)) for states, prior in cases]


class TestOptimizePovm:
    """The fixed-point search, ``discrim._fixed_point``: on dense families
    against the reference search, and on a class's outcome blocks as
    ``--optimize`` runs it."""

    def test_two_state_families_reach_helstrom(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(25):
            r0, r1 = random_mixed_pair(rng, dim=3)
            q0 = float(rng.uniform(0.1, 0.9))
            target = helstrom(r0, r1, q0).success_probability
            result = dense_search((r0, r1), (q0, 1 - q0))
            assert result.success_probability == pytest.approx(target, abs=1e-8)

    def test_ot_family_reaches_closed_form(self):
        family = output_family(builtin("ot"), 0, role="bob")
        result = dense_search(family, (0.5, 0.5))
        assert result.success_probability == pytest.approx(
            0.5 + math.sqrt(3) / 4, abs=1e-8
        )
        assert result.certified_optimal

    def test_counterexample_optimum_never_beats_honest(self):
        f = builtin("counterexample")
        family = output_family(f, uniform_superposition(2))
        result = dense_search(family, (0.5, 0.5))
        assert result.certified_optimal
        assert result.success_probability <= honest_value(f, (0.5, 0.5)) + 1e-9

    def test_never_below_seed(self):
        rng = np.random.default_rng(SEED + 3)
        for _ in range(200):
            dim, count = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            states, prior = random_mixed_family(rng, dim, count)
            seed = pretty_good_povm(states, prior)
            baseline = povm_success(states, prior, seed)
            result = dense_search(states, prior, seed, max_iters=200)
            assert result.success_probability >= baseline - 1e-12

    @staticmethod
    def assert_matches_reference(states, prior):
        seed = pretty_good_povm(states, prior)
        value, elements, steps, reason, ok, upper = reference_fixed_point(states, prior, seed)
        result = dense_search(states, prior, seed)
        assert (result.iterations, result.stop_reason) == (steps, reason)
        assert result.certified_optimal == ok
        assert abs(result.success_probability - value) <= 1e-12
        assert abs(result.p_upper - upper) <= 1e-12
        np.testing.assert_allclose(
            result.elements[0], np.array(elements), rtol=0, atol=1e-10
        )

    def test_matches_reference_on_the_18_classes(self):
        prior = (1 / 3, 1 / 3, 1 / 3)
        for f in funcspec.enumerate_valid_3x3():
            family = output_family(canonicalize_3x3(f).base, uniform_superposition(3))
            self.assert_matches_reference(family.states, prior)

    def test_matches_reference_on_random_families(self):
        rng = np.random.default_rng(SEED + 6)
        for _ in range(50):
            dim, count = int(rng.integers(2, 5)), int(rng.integers(2, 4))
            self.assert_matches_reference(*random_mixed_family(rng, dim, count))

    # canonical class 002/020/122: its pretty-good seed is not optimal, and
    # the reference search closes its bracket after 16 sweeps
    SLOW_CLASS = ((0, 0, 2), (0, 2, 0), (1, 2, 2))
    SLOW_CLASS_SWEEPS = 16

    def slow_class_family(self):
        return output_family(funcspec.deterministic(self.SLOW_CLASS), uniform_superposition(3))

    def test_search_fields_pinned_on_the_18_classes(self):
        # tests/data/optimize3x3/search.txt: the --optimize search on each
        # class file's outcome blocks at the uniform prior, as iterations,
        # stop reason, repr(p) and repr(p_upper); a changed digit must be
        # deliberate
        lines = []
        for n, f in enumerate(class_files()):
            result = class_search(f)
            lines.append(
                f"class{n:02d} {result.iterations} {result.stop_reason} "
                f"{result.success_probability!r} {result.p_upper!r}\n"
            )
            # the attack's note reports this very search
            note = f"fixed-point optimum p={result.success_probability:.17g}"
            assert note in attacks.attack_deterministic_3x3(f, optimize=True).notes
        assert "".join(lines) == (OPTIMIZE_PINS / "search.txt").read_text()

    def test_stop_reason_converged(self):
        # a converged search stops on its closed bracket
        family, prior = self.slow_class_family(), (1 / 3, 1 / 3, 1 / 3)
        seed = pretty_good_povm(family, prior)
        _, _, steps, reason, _, _ = reference_fixed_point(family.states, prior, seed)
        assert (steps, reason) == (self.SLOW_CLASS_SWEEPS, "bracket")
        # the dense search, and the --optimize search on the class's outcome blocks
        for result in (dense_search(family, prior), class_search(funcspec.deterministic(self.SLOW_CLASS))):
            assert (result.iterations, result.stop_reason) == (self.SLOW_CLASS_SWEEPS, "bracket")
            assert result.certified_optimal

    def test_stop_reason_max_iters(self):
        result = dense_search(self.slow_class_family(), (1 / 3, 1 / 3, 1 / 3), max_iters=7)
        assert (result.iterations, result.stop_reason) == (7, "max_iters")
        assert result.p_upper - result.success_probability > CERT_TOL

    def test_max_iters_exit_reuses_the_last_sweeps_operators(self, monkeypatch):
        # every sweep forms its gap operators and solves for their lowest
        # Lagrange eigenvalue once, after its one inverse root, so a
        # max_iters exit bounds the optimum with that sweep's eigenvalue,
        # forming neither again; with no sweep, the seed's bracket costs one
        # of each and no inverse root
        args = dense_inputs(self.slow_class_family(), (1 / 3, 1 / 3, 1 / 3))
        gaps, gap = [], discrim._gap

        def counted_gap(*gap_args):
            gaps.append(gap_args)
            return gap(*gap_args)

        monkeypatch.setattr(discrim, "_gap", counted_gap)
        calls = count_kernels(monkeypatch)
        for max_iters in range(self.SLOW_CLASS_SWEEPS):
            gaps.clear()
            calls.clear()
            result = discrim._fixed_point(*args, max_iters)
            assert (result.iterations, result.stop_reason) == (max_iters, "max_iters")
            assert not result.certified_optimal
            assert (calls.count("eigh"), calls.count("eigvalsh")) == (max_iters, max(max_iters, 1))
            assert len(gaps) == max(max_iters, 1)

    def test_stop_reason_stalled(self):
        # a zero element stays zero under every sweep, so this seed is a
        # fixed point that is not optimal and its residual never shrinks
        states = (pure_state([1.0, 0.0]), pure_state([0.0, 1.0]))
        seed = Povm((np.eye(2), np.zeros((2, 2))), (0, 1))
        result = dense_search(states, (0.5, 0.5), seed)
        assert (result.iterations, result.stop_reason) == (200, "stalled")
        assert not result.certified_optimal
        assert result.success_probability == 0.5

    def test_upper_bound_holds_from_the_first_sweep(self, searched_families):
        # weak duality: every bracket's upper end is at least the optimum
        for states, prior, optimum in searched_families:
            assert optimum.certified_optimal
            for max_iters in range(1, 6):
                result = dense_search(states, prior, max_iters=max_iters)
                assert result.p_upper >= optimum.success_probability - 1e-12

    def test_converged_brackets_are_closed(self, searched_families):
        for _, _, result in searched_families:
            assert (result.stop_reason, result.certified_optimal) == ("bracket", True)
            assert result.p_upper - result.success_probability <= CERT_TOL

    def test_upper_bound_reads_the_certificate(self, searched_families):
        # the bracket's width is d times the most negative eigenvalue of the
        # returned iterate's Lagrange operators, the certificate's PSD
        # residual, bit for bit, at every exit
        for states, prior, optimum in searched_families:
            args = dense_inputs(states, prior)
            weighted = args[2][:, None, None] * args[1]
            for k in (0, 1, 3, 10000):
                result = optimum if k == 10000 else discrim._fixed_point(*args, k)
                gap = discrim._gap(result.elements, weighted, args[3])
                shift = max(0.0, -float(discrim._lagrange(gap, qmat.ONE_FAMILY)[0]))
                assert result.p_upper == result.success_probability + len(states[0]) * shift
                assert result.certified_optimal == (len(states[0]) * shift <= CERT_TOL)

    def test_upper_bound_covers_states_the_seed_never_guesses(self):
        # three orthogonal states are perfectly distinguishable, but this seed
        # never guesses state 2; only that state's constraint lifts the bound
        states = tuple(pure_state(np.eye(3)[k]) for k in range(3))
        seed = Povm((np.diag([1.0, 0, 0]), np.diag([0, 1.0, 1.0])), (0, 1))
        for max_iters in (0, 1, 3):
            result = dense_search(states, (1 / 3, 1 / 3, 1 / 3), seed, max_iters=max_iters)
            assert result.success_probability == pytest.approx(2 / 3)
            assert result.p_upper >= 1.0 - 1e-12

    def test_upper_bound_is_at_least_helstrom(self):
        rng = np.random.default_rng(SEED + 7)
        for _ in range(50):
            r0, r1 = random_mixed_pair(rng, dim=int(rng.integers(2, 5)))
            q0 = float(rng.uniform(0.1, 0.9))
            target = helstrom(r0, r1, q0).success_probability
            for max_iters in (0, 1, 3, 10000):
                result = dense_search((r0, r1), (q0, 1 - q0), max_iters=max_iters)
                assert result.p_upper >= target - 1e-12

    @staticmethod
    def scaled_search_error(monkeypatch, scale, family=None) -> Exception:
        """The error of the dense search on ``family`` (by default neq3's
        class) at the uniform prior when sweep ``k`` scales its inverse root
        by ``scale(k)``.  Warnings are recorded, not raised: none may occur."""
        if family is None:
            family = output_family(canonicalize_3x3(builtin("neq3")).base, uniform_superposition(3))
        prior = (1 / 3, 1 / 3, 1 / 3)
        seed = pretty_good_povm(family, prior)
        true_root, sweeps = qmat._inv_sqrt, itertools.count(1)
        monkeypatch.setattr(
            discrim.qmat, "_inv_sqrt", lambda m, starts: scale(next(sweeps)) * true_root(m, starts)
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises((ValueError, ArithmeticError)) as raised:
                dense_search(family, prior, seed)
        assert caught == []
        return raised.value

    @pytest.mark.parametrize(
        "scale, message",
        [(math.nan, "matrix contains non-finite entries"),
         (2.0, "POVM element is not PSD within tolerance")],
    )
    def test_every_sweep_is_validated(self, monkeypatch, scale, message):
        error = self.scaled_search_error(monkeypatch, lambda sweep: scale)
        assert type(error) is ValueError and str(error) == message

    def test_every_sweep_keeps_the_value(self, monkeypatch):
        # a halved inverse root quarters the first iterate's sandwiched
        # elements, and the kernel slot takes up the rest of the identity
        error = self.scaled_search_error(monkeypatch, lambda sweep: 0.5)
        assert type(error) is ArithmeticError
        assert str(error) == "fixed-point sweep decreased success 0.92592592592592626 -> 0.48148148148148162"

    def test_an_earlier_bad_iterate_outranks_a_later_one(self, monkeypatch):
        # the slow class runs on past a non-PSD iterate at sweep 2 (its
        # inverse root scaled by 1.001, which leaves its bracket open) to a
        # NaN one at sweep 4; the stacked check meets the NaN first, so the
        # iterates are checked again one at a time, and sweep 2's defect wins
        sizes, check = [], discrim._check_povm_stack

        def recording_check(stack, starts):
            sizes.append(len(starts))
            return check(stack, starts)

        monkeypatch.setattr(discrim, "_check_povm_stack", recording_check)
        scales = {2: 1.001, 4: math.nan}
        family = self.slow_class_family()
        error = self.scaled_search_error(monkeypatch, lambda sweep: scales.get(sweep, 1.0), family)
        assert type(error) is ValueError and str(error) == "POVM element is not PSD within tolerance"
        # the seed's Povm, the search's stacked check, then sweeps 1 and 2 alone
        assert sizes[0] == 1 and sizes[1] >= 4 and sizes[2:] == [1, 1]

    @pytest.mark.parametrize("max_iters, sizes", [(150, [100, 50]), (10000, [100, 100])])
    def test_no_check_holds_more_than_a_polish_block(self, monkeypatch, max_iters, sizes):
        # the stalled seed polishes at sweeps 100 and 200; its iterates are
        # checked in blocks of at most 100, every one of them exactly once
        states = (pure_state([1.0, 0.0]), pure_state([0.0, 1.0]))
        args = dense_inputs(states, (0.5, 0.5), Povm((np.eye(2), np.zeros((2, 2))), (0, 1)))
        checked, check = [], discrim._check_povm_stack

        def recording_check(stack, starts):
            checked.append(len(starts))
            return check(stack, starts)

        monkeypatch.setattr(discrim, "_check_povm_stack", recording_check)
        result = discrim._fixed_point(*args, max_iters)
        assert checked == sizes and sum(sizes) == result.iterations

    def test_improves_on_seed_for_three_state_family(self):
        canon = canonicalize_3x3(builtin("neq3"))
        prior = (1 / 3, 1 / 3, 1 / 3)
        family = output_family(canon.base, uniform_superposition(3))
        seed = pretty_good_povm(family, prior)
        result = dense_search(family, prior, seed)
        assert result.success_probability >= povm_success(family, prior, seed) - 1e-12

    @staticmethod
    def phased_classes():
        """Each class's base table with the uniform superposition and the
        same magnitudes under seeded per-component phases: a diagonal
        unitary on the input register, so the complex family is equivalent
        to the real."""
        rng = np.random.default_rng(SEED + 9)
        for f in funcspec.enumerate_valid_3x3():
            phased = uniform_superposition(3) * np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
            yield canonicalize_3x3(f).base, uniform_superposition(3), phased

    def test_complex_search_matches_real_search_on_the_18_classes(self):
        for base, real, phased in self.phased_classes():
            a, b = class_search(base, real), class_search(base, phased)
            assert a.elements.dtype == np.float64 and b.elements.dtype == np.complex128
            assert (b.iterations, b.stop_reason) == (a.iterations, a.stop_reason)
            assert b.certified_optimal == a.certified_optimal
            assert abs(b.success_probability - a.success_probability) <= 1e-12

    def test_search_checks_float64_stacks_on_real_families_only(self, monkeypatch):
        checked, check = [], discrim._check_povm_stack

        def recording_check(stack, starts):
            checked.append(stack.copy())
            return check(stack, starts)

        searches, search = [], discrim._fixed_point

        def recording_search(*args):
            searches.append((args, search(*args)))
            return searches[-1][1]

        monkeypatch.setattr(discrim, "_check_povm_stack", recording_check)
        monkeypatch.setattr(discrim, "_fixed_point", recording_search)
        base, *superpositions = next(self.phased_classes())
        for superposition, dtype in zip(superpositions, (np.float64, np.complex128)):
            checked.clear()
            searches.clear()
            attacks.attack_deterministic_3x3(base, superposition, optimize=True)
            # the seed's check with the measured stack, then the search's:
            # its iterates, the class's blocks, stacked in sweep order
            [(args, result)] = searches
            seed_stack, *search_stacks = checked
            assert seed_stack.shape == result.elements.shape == (base.outcome_count, 3, 3, 3)
            assert result.iterations >= 2 and search_stacks
            assert all(stack.dtype == dtype for stack in checked)
            # sweep k's iterate is the last of a search stopped after k sweeps
            iterates = [search(*args, k).elements for k in range(1, result.iterations + 1)]
            assert np.array_equal(np.concatenate(search_stacks), np.concatenate(iterates))
            assert np.array_equal(result.elements, search_stacks[-1][-base.outcome_count:])

    @pytest.mark.parametrize("max_iters", [0, 1, 10000])
    def test_each_search_builds_one_povm(self, monkeypatch, max_iters):
        built, post_init = [], Povm.__post_init__

        def counted_post_init(self):
            built.append("checked")
            post_init(self)

        family = output_family(canonicalize_3x3(builtin("neq3")).base, uniform_superposition(3))
        prior = (1 / 3, 1 / 3, 1 / 3)
        monkeypatch.setattr(Povm, "__post_init__", counted_post_init)
        # the dense search builds its pretty-good seed and no Povm per sweep
        result = dense_search(family, prior, max_iters=max_iters)
        assert built == ["checked"]
        assert result.elements.shape == (1, *family.states.shape)
        assert result.iterations <= max_iters
        built.clear()
        # the attack's search runs on blocks and reports numbers only: no Povm at all
        report = attacks.attack_deterministic_3x3(builtin("neq3"), optimize=True)
        assert "fixed-point optimum" in report.notes
        assert built == []


def criterion_7_families():
    """The 200 seeded families of acceptance criterion 7's optimizer check
    (seed 1004), with their priors."""
    rng = np.random.default_rng(1004)
    for _ in range(200):
        dim, count = int(rng.integers(2, 5)), int(rng.integers(2, 4))
        states = []
        for _ in range(count):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = g @ g.conj().T
            states.append(m / np.trace(m).real)
        w = rng.uniform(0.1, 1.0, size=count)
        yield states, tuple(w / w.sum())


class TestEagerOrder:
    """The search solves for its dual bound on every sweep and stops on the
    first whose bracket is closed, so it runs in the eager order only.  Its
    bracket holds: the same update run on with no stop rule
    (:func:`oracles.unstopped_search`) never leaves it."""

    @staticmethod
    def assert_bracket_holds(args, result) -> float:
        """The unstopped run's value, 300 sweeps past ``result``'s, which
        must lie inside ``result``'s ``[p, p_upper]``."""
        limit = unstopped_search(*args[:3], result.iterations + 300)
        assert result.success_probability - 1e-12 <= limit <= result.p_upper + 1e-12
        return limit

    def test_the_18_class_searches_real_and_complex(self):
        # every search stops on its closed bracket, and on half the searches
        # or more (22 of the 36 here) the unstopped run climbs past the
        # value at which it stopped
        beyond = 0
        for base, real, phased in TestOptimizePovm.phased_classes():
            for superposition in (real, phased):
                args = class_search_inputs(base, superposition)
                result = discrim._fixed_point(*args)
                assert (result.stop_reason, result.certified_optimal) == ("bracket", True)
                beyond += self.assert_bracket_holds(args, result) > result.success_probability + 1e-10
        assert beyond >= 18

    def test_searched_families(self, searched_families):
        # the 18 classes as dense families and 50 complex random families
        for states, prior, result in searched_families:
            assert result.stop_reason == "bracket"
            self.assert_bracket_holds(dense_inputs(states, prior), result)

    def test_max_iters_and_polish_exits(self, searched_families):
        reasons = set()
        for states, prior, _ in searched_families[::7]:
            args = dense_inputs(states, prior)
            for max_iters in (0, 1, 3):
                result = discrim._fixed_point(*args, max_iters)
                self.assert_bracket_holds(args, result)
                reasons.add(result.stop_reason)
        # the slow class stops on max_iters at 7 and closes its bracket on
        # its last allowed sweep at 16; the stalled seed polishes at sweeps
        # 100 and 200 and stalls on the second
        slow = dense_inputs(TestOptimizePovm().slow_class_family(), (1 / 3, 1 / 3, 1 / 3))
        states = (pure_state([1.0, 0.0]), pure_state([0.0, 1.0]))
        stalled = dense_inputs(states, (0.5, 0.5), Povm((np.eye(2), np.zeros((2, 2))), (0, 1)))
        for args, max_iters in ((slow, 7), (slow, TestOptimizePovm.SLOW_CLASS_SWEEPS), (stalled, 10000)):
            result = discrim._fixed_point(*args, max_iters)
            self.assert_bracket_holds(args, result)
            reasons.add(result.stop_reason)
        assert reasons == {"bracket", "max_iters", "stalled"}

    def test_criterion_7_families_all_stop_on_their_brackets(self):
        # with no sweep cap, every one of the 200 families closes its
        # bracket; a sweep that lowered the value would raise
        for states, prior in criterion_7_families():
            seed = pretty_good_povm(states, prior)
            result = dense_search(states, prior, seed)
            assert (result.stop_reason, result.certified_optimal) == ("bracket", True)
            assert result.success_probability >= povm_success(states, prior, seed) - 1e-12

    def test_the_18_searches_certify_no_sweep(self, monkeypatch):
        # each search stops on the sweep and for the reason search.txt pins,
        # 111 sweeps in all, and none reaches a 100-sweep polish block, so
        # none computes a certificate
        certified, certify = [], discrim._certify

        def counted_certify(*args):
            certified.append(args)
            return certify(*args)

        monkeypatch.setattr(discrim, "_certify", counted_certify)
        fields = [line.split()[1:3] for line in (OPTIMIZE_PINS / "search.txt").read_text().splitlines()]
        for f, (iterations, stop_reason) in zip(class_files(), fields, strict=True):
            result = class_search(f)
            assert (str(result.iterations), result.stop_reason) == (iterations, stop_reason)
        assert sum(int(iterations) for iterations, _ in fields) == 111
        assert certified == []

    def test_the_18_searches_solve_for_the_bound_on_every_sweep(self, monkeypatch):
        # one inverse root (eigh) and one Lagrange eigen-solve (eigvalsh) per
        # sweep, 111 sweeps in all; one POVM check (cholesky) per search, on
        # all its iterates
        inputs = [class_search_inputs(f) for f in class_files()]
        calls = count_kernels(monkeypatch)
        sweeps = sum(discrim._fixed_point(*args).iterations for args in inputs)
        assert sweeps == 111
        assert Counter(calls) == {"eigh": 111, "cholesky": 18, "eigvalsh": 111}


class TestWeightedDifferenceEigenvalues:
    """The closed-form spectrum ``discrim._weighted_difference``, the
    two-sided attack's cross-check."""

    def test_one_input_table_collapses(self):
        # rows constant across the guessed input: both coefficients vanish
        f = two_sided_binary([[0.3, 0.3], [0.8, 0.8]])
        for q0 in (0.3, 0.7, 0.99):
            ev = discrim._weighted_difference(f.probabilities(), q0)
            assert ev.b_val == pytest.approx(0.0, abs=1e-15)
            assert ev.b_bar == pytest.approx(0.0, abs=1e-15)
            family = output_family(f, uniform_superposition(2))
            p_c = helstrom(family.states[0], family.states[1], q0).success_probability
            assert p_c == pytest.approx(honest_value(f, (q0, 1 - q0)), abs=1e-12)

    def test_all_half_table_gives_zero_spectrum(self):
        f = two_sided_binary([[0.5, 0.5], [0.5, 0.5]])
        ev = discrim._weighted_difference(f.probabilities(), 0.5)
        for value in (ev.lam_plus, ev.lam_minus, ev.mu_plus, ev.mu_minus):
            assert value == pytest.approx(0.0, abs=1e-15)
        family = output_family(f, uniform_superposition(2))
        assert helstrom(family.states[0], family.states[1], 0.5).success_probability == pytest.approx(0.5)

    def test_matches_direct_eigendecomposition(self):
        rng = np.random.default_rng(SEED + 4)
        for _ in range(500):
            rows = rng.uniform(0, 1, size=(2, 2))
            f = two_sided_binary(rows)
            q0 = float(rng.uniform(0, 1))
            ev = discrim._weighted_difference(f.probabilities(), q0)
            family = output_family(f, uniform_superposition(2))
            delta = q0 * family.states[0] - (1 - q0) * family.states[1]
            direct = np.sort(np.linalg.eigvalsh(delta))
            closed = np.sort([ev.lam_plus, ev.lam_minus, ev.mu_plus, ev.mu_minus])
            assert np.abs(direct - closed).max() <= 1e-10

    @staticmethod
    def cell_by_cell(f, q0):
        """Oracle: the closed form on the exact table read one cell at a time."""
        q1 = 1.0 - q0

        def pair(t):
            a_val = (t[0, 0] + t[1, 0]) * q0 - (t[0, 1] + t[1, 1]) * q1
            root_gap = math.sqrt(t[0, 1] * t[1, 0]) - math.sqrt(t[0, 0] * t[1, 1])
            b_val = 4.0 * root_gap**2 * q0 * q1
            disc = math.sqrt(a_val * a_val + b_val)
            return 0.25 * (a_val + disc), 0.25 * (a_val - disc), a_val, b_val

        zero = {(i, j): float(f.prob_table[0][j][i]) for i in range(2) for j in range(2)}
        lam_plus, lam_minus, a_val, b_val = pair(zero)
        mu_plus, mu_minus, a_bar, b_bar = pair({key: 1.0 - v for key, v in zero.items()})
        return (lam_plus, lam_minus, mu_plus, mu_minus, a_val, b_val, a_bar, b_bar)

    def test_held_array_equals_the_exact_table_bitwise(self):
        # the attack's cross-check reads the float array it already holds;
        # on seeded rational tables that array is the exact table cell for
        # cell, so the closed form on it is the cell-by-cell one, bit for bit
        rng = np.random.default_rng(SEED + 14)
        for _ in range(2000):
            den = int(rng.integers(1, 1000))
            rows = [[Fraction(int(rng.integers(0, den + 1)), den) for _ in range(2)] for _ in range(2)]
            f = two_sided_binary(rows)
            p = f.probabilities()
            for i, j in itertools.product(range(2), repeat=2):
                assert p[0, j, i] == float(f.prob_table[0][j][i])
            q0 = float(rng.uniform(0, 1))
            expected = self.cell_by_cell(f, q0)
            assert tuple(discrim._weighted_difference(p, q0)) == expected

    def test_two_sided_attack_does_not_reread_the_table(self, monkeypatch):
        f = two_sided_binary([[0.3, 0.7], [0.9, 0.2]])
        expected = attacks.attack_nondet_two_sided(f)
        reads, probabilities = [], funcspec.FunctionSpec.probabilities

        def counted(spec):
            reads.append(spec)
            return probabilities(spec)

        # the attack reads the exact table into floats once, cross-check included
        monkeypatch.setattr(funcspec.FunctionSpec, "probabilities", counted)
        assert attacks.attack_nondet_two_sided(f) == expected
        assert reads == [f]

    def test_trace_identity(self):
        rng = np.random.default_rng(SEED + 5)
        for _ in range(200):
            rows = rng.uniform(0, 1, size=(2, 2))
            f = two_sided_binary(rows)
            q0 = float(rng.uniform(0, 1))
            ev = discrim._weighted_difference(f.probabilities(), q0)
            total = ev.lam_plus + ev.lam_minus + ev.mu_plus + ev.mu_minus
            assert total == pytest.approx(2 * q0 - 1, abs=1e-10)


class TestBasisMeasurementOptimal:
    def test_deterministic_entries_hold_for_all_priors(self):
        f = funcspec.one_sided_binary([[1, 0], [0, 1]])
        for q0 in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert basis_measurement_optimal(f, 0, q0)
            assert basis_measurement_optimal(f, 1, q0)

    def test_half_half_fails_off_balance(self):
        f = funcspec.one_sided_binary([[0.5, 0.5], [0.5, 0.5]])
        assert not basis_measurement_optimal(f, 1, 0.3)
        assert basis_measurement_optimal(f, 1, 0.5)

    def test_variable_bias_coin_toss_fails_generic_priors(self):
        f = funcspec.one_sided_binary([[0.6, 0.6], [0.4, 0.4]])
        for q0 in (0.2, 0.3, 0.7):
            assert not basis_measurement_optimal(f, 0, q0)
            assert not basis_measurement_optimal(f, 1, q0)


class TestPovmValidation:
    def test_rejects_incomplete_elements(self):
        with pytest.raises(ValueError):
            Povm((np.eye(2) / 2,), (0,))

    def test_rejects_non_psd_element(self):
        with pytest.raises(ValueError):
            Povm((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])), (0, 1))

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError):
            Povm((np.eye(2),), (0, 1))

    def test_elements_are_one_read_only_stack(self):
        source = [np.eye(2) / 2, np.eye(2) / 2]
        povm = Povm(source, [0, 1])
        source[0][0, 0] = 7.0
        assert povm.elements.shape == (2, 2, 2) and povm.elements.dtype == complex
        assert povm.elements[0, 0, 0] == 0.5
        assert povm.labels == (0, 1)
        with pytest.raises(ValueError):
            povm.elements[0, 0, 0] = 0.0
        assert povm != Povm(povm.elements, povm.labels)  # compared by identity

    @pytest.mark.parametrize("label", [1.7, 1.0, "1", None])
    def test_rejects_a_label_that_is_not_an_integer(self, label):
        # read with operator.index, so 1.7 is an error, not label 1
        with pytest.raises(ValueError, match=re.escape(f"POVM labels must be integers, got (0, {label!r})")):
            Povm((np.eye(2) / 2, np.eye(2) / 2), (0, label))

    def test_integral_labels_read_as_int(self):
        povm = Povm((np.eye(2) / 2, np.eye(2) / 2), (np.int64(0), np.uint8(1)))
        assert povm.labels == (0, 1) and all(type(label) is int for label in povm.labels)

    def test_accepts_negative_eigenvalue_within_tolerance(self):
        slack = TOL_PSD / 2
        Povm((np.diag([1.0 + slack, 1.0]), np.diag([-slack, 0.0])), (0, 1))

    @pytest.mark.parametrize(
        "elements, message",
        [
            ((), "POVM must have at least one element"),
            ((np.ones(2),), r"expected a matrix, got array of shape \(2,\)"),
            ((np.eye(2), np.eye(3)), "POVM elements must share one square dimension"),
            ((np.ones((2, 3)),), "POVM elements must share one square dimension"),
            ((np.diag([1.0, math.inf]),), "matrix contains non-finite entries"),
            ((np.array([[1.0, 1e-3], [0.0, 1.0]]),),
             r"POVM element is not Hermitian \(defect 0.001 > 1e-10\)"),
            ((np.diag([1.5, 1.0]), np.diag([-0.5, 0.0])), "POVM element is not PSD within tolerance"),
            ((np.eye(2) / 2,), "POVM elements sum to identity only within 0.5"),
        ],
    )
    def test_error_messages(self, elements, message):
        with pytest.raises(ValueError, match=message):
            Povm(elements, tuple(range(len(elements))))
