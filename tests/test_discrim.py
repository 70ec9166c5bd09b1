"""Discrimination engine: honest baseline, two-state optimum, pretty-good
measurement, certification, and the fixed-point search."""

import itertools
import math

import numpy as np
import pytest

from tpc import funcspec, qmat
from tpc.attacks import ot_explicit_povm
from tpc.blackbox import output_family, uniform_superposition
from tpc.discrim import (
    Povm,
    basis_measurement_optimal,
    certify_optimal,
    helstrom,
    honest_family_povm,
    honest_probability,
    optimize_povm,
    povm_success,
    square_root_measurement,
    weighted_difference_eigenvalues,
)
from tpc.funcspec import builtin, canonicalize_3x3, transpose, two_sided_binary
from tpc.tolerances import active

SEED = 424242


def random_pure_pair(rng, dim=3):
    states = []
    for _ in range(2):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        states.append(qmat.pure_state(v / np.linalg.norm(v)))
    return states


def random_mixed_pair(rng, dim=4):
    states = []
    for _ in range(2):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = g @ g.conj().T
        states.append(qmat.DensityState(m / np.trace(m).real, (dim,)))
    return states


def brute_force_honest(f, prior):
    """Independent oracle: maximize over the honest input and every
    outcome-to-guess rule."""
    best = 0.0
    for i in range(f.alice_arity):
        for rule in itertools.product(range(f.bob_arity), repeat=f.outcome_count):
            value = sum(
                prior[j] * float(f.prob(k, i, j))
                for j in range(f.bob_arity)
                for k in range(f.outcome_count)
                if rule[k] == j
            )
            best = max(best, value)
    return best


class TestHonestProbability:
    def test_skewed_prior_reduces_to_largest_weight(self):
        f = two_sided_binary([[0.3, 0.6], [0.7, 0.2]])
        for eps in (1e-2, 1e-3):
            assert honest_probability(f, (1 - eps, eps)) == pytest.approx(1 - eps)

    def test_neq3_uniform_is_two_thirds(self):
        f = builtin("neq3")
        prior = (1 / 3, 1 / 3, 1 / 3)
        assert honest_probability(f, prior) == pytest.approx(2 / 3, abs=1e-15)
        assert brute_force_honest(f, prior) == pytest.approx(2 / 3, abs=1e-15)

    def test_ot_receiver_guesses_three_quarters(self):
        f = transpose(builtin("ot"))
        assert honest_probability(f, (0.5, 0.5)) == pytest.approx(0.75, abs=0)

    def test_matches_brute_force_on_random_tables(self):
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            rows = rng.uniform(0, 1, size=(2, 2))
            f = two_sided_binary(rows)
            q0 = rng.uniform(0, 1)
            prior = (q0, 1 - q0)
            assert honest_probability(f, prior) == pytest.approx(
                brute_force_honest(f, prior), abs=1e-12
            )


class TestHelstrom:
    def test_identical_states_give_half(self):
        rho = qmat.pure_state([1.0, 0.0])
        assert helstrom(rho, rho, 0.5).success_probability == pytest.approx(0.5)

    def test_orthogonal_states_give_one(self):
        r0 = qmat.pure_state([1.0, 0.0])
        r1 = qmat.pure_state([0.0, 1.0])
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
        tol = active()
        for _ in range(100):
            r0, r1 = random_mixed_pair(rng)
            q0 = float(rng.uniform(0, 1))
            result = helstrom(r0, r1, q0)
            assert result.certified_optimal
            assert result.residuals.pairwise_max < tol.cert
            assert result.residuals.min_eigenvalue > -tol.cert

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            helstrom(qmat.pure_state([1.0, 0.0]), qmat.pure_state([1.0, 0.0, 0.0]), 0.5)


class TestSquareRootMeasurement:
    def test_orthogonal_pure_states_give_projectors(self):
        r0 = qmat.pure_state([1.0, 0.0])
        r1 = qmat.pure_state([0.0, 1.0])
        povm = square_root_measurement((r0, r1), (0.5, 0.5))
        np.testing.assert_allclose(povm.elements[0], r0.matrix, atol=1e-12)
        np.testing.assert_allclose(povm.elements[1], r1.matrix, atol=1e-12)

    def test_identical_rank_deficient_states(self):
        sigma = qmat.pure_state([1.0, 0.0, 0.0])
        povm = square_root_measurement((sigma, sigma, sigma), (0.2, 0.5, 0.3))
        support = sigma.matrix
        kernel = np.eye(3) - support
        np.testing.assert_allclose(povm.elements[0], support / 3, atol=1e-12)
        np.testing.assert_allclose(povm.elements[1], support / 3 + kernel, atol=1e-12)
        np.testing.assert_allclose(povm.elements[2], support / 3, atol=1e-12)

    def test_kernel_tie_breaks_to_lowest_index(self):
        sigma = qmat.pure_state([1.0, 0.0])
        povm = square_root_measurement((sigma, sigma), (0.5, 0.5))
        kernel = np.eye(2) - sigma.matrix
        np.testing.assert_allclose(povm.elements[0], sigma.matrix / 2 + kernel, atol=1e-12)

    def test_beats_honest_for_every_valid_3x3(self):
        prior = (1 / 3, 1 / 3, 1 / 3)
        for f in funcspec.enumerate_valid_3x3():
            base = canonicalize_3x3(f).base
            family = output_family(base, uniform_superposition(3))
            povm = square_root_measurement(family, prior)
            assert povm_success(family, prior, povm) > honest_probability(base, prior)

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
                states.append(qmat.DensityState(m / np.trace(m).real, (dim,)))
            w = rng.uniform(0.1, 1.0, size=count)
            povm = square_root_measurement(states, tuple(w / w.sum()))
            assert povm.dim == dim  # Povm construction enforces PSD + completeness


class TestPovmSuccess:
    def test_trivial_single_state(self):
        rho = qmat.pure_state([1.0, 0.0])
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
            expected = honest_probability(canon.base, prior)
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
        rho = qmat.pure_state([1.0, 0.0])
        povm = Povm((np.eye(2),), (1,))
        with pytest.raises(ValueError):
            povm_success((rho,), (1.0,), povm)

    def test_dimension_mismatch_rejected(self):
        rho = qmat.pure_state([1.0, 0.0, 0.0])
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
        tol = active()
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
                    assert violation > tol.cert

    def test_ot_explicit_povm_certifies(self):
        family = output_family(builtin("ot"), 0, role="bob")
        ok, residuals = certify_optimal(family, (0.5, 0.5), ot_explicit_povm())
        assert ok
        assert residuals.pairwise_max < 1e-12


class TestOptimizePovm:
    def test_two_state_families_reach_helstrom(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(25):
            r0, r1 = random_mixed_pair(rng, dim=3)
            q0 = float(rng.uniform(0.1, 0.9))
            target = helstrom(r0, r1, q0).success_probability
            result = optimize_povm((r0, r1), (q0, 1 - q0))
            assert result.success_probability == pytest.approx(target, abs=1e-8)

    def test_ot_family_reaches_closed_form(self):
        family = output_family(builtin("ot"), 0, role="bob")
        result = optimize_povm(family, (0.5, 0.5))
        assert result.success_probability == pytest.approx(
            0.5 + math.sqrt(3) / 4, abs=1e-8
        )
        assert result.certified_optimal

    def test_counterexample_optimum_never_beats_honest(self):
        f = builtin("counterexample")
        family = output_family(f, uniform_superposition(2))
        result = optimize_povm(family, (0.5, 0.5))
        assert result.certified_optimal
        assert result.success_probability <= honest_probability(f, (0.5, 0.5)) + 1e-9

    def test_never_below_seed(self):
        rng = np.random.default_rng(SEED + 3)
        for _ in range(200):
            dim = int(rng.integers(2, 5))
            count = int(rng.integers(2, 4))
            states = []
            for _ in range(count):
                g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                m = g @ g.conj().T
                states.append(qmat.DensityState(m / np.trace(m).real, (dim,)))
            w = rng.uniform(0.1, 1.0, size=count)
            prior = tuple(w / w.sum())
            seed = square_root_measurement(states, prior)
            baseline = povm_success(states, prior, seed)
            result = optimize_povm(states, prior, seed_povm=seed, max_iters=200)
            assert result.success_probability >= baseline - 1e-12

    def test_improves_on_seed_for_three_state_family(self):
        canon = canonicalize_3x3(builtin("neq3"))
        prior = (1 / 3, 1 / 3, 1 / 3)
        family = output_family(canon.base, uniform_superposition(3))
        seed = square_root_measurement(family, prior)
        result = optimize_povm(family, prior, seed_povm=seed)
        assert result.success_probability >= povm_success(family, prior, seed) - 1e-12


class TestWeightedDifferenceEigenvalues:
    def test_one_input_table_collapses(self):
        # rows constant across the guessed input: both coefficients vanish
        f = two_sided_binary([[0.3, 0.3], [0.8, 0.8]])
        for q0 in (0.3, 0.7, 0.99):
            ev = weighted_difference_eigenvalues(f, q0)
            assert ev.b_val == pytest.approx(0.0, abs=1e-15)
            assert ev.b_bar == pytest.approx(0.0, abs=1e-15)
            family = output_family(f, uniform_superposition(2))
            p_c = helstrom(family.states[0], family.states[1], q0).success_probability
            assert p_c == pytest.approx(honest_probability(f, (q0, 1 - q0)), abs=1e-12)

    def test_all_half_table_gives_zero_spectrum(self):
        f = two_sided_binary([[0.5, 0.5], [0.5, 0.5]])
        ev = weighted_difference_eigenvalues(f, 0.5)
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
            ev = weighted_difference_eigenvalues(f, q0)
            family = output_family(f, uniform_superposition(2))
            delta = q0 * family.states[0].matrix - (1 - q0) * family.states[1].matrix
            direct = np.sort(np.linalg.eigvalsh(delta))
            closed = np.sort([ev.lam_plus, ev.lam_minus, ev.mu_plus, ev.mu_minus])
            assert np.abs(direct - closed).max() <= 1e-10

    def test_trace_identity(self):
        rng = np.random.default_rng(SEED + 5)
        for _ in range(200):
            rows = rng.uniform(0, 1, size=(2, 2))
            f = two_sided_binary(rows)
            q0 = float(rng.uniform(0, 1))
            ev = weighted_difference_eigenvalues(f, q0)
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
