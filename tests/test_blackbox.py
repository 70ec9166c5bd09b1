"""State construction: closed-form route vs full purification, one-sided
pure states, role symmetry."""

from fractions import Fraction

import numpy as np
import pytest

from tpc import funcspec, qmat
from tpc.blackbox import (
    alice_reduced_state,
    alice_reduced_states,
    alice_reduced_state_one_sided,
    amplitude_vector,
    output_family,
    purified_reduced_state,
    uniform_superposition,
)
from tpc.funcspec import builtin, canonicalize_3x3, deterministic, transpose
from tpc.tolerances import active

SEED = 77


def random_two_sided(rng, n=None, nb=None, kdim=None):
    n = n or int(rng.integers(2, 4))
    nb = nb or int(rng.integers(2, 4))
    kdim = kdim or int(rng.integers(2, 4))
    blocks = []
    raw = rng.integers(1, 9, size=(kdim, nb, n))
    totals = raw.sum(axis=0)
    for k in range(kdim):
        blocks.append(
            tuple(
                tuple(Fraction(int(raw[k, j, i]), int(totals[j, i])) for i in range(n))
                for j in range(nb)
            )
        )
    return funcspec.FunctionSpec(
        kind="probabilistic",
        sided="two",
        alice_arity=n,
        bob_arity=nb,
        outcome_count=kdim,
        prob_table=tuple(blocks),
    )


def random_amplitudes(rng, n):
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    return a / np.linalg.norm(a)


class TestTwoSidedStates:
    def test_honest_basis_input_collapses(self):
        f = builtin("neq3")
        for i in range(3):
            for j in range(3):
                amps = np.zeros(3)
                amps[i] = 1.0
                rho = alice_reduced_state(f, amps, j)
                expected = np.zeros((6, 6))
                expected[2 * i + f.outcome(i, j), 2 * i + f.outcome(i, j)] = 1.0
                np.testing.assert_allclose(rho.matrix, expected, atol=1e-12)

    def test_canonical_proof_states_without_cross_term(self):
        # canonical neq3 has b = 0, so the j=2 state carries no coherence
        canon = canonicalize_3x3(builtin("neq3"))
        assert (canon.a, canon.b) == (1, 0)
        amps = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        rho2 = alice_reduced_state(canon.base, amps, 2)
        kdim = canon.base.outcome_count
        expected = np.zeros((3 * kdim, 3 * kdim))
        expected[0 * kdim + 1, 0 * kdim + 1] = 0.5          # |0,1><0,1|
        expected[1 * kdim + canon.b, 1 * kdim + canon.b] = 0.5
        np.testing.assert_allclose(rho2.matrix, expected, atol=1e-12)

    def test_canonical_proof_states_with_cross_term(self):
        # a class with b = 1: the j=2 state gains the coherent cross term
        rep = deterministic(((0, 0, 0), (0, 0, 1), (0, 1, 1)))
        canon = canonicalize_3x3(rep)
        assert canon.b == 1
        amps = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        rho2 = alice_reduced_state(canon.base, amps, 2)
        kdim = canon.base.outcome_count
        vec = np.zeros(3 * kdim)
        vec[0 * kdim + 1] = 1.0 / np.sqrt(2)   # f(0,2) = 1
        vec[1 * kdim + 1] = 1.0 / np.sqrt(2)   # f(1,2) = b = 1
        np.testing.assert_allclose(rho2.matrix, np.outer(vec, vec), atol=1e-12)

    def test_block_diagonal_in_outcome_register(self):
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            f = random_two_sided(rng)
            amps = random_amplitudes(rng, f.alice_arity)
            j = int(rng.integers(f.bob_arity))
            rho = alice_reduced_state(f, amps, j)
            kdim = f.outcome_count
            for r in range(rho.dim):
                for c in range(rho.dim):
                    if r % kdim != c % kdim:
                        assert rho.matrix[r, c] == 0

    def test_outcome_marginal_matches_table_for_basis_input(self):
        rng = np.random.default_rng(SEED + 1)
        tol = active()
        for _ in range(50):
            f = random_two_sided(rng)
            i = int(rng.integers(f.alice_arity))
            j = int(rng.integers(f.bob_arity))
            amps = np.zeros(f.alice_arity)
            amps[i] = 1.0
            rho = alice_reduced_state(f, amps, j)
            marginal = qmat.partial_trace(rho, keep=[1]).matrix.diagonal().real
            expected = [float(f.prob(k, i, j)) for k in range(f.outcome_count)]
            assert np.abs(marginal - expected).max() <= tol.trace

    def test_formula_matches_purification_oracle(self):
        rng = np.random.default_rng(SEED + 2)
        tol = active()
        for trial in range(200):
            f = random_two_sided(rng)
            amps = random_amplitudes(rng, f.alice_arity)
            j = int(rng.integers(f.bob_arity))
            direct = alice_reduced_state(f, amps, j)
            oracle = purified_reduced_state(f, amps, j)
            assert direct.dims == oracle.dims
            assert np.abs(direct.matrix - oracle.matrix).max() <= tol.recon
            # the stacked builder: every slice is the one-input state, bit
            # for bit, and matches the purification route
            n = (1, 7)[trial % 2]
            rows = np.array([random_amplitudes(rng, f.alice_arity) for _ in range(n)])
            stack = alice_reduced_states(f, rows)
            assert stack.shape == (n, f.bob_arity, direct.dim, direct.dim)
            for r in range(n):
                for jj in range(f.bob_arity):
                    single = alice_reduced_state(f, rows[r], jj).matrix
                    assert np.array_equal(stack[r, jj], single)
                    oracle = purified_reduced_state(f, rows[r], jj).matrix
                    assert np.abs(stack[r, jj] - oracle).max() <= 1e-12

    def test_stack_validation_names_the_failing_row(self):
        f = builtin("counterexample")
        rng = np.random.default_rng(SEED + 5)
        rows = np.array([random_amplitudes(rng, 2) for _ in range(5)])
        assert alice_reduced_states(f, rows).shape == (5, 2, 4, 4)
        bad = rows.copy()
        bad[3] *= 1.5
        with pytest.raises(ValueError, match="row 3"):
            alice_reduced_states(f, bad)
        bad = rows.copy()
        bad[1, 0] = np.nan
        with pytest.raises(ValueError, match="row 1"):
            alice_reduced_states(f, bad)

    def test_rejects_one_sided_function(self):
        with pytest.raises(ValueError):
            alice_reduced_state(builtin("ot"), [1.0, 0.0], 0)

    def test_rejects_bad_amplitude_length(self):
        with pytest.raises(ValueError):
            alice_reduced_state(builtin("counterexample"), [1.0, 0.0, 0.0], 0)

    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ValueError):
            alice_reduced_state(builtin("counterexample"), [1.0, 1.0], 0)
        with pytest.raises(ValueError, match="norm nan"):
            amplitude_vector([np.nan, 1.0], 2)


class TestOneSidedStates:
    def test_ot_states(self):
        f = transpose(builtin("ot"))  # receiver plays the alice slot
        psi0 = alice_reduced_state_one_sided(f, 0, 0)
        psi1 = alice_reduced_state_one_sided(f, 0, 1)
        e0 = np.array([1, 0, 1]) / np.sqrt(2)
        e1 = np.array([0, 1, 1]) / np.sqrt(2)
        np.testing.assert_allclose(psi0.matrix, np.outer(e0, e0), atol=1e-12)
        np.testing.assert_allclose(psi1.matrix, np.outer(e1, e1), atol=1e-12)

    def test_deterministic_limit(self):
        f = funcspec.one_sided_binary([[1, 1], [1, 1]])
        rho = alice_reduced_state_one_sided(f, 0, 0)
        np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_outputs_are_pure(self):
        rng = np.random.default_rng(SEED + 3)
        tol = active()
        for _ in range(50):
            rows = rng.uniform(0.0, 1.0, size=(2, 2))
            f = funcspec.one_sided_binary(rows)
            i = int(rng.integers(2))
            j = int(rng.integers(2))
            rho = alice_reduced_state_one_sided(f, i, j)
            purity = float(np.trace(rho.matrix @ rho.matrix).real)
            assert abs(purity - 1.0) <= tol.recon

    def test_rejects_two_sided_function(self):
        with pytest.raises(ValueError):
            alice_reduced_state_one_sided(builtin("counterexample"), 0, 0)


class TestOutputFamily:
    def test_ot_family_for_cheating_receiver(self):
        family = output_family(builtin("ot"), 0, role="bob")
        assert len(family) == 2
        assert (family.input_dim, family.outcome_dim) == (1, 3)
        e0 = np.array([1, 0, 1]) / np.sqrt(2)
        np.testing.assert_allclose(family.states[0].matrix, np.outer(e0, e0), atol=1e-12)

    def test_two_sided_uniform_superposition_family(self):
        f = builtin("counterexample")
        family = output_family(f, uniform_superposition(2))
        assert len(family) == 2
        assert (family.input_dim, family.outcome_dim) == (2, 2)
        for j, state in enumerate(family.states):
            np.testing.assert_allclose(
                state.matrix,
                alice_reduced_state(f, uniform_superposition(2), j).matrix,
            )

    def test_role_swap_matches_transposed_table(self):
        rng = np.random.default_rng(SEED + 4)
        for _ in range(25):
            f = random_two_sided(rng)
            amps = random_amplitudes(rng, f.bob_arity)
            swapped = output_family(f, amps, role="bob")
            direct = output_family(transpose(f), amps, role="alice")
            assert len(swapped) == len(direct)
            for s, d in zip(swapped.states, direct.states):
                np.testing.assert_allclose(s.matrix, d.matrix, atol=1e-12)

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            output_family(builtin("ot"), 0, role="carol")
