"""Linear-algebra core: the one state check, partial trace, inverse square root."""

import re

import numpy as np
import pytest

from tpc import qmat
from tpc.blackbox import StateFamily
from tpc.tolerances import RANK_TOL, TOL_HERM, TOL_PSD, TOL_RECON, TOL_TRACE

from oracles import partial_trace, pretty_good_povm, pure_state

SEED = 20250801


def random_density(rng, dims):
    n = int(np.prod(dims))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(SEED)
        rho_a = random_density(rng, (2,))
        rho_b = random_density(rng, (3,))
        joint = np.kron(rho_a, rho_b)
        np.testing.assert_allclose(partial_trace(joint, (2, 3), keep=[0])[0], rho_a, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, (2, 3), keep=[1])[0], rho_b, atol=1e-12)

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2))
        reduced, dims = partial_trace(bell, (2, 2), keep=[0])
        np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)
        assert dims == (2,)

    def test_ot_box_output_reduces_to_pure_state(self):
        # One-sided box on sender bit 0: the receiver's outcome register holds
        # (|0> + |?>)/sqrt(2) once the other registers are traced out.
        psi = np.array([1, 0, 1]) / np.sqrt(2)
        sender = np.array([1, 0])
        receiver_input = np.array([1])
        full = pure_state(np.kron(np.kron(sender, receiver_input), psi))
        reduced, dims = partial_trace(full, (2, 1, 3), keep=[2])
        np.testing.assert_allclose(reduced, np.outer(psi, psi), atol=1e-12)
        assert np.trace(reduced @ reduced).real == pytest.approx(1.0)
        assert dims == (3,)

    def test_full_keep_returns_same_state(self):
        rng = np.random.default_rng(SEED)
        rho = random_density(rng, (2, 2))
        reduced, dims = partial_trace(rho, (2, 2), keep=[0, 1])
        np.testing.assert_allclose(reduced, rho)
        assert dims == (2, 2)

    def test_invalid_subsystem_rejected(self):
        rng = np.random.default_rng(SEED)
        rho = random_density(rng, (2, 2))
        with pytest.raises(ValueError):
            partial_trace(rho, (2, 2), keep=[2])
        with pytest.raises(ValueError):
            partial_trace(rho, (2, 2), keep=[])
        with pytest.raises(ValueError, match="do not multiply to matrix size 4"):
            partial_trace(rho, (2, 3), keep=[0])

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(SEED)
        for _ in range(200):
            dims = tuple(rng.integers(2, 4, size=rng.integers(2, 4)))
            rho = random_density(rng, dims)
            keep = sorted(
                rng.choice(len(dims), size=rng.integers(1, len(dims) + 1), replace=False)
            )
            reduced, _ = partial_trace(rho, dims, keep=keep)
            assert abs(np.trace(reduced) - 1.0) <= TOL_TRACE
            assert np.abs(reduced - qmat.dagger(reduced)).max() <= TOL_HERM
            StateFamily((reduced,))  # and passes the full state check

    def test_tensor_then_trace_roundtrip(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(200):
            rho_a = random_density(rng, (2,))
            rho_b = random_density(rng, (3,))
            joint = StateFamily((np.kron(rho_a, rho_b),)).states[0]
            back_a = partial_trace(joint, (2, 3), keep=[0])[0]
            back_b = partial_trace(joint, (2, 3), keep=[1])[0]
            assert np.abs(back_a - rho_a).max() <= TOL_RECON
            assert np.abs(back_b - rho_b).max() <= TOL_RECON


class TestInvSqrtOnSupport:
    """``qmat._inv_sqrt``, on one matrix ``(d, d)`` or a stack."""

    def test_identity(self):
        np.testing.assert_allclose(qmat._inv_sqrt(np.eye(3), qmat.ONE_FAMILY), np.eye(3))

    def test_rank_deficient_diagonal(self):
        out = qmat._inv_sqrt(np.diag([4.0, 0.0]), qmat.ONE_FAMILY)
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]))

    def test_projector_identity_oracle(self):
        rng = np.random.default_rng(SEED)
        for _ in range(200):
            n = int(rng.integers(2, 7))
            rank = int(rng.integers(1, n + 1))
            g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
            m = g @ g.conj().T
            root = qmat._inv_sqrt(m, qmat.ONE_FAMILY)
            w, v = np.linalg.eigh(m)
            support = (v[:, w > RANK_TOL * w[-1]] @ v[:, w > RANK_TOL * w[-1]].conj().T)
            assert np.abs(root @ m @ root - support).max() <= TOL_RECON
            # double application composed with m is the same projector
            assert np.abs(root @ root @ m - support).max() <= TOL_RECON

    def test_negative_matrix_rejected(self):
        with pytest.raises(ValueError):
            qmat._inv_sqrt(np.diag([1.0, -1.0]), qmat.ONE_FAMILY)

    def test_non_hermitian_rejected(self):
        # the inverse root trusts its callers; a non-Hermitian matrix is
        # stopped at the family boundary before the pretty-good measurement
        # takes the root of the states' sum
        m = np.array([[0.5, 1.0], [0.0, 0.5]])
        with pytest.raises(ValueError, match="not Hermitian"):
            pretty_good_povm((m, np.eye(2) / 2), (0.5, 0.5))

    def test_stack_equals_each_matrix_alone(self):
        # rank 3 of 5 at scales 1e-6 .. 1e6: each matrix keeps its own support
        rng = np.random.default_rng(SEED + 1)
        g = rng.normal(size=(7, 5, 3)) + 1j * rng.normal(size=(7, 5, 3))
        stack = (g @ g.conj().swapaxes(-1, -2)) * np.logspace(-6, 6, 7)[:, None, None]
        stack = (stack + qmat.dagger(stack)) / 2
        roots = qmat._inv_sqrt(stack, np.arange(len(stack)))
        for m, root in zip(stack, roots):
            assert np.array_equal(root, qmat._inv_sqrt(m, qmat.ONE_FAMILY))
            assert np.linalg.matrix_rank(root, tol=1e-3 * np.abs(root).max()) == 3

    def test_stack_checks_every_matrix(self):
        stack = np.array([np.eye(2), np.diag([1.0, -0.5]), np.eye(2)])
        with pytest.raises(ValueError, match="negative eigenvalue -0.5 beyond tolerance"):
            qmat._inv_sqrt(stack, np.arange(len(stack)))


class TestDensityState:
    """The density-matrix checks, run once per family by
    :class:`StateFamily`'s constructor."""

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            StateFamily((np.eye(2),))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError):
            StateFamily((m,))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            StateFamily((np.diag([1.5, -0.5]),))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            StateFamily((np.eye(4) / 4, np.eye(3) / 3))

    def test_matrix_is_frozen(self):
        family = StateFamily((pure_state([1.0, 0.0]),))
        with pytest.raises(ValueError):
            family.states[0][0, 0] = 0.0

    def test_pure_state_requires_unit_norm(self):
        with pytest.raises(ValueError):
            pure_state([1.0, 1.0])
        with pytest.raises(ValueError, match="amplitude vector norm nan is not 1"):
            pure_state([np.nan, 0.0])


def good_states(count=4):
    """``count`` valid 2x2 states: diagonal, mixed with a coherence, and pure."""
    plus = pure_state(np.array([1.0, 1.0j]) / np.sqrt(2))
    return [np.diag([0.7, 0.3]), np.array([[0.5, 0.2], [0.2, 0.5]]), plus, np.eye(2) / 2][:count]


class TestStateFamily:
    """Every check runs on the whole stack, so a defect in the last state of
    a family is found with the message it always had."""

    @pytest.mark.parametrize(
        "last, message",
        [
            (np.array([[np.nan, 0.0], [0.0, 1.0]]), "matrix contains non-finite entries"),
            (np.array([[0.5, 0.5], [0.0, 0.5]]), "density matrix not Hermitian (defect 0.5)"),
            (np.diag([0.6, 0.6]), "density matrix trace 1.2+0j is not 1"),
            (np.diag([1.5, -0.5]), "density matrix has negative eigenvalue -0.5"),
            (np.eye(3) / 3, "family states have inconsistent dimensions {2, 3}"),
            (np.ones((2, 3)) / 2, "density matrix must be square, got (2, 3)"),
            (np.ones(2) / 2, "density matrix must be square, got (2,)"),
        ],
        ids=["non-finite", "non-hermitian", "trace", "negative", "ragged", "non-square", "vector"],
    )
    def test_rejects_defect_in_last_state(self, last, message):
        StateFamily(good_states())
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            StateFamily(good_states() + [last])

    def test_rejects_empty_family(self):
        with pytest.raises(ValueError, match="non-empty"):
            StateFamily(())

    def test_stack_is_a_read_only_complex_copy(self):
        stack = np.array(good_states())
        family = StateFamily(stack)
        assert family.states.dtype == np.complex128
        assert family.states.shape == (4, 2, 2)
        assert np.array_equal(family.states, stack)
        assert not family.states.flags.writeable
        assert stack.flags.writeable  # the caller's array is left alone
        assert StateFamily(stack) != family  # families compare by identity

    def test_tolerances_bound_each_check(self):
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = 0.5 * TOL_HERM  # a defect within tolerance passes
        StateFamily(good_states() + [m])
        StateFamily(good_states() + [np.diag([1.0 + 0.5 * TOL_PSD, -0.5 * TOL_PSD])])
