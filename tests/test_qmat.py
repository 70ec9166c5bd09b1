"""Linear-algebra core: density states, partial trace, inverse square root."""

import numpy as np
import pytest

from tpc import qmat
from tpc.tolerances import active

from oracles import partial_trace, pure_state

SEED = 20250801


def random_density(rng, dims):
    n = int(np.prod(dims))
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = g @ g.conj().T
    return qmat.DensityState(m / np.trace(m).real, tuple(dims))


class TestPartialTrace:
    def test_product_state_factorizes(self):
        rng = np.random.default_rng(SEED)
        rho_a = random_density(rng, (2,))
        rho_b = random_density(rng, (3,))
        joint = qmat.DensityState(np.kron(rho_a.matrix, rho_b.matrix), (2, 3))
        np.testing.assert_allclose(
            partial_trace(joint, keep=[0]).matrix, rho_a.matrix, atol=1e-12
        )
        np.testing.assert_allclose(
            partial_trace(joint, keep=[1]).matrix, rho_b.matrix, atol=1e-12
        )

    def test_bell_state_reduces_to_maximally_mixed(self):
        bell = pure_state(np.array([1, 0, 0, 1]) / np.sqrt(2), (2, 2))
        reduced = partial_trace(bell, keep=[0])
        np.testing.assert_allclose(reduced.matrix, np.eye(2) / 2, atol=1e-12)

    def test_ot_box_output_reduces_to_pure_state(self):
        # One-sided box on sender bit 0: the receiver's outcome register holds
        # (|0> + |?>)/sqrt(2) once the other registers are traced out.
        psi = np.array([1, 0, 1]) / np.sqrt(2)
        sender = np.array([1, 0])
        receiver_input = np.array([1])
        full = pure_state(
            np.kron(np.kron(sender, receiver_input), psi), (2, 1, 3)
        )
        reduced = partial_trace(full, keep=[2])
        np.testing.assert_allclose(reduced.matrix, np.outer(psi, psi), atol=1e-12)
        assert np.trace(reduced.matrix @ reduced.matrix).real == pytest.approx(1.0)

    def test_full_keep_returns_same_state(self):
        rng = np.random.default_rng(SEED)
        rho = random_density(rng, (2, 2))
        np.testing.assert_allclose(
            partial_trace(rho, keep=[0, 1]).matrix, rho.matrix
        )

    def test_invalid_subsystem_rejected(self):
        rng = np.random.default_rng(SEED)
        rho = random_density(rng, (2, 2))
        with pytest.raises(ValueError):
            partial_trace(rho, keep=[2])
        with pytest.raises(ValueError):
            partial_trace(rho, keep=[])

    def test_trace_and_hermiticity_preserved(self):
        rng = np.random.default_rng(SEED)
        tol = active()
        for _ in range(200):
            dims = tuple(rng.integers(2, 4, size=rng.integers(2, 4)))
            rho = random_density(rng, dims)
            keep = sorted(
                rng.choice(len(dims), size=rng.integers(1, len(dims) + 1), replace=False)
            )
            reduced = partial_trace(rho, keep=keep)
            assert abs(np.trace(reduced.matrix) - 1.0) <= tol.trace
            assert qmat.hermiticity_defect(reduced.matrix) <= tol.herm

    def test_tensor_then_trace_roundtrip(self):
        rng = np.random.default_rng(SEED + 1)
        tol = active()
        for _ in range(200):
            rho_a = random_density(rng, (2,))
            rho_b = random_density(rng, (3,))
            joint = qmat.DensityState(np.kron(rho_a.matrix, rho_b.matrix), (2, 3))
            back_a = partial_trace(joint, keep=[0]).matrix
            back_b = partial_trace(joint, keep=[1]).matrix
            assert np.abs(back_a - rho_a.matrix).max() <= tol.recon
            assert np.abs(back_b - rho_b.matrix).max() <= tol.recon


class TestInvSqrtOnSupport:
    def test_identity(self):
        np.testing.assert_allclose(qmat.inv_sqrt_on_support(np.eye(3)), np.eye(3))

    def test_rank_deficient_diagonal(self):
        out = qmat.inv_sqrt_on_support(np.diag([4.0, 0.0]))
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]))

    def test_projector_identity_oracle(self):
        rng = np.random.default_rng(SEED)
        tol = active()
        for _ in range(200):
            n = int(rng.integers(2, 7))
            rank = int(rng.integers(1, n + 1))
            g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
            m = g @ g.conj().T
            root = qmat.inv_sqrt_on_support(m)
            w, v = np.linalg.eigh(m)
            support = (v[:, w > tol.rank * w[-1]] @ v[:, w > tol.rank * w[-1]].conj().T)
            assert np.abs(root @ m @ root - support).max() <= tol.recon
            # double application composed with m is the same projector
            assert np.abs(root @ root @ m - support).max() <= tol.recon

    def test_negative_matrix_rejected(self):
        with pytest.raises(ValueError):
            qmat.inv_sqrt_on_support(np.diag([1.0, -1.0]))

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            qmat.inv_sqrt_on_support(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_equals_each_matrix_alone(self):
        # rank 3 of 5 at scales 1e-6 .. 1e6: each matrix keeps its own support
        rng = np.random.default_rng(SEED + 1)
        g = rng.normal(size=(7, 5, 3)) + 1j * rng.normal(size=(7, 5, 3))
        stack = (g @ g.conj().swapaxes(-1, -2)) * np.logspace(-6, 6, 7)[:, None, None]
        stack = (stack + qmat.dagger(stack)) / 2
        roots = qmat._inv_sqrt(stack)
        for m, root in zip(stack, roots):
            assert np.array_equal(root, qmat.inv_sqrt_on_support(m))
            assert np.linalg.matrix_rank(root, tol=1e-3 * np.abs(root).max()) == 3

    def test_stack_checks_every_matrix(self):
        stack = np.array([np.eye(2), np.diag([1.0, -0.5]), np.eye(2)])
        with pytest.raises(ValueError, match="negative eigenvalue -0.5 beyond tolerance"):
            qmat._inv_sqrt(stack)


class TestDensityState:
    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            qmat.DensityState(np.eye(2), (2,))

    def test_rejects_non_hermitian(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError):
            qmat.DensityState(m, (2,))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            qmat.DensityState(np.diag([1.5, -0.5]), (2,))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            qmat.DensityState(np.eye(4) / 4, (2, 3))

    def test_matrix_is_frozen(self):
        rho = pure_state([1.0, 0.0])
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.0

    def test_pure_state_requires_unit_norm(self):
        with pytest.raises(ValueError):
            pure_state([1.0, 1.0])
        with pytest.raises(ValueError, match="amplitude vector norm nan is not 1"):
            pure_state([np.nan, 0.0])
