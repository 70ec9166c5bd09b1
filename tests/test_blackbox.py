"""State construction: closed-form route vs full purification, one-sided
pure states, role symmetry."""

import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

from tpc import blackbox, cli, funcspec, qmat
from tpc.blackbox import StateFamily, amplitude_vector, output_family, uniform_superposition
from tpc.funcspec import builtin, canonicalize_3x3, deterministic, transpose
from tpc.tolerances import TOL_RECON, TOL_TRACE

from oracles import exact_prob, partial_trace, purified_reduced_state

SEED = 77


def random_table(rng, n=None, nb=None, kdim=None, sided="two"):
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
        sided=sided,
        alice_arity=n,
        bob_arity=nb,
        outcome_count=kdim,
        prob_table=tuple(blocks),
    )


def random_amplitudes(rng, n):
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    return a / np.linalg.norm(a)


def random_deterministic(rng, n, kdim):
    """An n x n outcome matrix over labels 0..kdim-1, declared with kdim
    outcomes whether or not every label occurs."""
    return funcspec.FunctionSpec(
        kind="deterministic",
        sided="two",
        alice_arity=n,
        bob_arity=n,
        outcome_count=kdim,
        det_table=rng.integers(kdim, size=(n, n)).tolist(),
    )


class TestTwoSidedStates:
    def test_honest_basis_input_collapses(self):
        f = builtin("neq3")
        for i in range(3):
            amps = np.zeros(3)
            amps[i] = 1.0
            for j, rho in enumerate(output_family(f, amps).states):
                expected = np.zeros((6, 6))
                expected[2 * i + f.det_table[j][i], 2 * i + f.det_table[j][i]] = 1.0
                np.testing.assert_allclose(rho, expected, atol=1e-12)

    def test_canonical_proof_states_without_cross_term(self):
        # canonical neq3 has b = 0, so the j=2 state carries no coherence
        canon = canonicalize_3x3(builtin("neq3"))
        assert (canon.a, canon.b) == (1, 0)
        amps = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        rho2 = output_family(canon.base, amps).states[2]
        kdim = canon.base.outcome_count
        expected = np.zeros((3 * kdim, 3 * kdim))
        expected[0 * kdim + 1, 0 * kdim + 1] = 0.5          # |0,1><0,1|
        expected[1 * kdim + canon.b, 1 * kdim + canon.b] = 0.5
        np.testing.assert_allclose(rho2, expected, atol=1e-12)

    def test_canonical_proof_states_with_cross_term(self):
        # a class with b = 1: the j=2 state gains the coherent cross term
        rep = deterministic(((0, 0, 0), (0, 0, 1), (0, 1, 1)))
        canon = canonicalize_3x3(rep)
        assert canon.b == 1
        amps = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        rho2 = output_family(canon.base, amps).states[2]
        kdim = canon.base.outcome_count
        vec = np.zeros(3 * kdim)
        vec[0 * kdim + 1] = 1.0 / np.sqrt(2)   # f(0,2) = 1
        vec[1 * kdim + 1] = 1.0 / np.sqrt(2)   # f(1,2) = b = 1
        np.testing.assert_allclose(rho2, np.outer(vec, vec), atol=1e-12)

    def test_block_diagonal_in_outcome_register(self):
        rng = np.random.default_rng(SEED)
        for _ in range(50):
            f = random_table(rng)
            amps = random_amplitudes(rng, f.alice_arity)
            j = int(rng.integers(f.bob_arity))
            rho = output_family(f, amps).states[j]
            kdim = f.outcome_count
            for r in range(len(rho)):
                for c in range(len(rho)):
                    if r % kdim != c % kdim:
                        assert rho[r, c] == 0

    def test_outcome_marginal_matches_table_for_basis_input(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(50):
            f = random_table(rng)
            i = int(rng.integers(f.alice_arity))
            j = int(rng.integers(f.bob_arity))
            amps = np.zeros(f.alice_arity)
            amps[i] = 1.0
            rho = output_family(f, amps).states[j]
            dims = (f.alice_arity, f.outcome_count)
            marginal = partial_trace(rho, dims, keep=[1])[0].diagonal().real
            expected = [float(exact_prob(f, k, i, j)) for k in range(f.outcome_count)]
            assert np.abs(marginal - expected).max() <= TOL_TRACE

    def test_formula_matches_purification_oracle(self):
        rng = np.random.default_rng(SEED + 2)
        for _ in range(200):
            f = random_table(rng)
            amps = random_amplitudes(rng, f.alice_arity)
            j = int(rng.integers(f.bob_arity))
            direct = output_family(f, amps).states[j]
            oracle, dims = purified_reduced_state(f, amps, j)
            assert dims == (f.alice_arity, f.outcome_count)
            assert direct.shape == oracle.shape
            assert np.abs(direct - oracle).max() <= TOL_RECON

    def test_one_row_validation_rejects_bad_amplitudes(self):
        f = builtin("counterexample")
        amps = random_amplitudes(np.random.default_rng(SEED + 5), 2)
        assert len(output_family(f, amps).states) == 2
        with pytest.raises(ValueError, match="norm 1.5 is not 1"):
            output_family(f, 1.5 * amps)
        with pytest.raises(ValueError, match="norm nan"):
            output_family(f, [np.nan, amps[1]])

    def test_rejects_one_sided_function(self):
        with pytest.raises(ValueError):
            purified_reduced_state(builtin("ot"), [1.0, 0.0], 0)

    def test_rejects_bad_amplitude_length(self):
        with pytest.raises(ValueError):
            output_family(builtin("counterexample"), [1.0, 0.0, 0.0])

    def test_rejects_unnormalized_amplitudes(self):
        with pytest.raises(ValueError):
            output_family(builtin("counterexample"), [1.0, 1.0])
        with pytest.raises(ValueError, match="norm nan"):
            amplitude_vector([np.nan, 1.0], 2)


def builder_cases():
    """(function, input, role) for every family the suite builds through the
    array builders, which check traces only.  Two-sided: the 18 classes with both cheaters, @neq3,
    seeded random 2x2 tables and seeded random complex amplitudes.
    One-sided: @ot with both cheaters and seeded random tables at every
    honest input."""
    for f in funcspec.enumerate_valid_3x3() + [builtin("neq3")]:
        yield f, uniform_superposition(3), "alice"
        yield f, uniform_superposition(3), "bob"
    rng = np.random.default_rng(SEED + 11)
    for _ in range(40):
        f = random_table(rng, n=2, nb=2, kdim=2)
        yield f, uniform_superposition(2), "alice"
        yield f, random_amplitudes(rng, 2), "bob"
    for _ in range(40):
        f = random_table(rng)
        yield f, random_amplitudes(rng, f.alice_arity), "alice"
    yield builtin("ot"), 0, "alice"
    yield builtin("ot"), 0, "bob"
    for _ in range(40):
        f = random_table(rng, sided="one")
        for i in range(f.alice_arity):
            yield f, i, "alice"


class TestBuilderPath:
    """The array builders check traces only; every state they build must
    still pass :class:`StateFamily`'s full check unchanged."""

    @staticmethod
    def built(f, amps, role):
        """The builder's states for one case, as :func:`output_family` takes
        them: a two-sided family's outcome blocks assembled dense."""
        if role == "bob":
            f = transpose(f)
        if f.sided == "two":
            return blackbox._assemble(blackbox._two_sided_families(f.probabilities(), amps))
        return blackbox._one_sided_families(f.probabilities())[amps]

    def test_states_pass_public_validator(self):
        for f, amps, role in builder_cases():
            # numpy may fuse one side of c_i * conj(c_l) and not its mirror,
            # so complex amplitudes leave a defect of an ulp or so
            limit = 0.0 if not np.any(np.imag(amps)) else 4 * np.finfo(float).eps
            states = self.built(f, amps, role)
            checked = StateFamily(states).states
            assert np.array_equal(checked, states)
            assert np.array_equal(checked, output_family(f, amps, role).states)
            assert np.abs(states - qmat.dagger(states)).max() <= limit
            assert not states.flags.writeable
            assert not checked.flags.writeable

    def test_norm_within_tolerance_still_fails_trace_check(self):
        # norm 1 + 0.9e-10 passes amplitude_vector; the trace, 1 + 1.8e-10, does not
        amps = np.full(3, (1 + 0.9e-10) / np.sqrt(3))
        amplitude_vector(amps, 3)
        with pytest.raises(ValueError) as err:
            output_family(builtin("neq3"), amps)
        assert str(err.value) == "density matrix trace 1.00000000018+0j is not 1"


def dense_scatter(p, amps):
    """Oracle for the dense two-sided states of one table ``p(k|i,j)``
    ``[k][j][i]``: each outcome's outer product added into a zero
    ``(j, i, k, i, k)`` array, in (input, outcome) register order."""
    kdim, bob, n = p.shape
    a = amplitude_vector(amps, n)
    c = (a if a.imag.any() else a.real) * np.sqrt(p)
    m = np.zeros((bob, n, kdim, n, kdim), dtype=c.dtype)
    k = np.arange(kdim)
    m[:, :, k, :, k] += c[..., :, None] * c[..., None, :].conj()
    return m.reshape(bob, n * kdim, n * kdim)


class TestStackedBuilder:
    """``blackbox._two_sided_families`` builds the outcome blocks of a stack
    of tables at once, as the 3x3 sweep does; ``output_family`` assembles
    and checks its one-table case."""

    @staticmethod
    def stacks():
        """Seeded stacks of 2x2 and 3x3 tables, probabilistic and
        deterministic mixed, each with seeded complex amplitudes."""
        rng = np.random.default_rng(SEED + 31)
        for n, kdim in ((2, 2), (2, 3), (3, 2), (3, 3), (3, 4)):
            for _ in range(3):
                tables = [random_table(rng, n=n, nb=n, kdim=kdim) for _ in range(3)]
                tables += [random_deterministic(rng, n, kdim) for _ in range(3)]
                order = rng.permutation(len(tables))
                yield [tables[k] for k in order], random_amplitudes(rng, n)

    @staticmethod
    def build(tables, amps):
        """The builder's block stack for same-shape tables, and each table's
        blocks ``(k, j, i, i)``."""
        p = np.array([f.probabilities() for f in tables])
        kdim = p.shape[1]
        blocks = blackbox._two_sided_families(p.reshape(-1, *p.shape[2:]), amps, np.arange(len(p)) * kdim)
        return blocks, blocks.reshape(len(p), kdim, *blocks.shape[1:])

    def test_stack_equals_one_table_builder_bitwise(self):
        for tables, amps in self.stacks():
            stack, families = self.build(tables, amps)
            assert not stack.flags.writeable
            for f, family in zip(tables, families, strict=True):
                assert family.tobytes() == blackbox._two_sided_families(f.probabilities(), amps).tobytes()
                single = output_family(f, amps).states
                d = f.alice_arity * f.outcome_count
                assert family.shape == (f.outcome_count, f.bob_arity, f.alice_arity, f.alice_arity)
                assert blackbox._assemble(family).shape == single.shape == (f.bob_arity, d, d)
                for stacked, alone in zip(blackbox._assemble(family), single):
                    assert stacked.astype(complex).tobytes() == alone.tobytes()
                    assert not alone.flags.writeable

    def test_output_family_equals_the_dense_scatter_bitwise(self):
        # the one dense assembly, against the outer products scattered into
        # a zero array, complex and real amplitudes, two- and three-input tables
        for tables, amps in self.stacks():
            for f in tables:
                for a in (amps, np.abs(amps)):
                    states = output_family(f, a).states
                    assert states.tobytes() == dense_scatter(f.probabilities(), a).astype(complex).tobytes()

    def test_stack_matches_purification_oracle(self):
        for tables, amps in self.stacks():
            for f, family in zip(tables, self.build(tables, amps)[1], strict=True):
                for j, state in enumerate(blackbox._assemble(family)):
                    oracle, dims = purified_reduced_state(f, amps, j)
                    assert dims == (f.alice_arity, f.outcome_count)
                    assert np.abs(state - oracle).max() <= TOL_RECON

    @pytest.mark.parametrize(
        "text, dtype",
        [("uniform", np.float64), ("1,0", np.float64), ("0.6,0.8", np.float64), ("0.6,0.8j", np.complex128)],
    )
    def test_dtype_follows_the_amplitudes(self, text, dtype):
        # float64 exactly when no amplitude (here as --superposition parses
        # it) has an imaginary part; output_family's public stack stays complex
        amps = uniform_superposition(2) if text == "uniform" else cli._parse_amplitudes(text)
        f = builtin("counterexample")
        stack = blackbox._two_sided_families(f.probabilities(), amps)
        assert stack.dtype == dtype
        public = output_family(f, amps).states
        assert public.dtype == np.complex128
        assert public.tobytes() == blackbox._assemble(stack).astype(complex).tobytes()

    def test_bad_table_in_stack_fails_its_trace_check(self):
        rng = np.random.default_rng(SEED + 32)
        amps = uniform_superposition(3)
        p = np.array([random_table(rng, n=3, nb=3, kdim=3).probabilities() for _ in range(4)])
        p[2] *= 1 + 3e-9  # every state of table 2 has trace 1 + 3e-9
        rows, starts = np.delete(p, 2, axis=0).reshape(-1, 3, 3), np.arange(3) * 3
        assert len(blackbox._two_sided_families(rows, amps, starts)) == 3 * 3
        message = f"^{re.escape('density matrix trace 1.000000003+0j is not 1')}$"
        with pytest.raises(ValueError, match=message):
            blackbox._two_sided_families(p.reshape(-1, 3, 3), amps, np.arange(4) * 3)
        with pytest.raises(ValueError, match=message):
            blackbox._two_sided_families(p[2], amps)

    def test_bad_last_block_of_the_sweep_is_named_as_dense(self):
        # the 18 classes' 50 outcome rows, the last row of the last class
        # scaled: each state's trace is the sum over its blocks, and the
        # message is the one StateFamily gives that class's dense states
        tables, _ = funcspec._class_tables()
        counts = (tables.max(axis=0) + 1).tolist()
        rows = np.concatenate(
            [(t == np.arange(c)[:, None]).reshape(c, 3, 3) * 1.0 for t, c in zip(tables.T, counts)]
        )
        starts = np.cumsum([0] + counts[:-1])
        amps = uniform_superposition(3)
        assert len(blackbox._two_sided_families(rows, amps, starts)) == 50
        rows[-1] *= 1 + 3e-9
        with pytest.raises(ValueError) as dense:
            StateFamily(dense_scatter(rows[starts[-1]:], amps))
        assert str(dense.value) == "density matrix trace 1.000000002+0j is not 1"
        with pytest.raises(ValueError, match=f"^{re.escape(str(dense.value))}$"):
            blackbox._two_sided_families(rows, amps, starts)


class TestOneSidedStates:
    def test_ot_states(self):
        f = transpose(builtin("ot"))  # receiver plays the alice slot
        psi0, psi1 = output_family(f, 0).states
        e0 = np.array([1, 0, 1]) / np.sqrt(2)
        e1 = np.array([0, 1, 1]) / np.sqrt(2)
        np.testing.assert_allclose(psi0, np.outer(e0, e0), atol=1e-12)
        np.testing.assert_allclose(psi1, np.outer(e1, e1), atol=1e-12)

    def test_deterministic_limit(self):
        f = funcspec.one_sided_binary([[1, 1], [1, 1]])
        rho = output_family(f, 0).states[0]
        np.testing.assert_allclose(rho, np.diag([1.0, 0.0]), atol=1e-12)

    def test_outputs_are_pure(self):
        rng = np.random.default_rng(SEED + 3)
        for _ in range(50):
            rows = rng.uniform(0.0, 1.0, size=(2, 2))
            f = funcspec.one_sided_binary(rows)
            i = int(rng.integers(2))
            j = int(rng.integers(2))
            rho = output_family(f, i).states[j]
            purity = float(np.trace(rho @ rho).real)
            assert abs(purity - 1.0) <= TOL_RECON

    def test_stacked_builder_equals_one_state_bitwise(self):
        # _one_sided_families against the float64 outer product of
        # sqrt(p(k|i,j)), and output_family against the stack's complex cast,
        # state by state, to the bit
        rng = np.random.default_rng(SEED + 5)
        tables = [funcspec.one_sided_binary(rng.uniform(0.0, 1.0, size=(2, 2))) for _ in range(20)]
        tables += [builtin("ot"), transpose(builtin("ot"))]  # either party as the receiver
        for f in tables:
            stack = blackbox._one_sided_families(f.probabilities())
            assert stack.shape == (f.alice_arity, f.bob_arity, f.outcome_count, f.outcome_count)
            assert stack.dtype == np.float64
            assert not stack.flags.writeable
            for i, j in itertools.product(range(f.alice_arity), range(f.bob_arity)):
                c = np.sqrt([float(f.prob_table[k][j][i]) for k in range(f.outcome_count)])
                assert stack[i, j].tobytes() == np.outer(c, c).tobytes()
                state = output_family(f, i).states[j]
                assert state.dtype == np.complex128
                assert state.tobytes() == stack[i, j].astype(complex).tobytes()

    def test_stacked_builder_checks_every_trace(self):
        p = transpose(builtin("ot")).probabilities()
        p[:, 1] *= 1 + 3e-9  # the state after partner input 1 has trace 1 + 3e-9
        message = f"^{re.escape('density matrix trace 1.000000003+0j is not 1')}$"
        with pytest.raises(ValueError, match=message):
            blackbox._one_sided_families(p)

    @pytest.mark.parametrize("i", [-1, 2, 5])
    def test_rejects_honest_input_out_of_range(self, i):
        f = funcspec.one_sided_binary([[0.5, 0.2], [0.3, 0.9]])
        assert len(output_family(f, 1).states) == 2
        with pytest.raises(ValueError, match=re.escape(f"honest input {i} out of range [0, 2)")):
            output_family(f, i)


class TestOutputFamily:
    def test_ot_family_for_cheating_receiver(self):
        family = output_family(builtin("ot"), 0, role="bob")
        assert family.states.shape == (2, 3, 3)
        e0 = np.array([1, 0, 1]) / np.sqrt(2)
        np.testing.assert_allclose(family.states[0], np.outer(e0, e0), atol=1e-12)

    def test_two_sided_uniform_superposition_family(self):
        f = builtin("counterexample")
        family = output_family(f, uniform_superposition(2))
        assert family.states.shape == (2, 4, 4)
        for j, state in enumerate(family.states):
            oracle, dims = purified_reduced_state(f, uniform_superposition(2), j)
            assert dims == (2, 2)
            np.testing.assert_allclose(state, oracle, atol=1e-12)

    def test_role_swap_matches_transposed_table(self):
        rng = np.random.default_rng(SEED + 4)
        for _ in range(25):
            f = random_table(rng)
            amps = random_amplitudes(rng, f.bob_arity)
            swapped = output_family(f, amps, role="bob")
            direct = output_family(transpose(f), amps, role="alice")
            assert len(swapped.states) == len(direct.states)
            for s, d in zip(swapped.states, direct.states):
                np.testing.assert_allclose(s, d, atol=1e-12)

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            output_family(builtin("ot"), 0, role="carol")
