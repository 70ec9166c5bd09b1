"""Attack pipelines and report packaging."""

import dataclasses
import itertools
import math
import re
import statistics
from fractions import Fraction

import numpy as np
import pytest

from tpc import attacks, blackbox, cli, discrim, funcspec
from tpc.attacks import (
    DEFAULT_Q0_SWEEP,
    attack_deterministic_3x3,
    attack_nondet_one_sided,
    attack_nondet_two_sided,
    sweep_all_3x3,
    verify_counterexample,
)
from tpc.funcspec import builtin, one_sided_binary, two_sided_binary
from tpc.tolerances import ADV_MIN

from oracles import (
    canonical_forms,
    conditions_ok_flat,
    count_kernels,
    dense_search,
    fraction_basis_rate,
    fraction_slope_bound,
    loop_honest_probability,
    mp_pretty_good_success,
    normalized_flat_tables,
    pretty_good_povm,
    pure_state_helstrom,
)

SEED = 8091


def attack_ot(q0=0.5):
    """``@ot``'s attack as the command line runs it: the one-sided attack on
    the table seen from the receiver, whose Bob guesses the sender's bit."""
    return attack_nondet_one_sided(funcspec.transpose(builtin("ot")), q0)


def det3x3_candidates(tables, **kwargs):
    """``attacks._det3x3_candidates`` on 3x3 function specs, whose labels
    it takes as one array and canonical bases as one 9-tuple each, as
    ``attack_deterministic_3x3`` does: the columns ``(states, starts,
    priors, p_honest, ids, inputs, notes)`` that ``attacks._measure`` takes."""
    labels = [funcspec._labels_3x3(f) for f in tables]
    bases = [funcspec._canonical_form(t)[0] for t in labels]
    return attacks._det3x3_candidates(np.array(labels).T, bases, **kwargs)


def family_columns(candidates):
    """The candidate columns of ``attacks._measure`` split into one row per
    family: its state blocks, then its prior row, ``p_honest``, id, input
    and notes."""
    states, starts, priors, *per_family = candidates
    bounds = starts.tolist() + [len(states)]
    blocks = [states[start:end] for start, end in zip(bounds, bounds[1:])]
    return list(zip(blocks, priors.tolist(), *per_family))


def joined_columns(families):
    """:func:`family_columns` rows joined back into the columns of one
    ``attacks._measure`` call."""
    blocks, priors, *per_family = zip(*families)
    starts = np.cumsum([0] + [len(b) for b in blocks[:-1]])
    return (np.concatenate(blocks), starts, np.array(priors), *map(list, per_family))


def random_two_input_table(rng, n, kdim):
    """A random two-sided table with ``n`` Alice inputs, two Bob inputs and
    ``kdim`` outcomes, every entry a positive rational."""
    raw = rng.integers(1, 9, size=(kdim, 2, n))
    totals = raw.sum(axis=0)
    blocks = tuple(
        tuple(
            tuple(Fraction(int(raw[k, j, i]), int(totals[j, i])) for i in range(n))
            for j in range(2)
        )
        for k in range(kdim)
    )
    return funcspec.FunctionSpec(
        kind="probabilistic",
        sided="two",
        alice_arity=n,
        bob_arity=2,
        outcome_count=kdim,
        prob_table=blocks,
    )


def closed_form_value(f, q0, u):
    """Helstrom value ``(1 + sum_k sqrt(S_k^2 - 4 q0 q1 I_k^2)) / 2`` of the
    two states after an input with weights ``u_i = |a_i|^2`` (last axis)."""
    q1 = 1.0 - q0
    p = np.array(
        [
            [[float(f.prob_table[k][j][i]) for j in range(2)] for i in range(f.alice_arity)]
            for k in range(f.outcome_count)
        ]
    )
    s = u @ (q0 * p[..., 0] + q1 * p[..., 1]).T
    g = u @ np.sqrt(p[..., 0] * p[..., 1]).T
    return 0.5 * (1.0 + np.sqrt(s**2 - 4.0 * q0 * q1 * g**2).sum(axis=-1))


def spectral_values(f, q0, amplitude_rows):
    """``discrim._helstrom_stack``'s Helstrom value of the built states'
    outcome blocks, one value per input row."""
    blocks = np.concatenate(
        [blackbox._two_sided_families(f.probabilities(), a) for a in amplitude_rows]
    )
    starts = np.arange(len(amplitude_rows)) * f.outcome_count
    return discrim._helstrom_stack(blocks, starts, np.array([[q0, 1.0 - q0]] * len(blocks)))[1]


def exact_fields(report):
    """Every field of a report, with each float as its exact bit pattern."""

    def exact(x):
        if isinstance(x, float):
            return x.hex()
        if isinstance(x, complex):
            return x.real.hex(), x.imag.hex()
        if isinstance(x, tuple):
            return tuple(exact(y) for y in x)
        return x

    return {f.name: exact(getattr(report, f.name)) for f in dataclasses.fields(report)}


class TestDeterministic3x3:
    def test_neq3_frozen_regression_values(self):
        report = attack_deterministic_3x3(builtin("neq3"))
        assert report.function_id == "det3x3:010001100"
        assert report.p_honest == pytest.approx(2 / 3, abs=1e-12)
        assert report.p_attack == pytest.approx(25 / 27, abs=1e-9)
        assert report.advantage > 0

    def test_degenerate_function_rejected(self):
        degenerate = funcspec.deterministic(((0, 0, 1), (0, 0, 1), (1, 1, 0)))
        with pytest.raises(ValueError):
            attack_deterministic_3x3(degenerate)

    def test_report_is_deterministic(self):
        first = attack_deterministic_3x3(builtin("neq3"))
        second = attack_deterministic_3x3(builtin("neq3"))
        assert first == second

    def test_optimize_flag_adds_note(self):
        report = attack_deterministic_3x3(builtin("neq3"), optimize=True)
        assert "fixed-point optimum" in report.notes

    def test_optimize_seeds_the_search_from_the_checked_stack(self, monkeypatch):
        # the pretty-good elements are checked once, with their stack; after
        # that only the search's iterates are checked, all in one stack
        checks, sweeps = [], []
        check, search = discrim._check_povm_stack, discrim._fixed_point

        def counted_check(stack, starts):
            checks.append(stack.shape)
            return check(stack, starts)

        def counted_search(*args, **kwargs):
            result = search(*args, **kwargs)
            sweeps.append(result.iterations)
            return result

        monkeypatch.setattr(discrim, "_check_povm_stack", counted_check)
        monkeypatch.setattr(discrim, "_fixed_point", counted_search)
        attack_deterministic_3x3(builtin("neq3"), optimize=True)
        assert len(sweeps) == 1 and sweeps[0] >= 1
        # neq3 has two outcomes: two 3x3 blocks per state and per iterate
        assert checks == [(2, 3, 3, 3), (2 * sweeps[0], 3, 3, 3)]

    def test_invariant_advantage_definition(self):
        report = attack_deterministic_3x3(builtin("neq3"))
        assert report.advantage == pytest.approx(
            report.p_attack - report.p_honest, abs=1e-15
        )

    @pytest.mark.parametrize(
        "kwargs",
        [{"prior": (0.5, 0.3, 0.2)}, {"superposition": (0.8, 0.6, 0.0)}],
        ids=["prior", "superposition"],
    )
    def test_caller_labelling_is_honoured(self, kwargs):
        # prior and amplitudes index the rows and columns of the table as given
        prior = kwargs.get("prior", funcspec.uniform_prior(3))
        amps = kwargs.get("superposition", blackbox.uniform_superposition(3))
        wrong = []
        for f in funcspec.enumerate_valid_3x3():
            for rows in itertools.permutations(range(3)):
                for cols in itertools.permutations(range(3)):
                    g = funcspec.deterministic(
                        [[f.det_table[r][c] for c in cols] for r in rows]
                    )
                    report = attack_deterministic_3x3(g, **kwargs)
                    family = blackbox.output_family(g, amps)
                    povm = pretty_good_povm(family, prior)
                    p_attack = discrim.povm_success(family, prior, povm)
                    p_honest = loop_honest_probability(g, prior)
                    if (
                        abs(report.p_attack - p_attack) > 1e-12
                        or abs(report.p_honest - p_honest) > 1e-12
                    ):
                        wrong.append(g.det_table)
        assert not wrong, f"{len(wrong)} of 648 relabelings attacked in the wrong labelling"


class TestNondetTwoSided:
    def test_exception_table_short_circuits(self):
        report = attack_nondet_two_sided(two_sided_binary([["1/4", "1/4"], ["3/4", "3/4"]]))
        assert report.advantage == 0.0
        assert "effectively one-input" in report.notes
        other = attack_nondet_two_sided(two_sided_binary([["1/4", "3/4"], ["1/4", "3/4"]]))
        assert other.advantage == 0.0

    def test_half_half_zero_one_gains_at_sweep_point(self):
        report = attack_nondet_two_sided(two_sided_binary([["1/2", "1/2"], [0, 1]]))
        assert report.advantage > 1e-10
        assert report.prior[0] in DEFAULT_Q0_SWEEP

    def test_closed_form_cross_check_on_random_tables(self):
        rng = np.random.default_rng(SEED)
        for _ in range(500):
            rows = rng.uniform(0, 1, size=(2, 2))
            f = two_sided_binary(rows)
            q0 = float(rng.uniform(0, 1))
            ev = discrim._weighted_difference(f.probabilities(), q0)
            closed = 0.5 * (1 + ev.lam_plus - ev.lam_minus + ev.mu_plus - ev.mu_minus)
            family = blackbox.output_family(f, blackbox.uniform_superposition(2))
            spectral = discrim.helstrom(family.states[0], family.states[1], q0)
            assert abs(closed - spectral.success_probability) <= 1e-10

    def test_wrong_arity_rejected(self):
        with pytest.raises(ValueError):
            attack_nondet_two_sided(builtin("ot"))

    def test_user_sweep_values_are_used(self):
        f = builtin("counterexample")
        report = attack_nondet_two_sided(f, q0_sweep=(0.5,))
        assert report.prior == (0.5, 0.5)
        assert report.advantage < 0  # balanced-prior attack loses here

    def test_stacked_baselines_equal_one_prior_at_a_time(self, monkeypatch):
        # the sweep's honest baselines, from one pass over its prior rows, are
        # the per-prior baselines bit for bit, on seeded tables and sweeps
        measure, measured = attacks._measure, []

        def spy(*args, **kwargs):
            measured.append(args[4])  # p_honest, one per family
            return measure(*args, **kwargs)

        monkeypatch.setattr(attacks, "_measure", spy)
        rng = np.random.default_rng(SEED + 2)
        for n in range(40):
            nums, dens = rng.integers(0, 13, (2, 2)).tolist(), rng.integers(13, 30, (2, 2)).tolist()
            f = two_sided_binary([[Fraction(a, b) for a, b in zip(*row)] for row in zip(nums, dens)])
            sweep = [0.0, 1.0, *rng.uniform(0, 1, n % 5).tolist()]
            measured.clear()
            report = attack_nondet_two_sided(f, q0_sweep=sweep)
            p = f.probabilities()
            loop = [float(discrim._honest(p, funcspec.validate_prior((q0, 1.0 - q0), 2))) for q0 in sweep]
            assert measured == [loop]
            assert report.p_honest == loop[sweep.index(report.prior[0])]


class TestNondetOneSided:
    def test_deterministic_entries_give_zero_advantage(self):
        f = one_sided_binary([[1, 0], [0, 1]])
        report = attack_nondet_one_sided(f, 0.37)
        assert abs(report.advantage) <= 1e-10

    def test_variable_bias_coin_toss_generic_prior(self):
        f = one_sided_binary([[0.6, 0.6], [0.4, 0.4]])
        for q0 in (0.3, 0.55, 0.7):
            report = attack_nondet_one_sided(f, q0)
            assert report.advantage > 1e-10

    def test_orthogonal_branch_has_no_gain(self):
        # p(0|1,0) = 0 and p(0|1,1) = 1: input 1 already separates perfectly
        f = one_sided_binary([[0.5, 0.0], [0.5, 1.0]])
        for q0 in (0.2, 0.5, 0.8):
            family = blackbox.output_family(f, 1)
            optimal = discrim.helstrom(family.states[0], family.states[1], q0)
            q = funcspec.validate_prior((q0, 1 - q0), 2)
            basis = float(discrim._basis_rates(f.probabilities(), q)[1])
            assert optimal.success_probability == pytest.approx(basis, abs=1e-12)

    def test_attack_never_below_honest(self):
        rng = np.random.default_rng(SEED + 1)
        for _ in range(100):
            rows = rng.uniform(0, 1, size=(2, 2))
            f = one_sided_binary(rows)
            q0 = float(rng.uniform(0, 1))
            report = attack_nondet_one_sided(f, q0)
            assert report.advantage >= -1e-12

    def test_wrong_sidedness_rejected(self):
        with pytest.raises(ValueError):
            attack_nondet_one_sided(builtin("counterexample"), 0.5)

    def test_one_partner_input_rejected(self):
        # @ot as stored: its Bob has one input, so there is nothing to guess
        with pytest.raises(ValueError, match="two partner inputs"):
            attack_nondet_one_sided(builtin("ot"), 0.5)

    @pytest.mark.parametrize("q0", [0.15, 0.3, 0.5, 0.9])
    def test_many_outcome_tables_match_the_pure_state_oracle(self, q0):
        # seeded tables of 3 and 4 outcomes and 1 to 3 honest inputs, some
        # entries 0: the attack is the pure-state Helstrom optimum, the
        # honest baseline the exact basis rate
        rng = np.random.default_rng(SEED + 31)
        for _ in range(300):
            outcomes, inputs = int(rng.integers(3, 5)), int(rng.integers(1, 4))
            weights = rng.integers(0, 6, (outcomes, 2, inputs))  # [k, j, i]
            weights[0] += weights.sum(axis=0) == 0  # every (i, j) gets a positive total
            totals = weights.sum(axis=0).tolist()
            table = tuple(
                tuple(tuple(map(Fraction, row, den)) for row, den in zip(block, totals))
                for block in weights.tolist()
            )
            f = funcspec.FunctionSpec("probabilistic", "one", inputs, 2, outcomes, prob_table=table)
            report = attack_nondet_one_sided(f, q0)
            assert abs(report.p_attack - pure_state_helstrom(f, q0)) <= 1e-12
            assert abs(report.p_honest - float(fraction_basis_rate(f, q0))) <= 1e-12
            assert report.certified
            assert "basis_measurement_optimal" not in report.notes


class TestObliviousTransfer:
    def test_honest_is_exactly_three_quarters(self):
        assert attack_ot().p_honest == 0.75

    def test_attack_value(self):
        report = attack_ot()
        assert report.p_attack == pytest.approx(0.5 + math.sqrt(3) / 4, abs=1e-10)

    def test_explicit_matrix_certifies(self):
        report = attack_ot()
        assert report.certified
        # the closed-form measurement certifies on the receiver's states
        family = blackbox.output_family(builtin("ot"), 0, role="bob")
        ok, _ = discrim.certify_optimal(family, report.prior, attacks.ot_explicit_povm())
        assert ok


class TestCounterexample:
    def test_grid_maximum_within_threshold(self):
        report = verify_counterexample()
        assert report.advantage <= ADV_MIN
        assert report.certified

    def test_uniform_superposition_loses(self):
        f = builtin("counterexample")
        family = blackbox.output_family(f, blackbox.uniform_superposition(2))
        p_c = discrim.helstrom(family.states[0], family.states[1], 0.5).success_probability
        assert p_c <= loop_honest_probability(f, (0.5, 0.5))

    def test_honest_basis_input_matches_honest_probability(self):
        f = builtin("counterexample")
        family = blackbox.output_family(f, (1.0, 0.0))
        p_c = discrim.helstrom(family.states[0], family.states[1], 0.5).success_probability
        assert p_c == pytest.approx(loop_honest_probability(f, (0.5, 0.5)), abs=1e-12)

    def test_headline_values_frozen(self):
        report = verify_counterexample()
        assert report.p_attack == 0.7877777777777778
        assert report.advantage == 1.1102230246251565e-16
        assert report.input_used == ((1 + 0j), 0j)
        assert tuple(report.residuals) == (0.0, 0.0, 0.0)
        assert report.notes == (
            "exact certificate: value concave in (|a0|^2, |a1|^2), trace-norm slope"
            " from |0> toward |1> <= -0.24386111323611315;"
            " no superposition, real or complex, helps"
        )

    def test_input_phases_act_as_one_shared_unitary(self):
        # phases on the input amplitudes rotate every state of the family by
        # the same diagonal unitary, so no phase can change the Helstrom score
        f = builtin("counterexample")
        rng = np.random.default_rng(SEED + 3)
        thetas = rng.uniform(0.0, math.pi, size=200)
        phis = rng.uniform(0.0, 2.0 * math.pi, size=(200, 2))
        real = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        phased = real * np.exp(1j * phis)
        for a, b, phi in zip(real, phased, phis):
            u = np.kron(np.diag(np.exp(1j * phi)), np.eye(f.outcome_count))
            real_states = blackbox.output_family(f, a).states
            phased_states = blackbox.output_family(f, b).states
            for rho, sigma in zip(real_states, phased_states):
                assert np.abs(sigma - u @ rho @ u.conj().T).max() <= 1e-12
        gap = np.abs(spectral_values(f, 0.5, phased) - spectral_values(f, 0.5, real))
        assert gap.max() <= 1e-12


class TestCounterexampleCertificate:
    """The closed form behind :func:`attacks._endpoint_slope_bound`, checked
    against the spectral score, and the certificate's refusal path."""

    def test_closed_form_matches_spectral_score_on_grid(self):
        f = builtin("counterexample")
        thetas = np.linspace(0.0, math.pi, 2001)
        amps = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        gap = np.abs(closed_form_value(f, 0.5, amps**2) - spectral_values(f, 0.5, amps))
        assert gap.max() <= 1e-14

    def test_closed_form_matches_spectral_score_on_random_tables(self):
        rng = np.random.default_rng(SEED + 4)
        for _ in range(300):
            n = int(rng.integers(2, 4))
            f = random_two_input_table(rng, n, int(rng.integers(2, 4)))
            q0 = float(rng.uniform(0.0, 1.0))
            a = rng.normal(size=(4, n)) + 1j * rng.normal(size=(4, n))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            gap = np.abs(closed_form_value(f, q0, np.abs(a) ** 2) - spectral_values(f, q0, a))
            assert gap.max() <= 1e-14

    def test_value_is_concave_along_simplex_segments(self):
        rng = np.random.default_rng(SEED + 5)
        t = np.linspace(0.0, 1.0, 21)[:, None]
        for _ in range(300):
            n = int(rng.integers(2, 4))
            f = random_two_input_table(rng, n, int(rng.integers(2, 4)))
            q0 = float(rng.uniform(0.05, 0.95))
            ua, ub = rng.dirichlet(np.ones(n), size=2)
            v = closed_form_value(f, q0, (1.0 - t) * ua + t * ub)
            assert (v[:-2] - 2.0 * v[1:-1] + v[2:]).max() <= 0.0

    def test_slope_bound_matches_finite_difference(self):
        # second-order forward difference of the spectral score along
        # u = (1 - t, t); tables with some |A_k| < 0.01 are skipped, because
        # the curvature grows as |A_k| shrinks and spoils the quotient
        rng = np.random.default_rng(SEED + 6)
        h = 1e-6
        steps = np.array([0.0, h, 2.0 * h])
        amps = np.stack([np.sqrt(1.0 - steps), np.sqrt(steps)], axis=1)
        checked = 0
        for _ in range(200):
            f = random_two_input_table(rng, 2, int(rng.integers(2, 4)))
            q0 = Fraction(int(rng.integers(1, 20)), 20)
            a_k = [
                q0 * f.prob_table[k][0][0] - (1 - q0) * f.prob_table[k][1][0]
                for k in range(f.outcome_count)
            ]
            if min(abs(x) for x in a_k) < Fraction(1, 100):
                continue
            bound = attacks._endpoint_slope_bound(f, q0)
            v = spectral_values(f, float(q0), amps)
            slope = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
            # the bound is on the trace norm, twice the value's slope
            assert abs(float(bound) - 2.0 * slope) <= 1e-6
            checked += 1
        assert checked >= 100

    def test_zero_weight_difference_has_no_closed_form(self):
        f = two_sided_binary([["1/2", "1/3"], ["1/2", "2/3"]])
        with pytest.raises(ArithmeticError, match="no weight difference"):
            attacks._endpoint_slope_bound(f, Fraction(1, 2))

    def test_integer_bound_equals_fraction_oracle(self):
        # two inputs per party, 2-3 outcomes, q0 on a 1/20 grid; tables with a
        # zero weight difference must raise in both
        rng = np.random.default_rng(SEED + 7)
        compared = refused = 0
        for _ in range(400):
            f = random_two_input_table(rng, 2, int(rng.integers(2, 4)))
            q0 = Fraction(int(rng.integers(1, 20)), 20)
            try:
                expected = fraction_slope_bound(f, q0)
            except ArithmeticError as exc:
                with pytest.raises(ArithmeticError, match=re.escape(str(exc))):
                    attacks._endpoint_slope_bound(f, q0)
                refused += 1
                continue
            bound = attacks._endpoint_slope_bound(f, q0)
            assert (bound.numerator, bound.denominator) == (expected.numerator, expected.denominator)
            compared += 1
        assert compared >= 300 and refused >= 5
        f = builtin("counterexample")
        assert attacks._endpoint_slope_bound(f, Fraction(1, 2)) == Fraction(
            -589830294617955282180589, 2418714024514704270950400
        )

    def test_zero_weight_difference_in_any_outcome_refused(self):
        # at q0 = 1/2, A_k = (p(k|0,0) - p(k|0,1)) / 2 vanishes for outcome 2 only
        p00, p01, third = ("1/2", "1/4", "1/4"), ("1/4", "1/2", "1/4"), ("1/3",) * 3
        f = funcspec.FunctionSpec(
            kind="probabilistic",
            sided="two",
            alice_arity=2,
            bob_arity=2,
            outcome_count=3,
            prob_table=tuple(((p00[k], third[k]), (p01[k], third[k])) for k in range(3)),
        )
        for bound in (attacks._endpoint_slope_bound, fraction_slope_bound):
            with pytest.raises(ArithmeticError, match="outcome 2 carries no weight difference"):
                bound(f, Fraction(1, 2))

    def test_certificate_refuses_table_with_an_attack(self, monkeypatch):
        # seeded table (rng seed 19) on which a superposition beats honest
        # play at q0 = 1/2
        f = random_two_input_table(np.random.default_rng(19), 2, 2)
        thetas = np.linspace(0.0, math.pi / 2.0, 401)
        amps = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        gain = spectral_values(f, 0.5, amps).max() - loop_honest_probability(f, (0.5, 0.5))
        assert gain > 1e-3
        assert attacks._endpoint_slope_bound(f, Fraction(1, 2)) > 0
        monkeypatch.setattr(attacks.funcspec, "builtin", lambda name: f)
        with pytest.raises(ArithmeticError, match="is not negative"):
            verify_counterexample()


SWEEP_HEADLINE = (
    # (function_id, advantage, p_attack) of every class, in sweep order;
    # frozen, so that speed work on the sweep path must reproduce them
    ("det3x3:000010110", 0.1297751877736466, 0.7964418544403132),
    ("det3x3:000010112", 0.17534259475797087, 0.8420092614246375),
    ("det3x3:000011110", 0.22761637649962274, 0.8942830431662894),
    ("det3x3:001010110", 0.20024606168950287, 0.8669127283561695),
    ("det3x3:001011112", 0.20024606168950365, 0.8669127283561703),
    ("det3x3:001020121", 0.14800564528543103, 0.8146723119520977),
    ("det3x3:001022121", 0.19999999999999996, 0.8666666666666666),
    ("det3x3:001022122", 0.06666666666666698, 0.7333333333333336),
    ("det3x3:002020122", 0.1454890085287227, 0.8121556751953893),
    ("det3x3:002022121", 0.1308166965766252, 0.7974833632432918),
    ("det3x3:002022122", 0.024086806367572433, 0.6907534730342391),
    ("det3x3:002033133", 0.06666666666666698, 0.7333333333333336),
    ("det3x3:010000100", 0.10157928470812205, 0.7682459513747887),
    ("det3x3:010001100", 0.25925925925925963, 0.9259259259259263),
    ("det3x3:010002100", 0.2592592592592594, 0.925925925925926),
    ("det3x3:011001101", 0.07892704789389782, 0.7455937145605644),
    ("det3x3:020000100", 0.10157928470812216, 0.7682459513747888),
    ("det3x3:020003100", 0.2592592592592593, 0.9259259259259259),
)


def break_hermiticity(elements):
    elements[0, 0, 1] += 1e-6


def break_positivity(elements):
    # still Hermitian and complete
    shift = 2 * np.eye(elements.shape[-1])
    elements[0] += shift
    elements[1] -= shift


def break_completeness(elements):
    elements[0] += 1e-6 * np.eye(elements.shape[-1])


def count_constructions(monkeypatch) -> list[str]:
    """Record every FunctionSpec and StateFamily built from here on, by
    class and constructor step, in one list."""
    calls = []
    for cls, name in (
        (funcspec.FunctionSpec, "__post_init__"),
        (blackbox.StateFamily, "__post_init__"),
    ):
        label = f"{cls.__name__}.{name}"

        def counted(self, *args, _original=getattr(cls, name), _label=label, **kwargs):
            calls.append(_label)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return calls


# one Helstrom or inverse root (eigh), one POVM check (cholesky) and one
# Lagrange operator (eigvalsh), for a whole stack at once
ONE_OF_EACH_KERNEL = ["cholesky", "eigh", "eigvalsh"]


class TestTwoStateArrays:
    def test_attacks_build_no_state_objects_after_parsing(self, monkeypatch):
        # the two-state attacks, @ot's included, carry the parsed table's
        # states as arrays to the measurement; the counter is shown to work
        # on @ot's family built the public way
        two = funcspec.parse_function_file(
            "type: probabilistic\nsided: two\ninputs: 2 2\noutcomes: 2\nk: 0\n2/9 1/2\n5/8 1/6\n"
        )
        one = funcspec.parse_function_file(
            "type: probabilistic\nsided: one\ninputs: 2 2\noutcomes: 2\nk: 0\n1/6 3/14\n3/5 5/9\n"
        )
        builtin("counterexample")
        ot = funcspec.transpose(builtin("ot"))
        calls = count_constructions(monkeypatch)
        attack_nondet_two_sided(two)
        attack_nondet_two_sided(two, q0_sweep=(0.3, 0.6), superposition=(0.6, 0.8j))
        attack_nondet_one_sided(one, 0.3)
        attack_nondet_one_sided(ot, 0.5)
        verify_counterexample()
        assert calls == []
        blackbox.output_family(ot, 0)
        assert calls == ["StateFamily.__post_init__"]


class TestOneReportPerCandidate:
    """A two-state attack measures every candidate once, on one stack, and
    keeps the report of the largest advantage."""

    TWO = two_sided_binary([["2/9", "1/2"], ["5/8", "1/6"]])
    ONE = one_sided_binary([["1/6", "3/14"], ["3/5", "5/9"]])

    @pytest.mark.parametrize(
        "attack",
        [lambda: attack_nondet_two_sided(TestOneReportPerCandidate.TWO),
         lambda: attack_nondet_one_sided(TestOneReportPerCandidate.ONE, 0.3)],
        ids=["two-sided", "one-sided"],
    )
    def test_one_kernel_of_each_per_attack(self, monkeypatch, attack):
        # all candidates at once
        calls = count_kernels(monkeypatch)
        attack()
        assert sorted(calls) == ONE_OF_EACH_KERNEL

    def test_tie_keeps_the_first_candidate(self):
        # p(k|0,j) = p(k|1,j): both honest inputs leave the same states
        f = one_sided_binary([["1/5", "1/5"], ["3/4", "3/4"]])
        for q0 in (0.3, 0.5, 0.8):
            report = attack_nondet_one_sided(f, q0)
            assert report.input_used == 0
            first, second = (line.split()[2] for line in report.notes.split("; "))
            assert first == second == f"optimal={report.p_attack:.17g}"

    def test_kept_candidate_note_prints_the_report(self):
        rng = np.random.default_rng(SEED + 23)
        for _ in range(200):
            two = two_sided_binary(rng.uniform(0, 1, size=(2, 2)))
            report = attack_nondet_two_sided(two)
            line = f"q0={report.prior[0]:.17g} advantage={report.advantage:.17g}"
            assert line in report.notes.split("; ")
            one = one_sided_binary(rng.uniform(0, 1, size=(2, 2)))
            report = attack_nondet_one_sided(one, float(rng.uniform(0, 1)))
            line = report.notes.split("; ")[report.input_used]
            assert line.split()[2] == f"optimal={report.p_attack:.17g}"


class TestArithmetic:
    TWO = two_sided_binary([[Fraction(2, 9), Fraction(1, 2)], [Fraction(5, 8), Fraction(1, 6)]])
    ONE = one_sided_binary([[Fraction(1, 6), Fraction(3, 14)], [Fraction(3, 5), Fraction(5, 9)]])
    CASES = {
        "sweep": (sweep_all_3x3, np.float64),
        "3x3 optimize": (lambda: attack_deterministic_3x3(builtin("neq3"), optimize=True), np.float64),
        "3x3 real superposition": (
            lambda: attack_deterministic_3x3(builtin("neq3"), superposition=(0.8, 0.6, 0.0)), np.float64
        ),
        "3x3 complex superposition optimize": (
            lambda: attack_deterministic_3x3(builtin("neq3"), superposition=(0.6, 0.8j, 0.0), optimize=True),
            np.complex128,
        ),
        "two-sided": (lambda: attack_nondet_two_sided(TestArithmetic.TWO), np.float64),
        "two-sided complex superposition": (
            lambda: attack_nondet_two_sided(TestArithmetic.TWO, superposition=(0.6, 0.8j)), np.complex128
        ),
        "one-sided": (lambda: attack_nondet_one_sided(TestArithmetic.ONE, 0.3), np.float64),
        "oblivious transfer": (attack_ot, np.float64),
        "counterexample": (verify_counterexample, np.float64),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_builders_decide_the_arithmetic(self, case, monkeypatch):
        # inside measurement, every measurement, check and search stage sees
        # the dtype the builders picked: no cast inside the pipeline
        seen, inside = [], []

        def enter(name):
            stage = getattr(attacks, name)

            def wrapper(*args, **kwargs):
                inside.append(name)
                try:
                    return stage(*args, **kwargs)
                finally:
                    inside.pop()

            monkeypatch.setattr(attacks, name, wrapper)

        def record(module, name):
            stage = getattr(module, name)

            def wrapper(*args, **kwargs):
                if inside:
                    seen.append((name, args[0].dtype))
                return stage(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        enter("_measure")
        for name in ("_measure_stack", "_check_povm_stack", "_lagrange", "_fixed_point"):
            record(discrim, name)
        run, dtype = self.CASES[case]
        run()
        assert {"_measure_stack", "_check_povm_stack", "_lagrange"} <= {name for name, _ in seen}
        assert "optimize" not in case or ("_fixed_point", np.dtype(dtype)) in seen
        assert {d for _, d in seen} == {np.dtype(dtype)}


class TestSweep:
    def test_headline_unchanged(self):
        reports = sweep_all_3x3()
        assert [r.function_id for r in reports] == [row[0] for row in SWEEP_HEADLINE]
        for r, (_, advantage, p_attack) in zip(reports, SWEEP_HEADLINE):
            assert abs(r.advantage - advantage) <= 1e-13
            assert abs(r.p_attack - p_attack) <= 1e-13

    def test_sweep_builds_no_per_class_objects(self, monkeypatch):
        # the sweep carries its tables and families as arrays; the counters
        # are shown to work on a table and a family built the public way
        calls = count_constructions(monkeypatch)
        reports = sweep_all_3x3()
        assert len(reports) == funcspec.VALID_3X3_CLASS_COUNT
        assert calls == []
        f = funcspec.deterministic(((0, 1, 1), (1, 0, 1), (1, 1, 0)))
        blackbox.output_family(f, blackbox.uniform_superposition(3))
        assert calls == ["FunctionSpec.__post_init__", "StateFamily.__post_init__"]

    def test_sweep_measures_the_stack_the_builder_returned(self, monkeypatch):
        # the 50 outcome blocks reach the measurement as the one array the
        # family builder returned: no per-class slice, no concatenation
        built, measured = [], []
        build, measure = blackbox._two_sided_families, discrim._measure_stack

        def recording_build(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        def recording_measure(states, starts, priors):
            measured.append((states, starts, priors))
            return measure(states, starts, priors)

        monkeypatch.setattr(blackbox, "_two_sided_families", recording_build)
        monkeypatch.setattr(discrim, "_measure_stack", recording_measure)
        sweep_all_3x3()
        [(states, starts, priors)] = measured
        assert len(built) == 1 and states is built[0]
        assert states.shape == (50, 3, 3, 3) and len(starts) == len(priors) == 18

    def test_every_valid_table_measures_as_its_class(self):
        # "18 up to relabeling", checked directly: each of the 456 valid
        # tables in first-appearance form, measured in one column stack per
        # outcome count, gives its class's sweep values
        classes = {r.function_id: r for r in sweep_all_3x3()}
        by_count = {}
        for flat in normalized_flat_tables():
            if conditions_ok_flat(flat):
                by_count.setdefault(max(flat) + 1, []).append(flat)
        reports = []
        for count, flats in sorted(by_count.items()):
            labels = np.array(flats).T
            bases, _ = canonical_forms(labels)
            candidates = attacks._det3x3_candidates(labels, bases.tolist())
            reports += attacks._measure("deterministic-3x3", *candidates)
        assert len(reports) == 456
        assert {r.function_id for r in reports} == set(classes)
        for r in reports:
            assert abs(r.p_attack - classes[r.function_id].p_attack) <= 1e-15
            assert abs(r.p_honest - classes[r.function_id].p_honest) <= 1e-15

    def test_one_kernel_of_each_per_sweep(self, monkeypatch):
        # the 18 classes' pretty-good elements, checked and certified as one stack
        calls = count_kernels(monkeypatch)
        sweep_all_3x3()
        assert sorted(calls) == ONE_OF_EACH_KERNEL

    def test_one_kernel_of_each_per_fixed_point_sweep(self, monkeypatch):
        family = blackbox.output_family(
            funcspec.canonicalize_3x3(builtin("neq3")).base, blackbox.uniform_superposition(3)
        )
        prior = (1 / 3, 1 / 3, 1 / 3)
        seed = pretty_good_povm(family, prior)
        calls = count_kernels(monkeypatch)
        # the sweep closes the bracket: one inverse root, one Lagrange
        # eigen-solve and one check of its iterate, and no certificate
        result = dense_search(family, prior, seed, max_iters=1)
        assert (result.iterations, result.stop_reason) == (1, "bracket")
        assert sorted(calls) == ONE_OF_EACH_KERNEL

    def test_sweep_covers_every_class_with_positive_advantage(self):
        reports = sweep_all_3x3()
        assert len(reports) == funcspec.VALID_3X3_CLASS_COUNT
        assert all(r.advantage > ADV_MIN for r in reports)
        assert [r.function_id for r in reports] == sorted(r.function_id for r in reports)

    def test_min_advantage_frozen_regression(self):
        reports = sweep_all_3x3()
        weakest = min(reports, key=lambda r: r.advantage)
        assert weakest.function_id == "det3x3:002022122"
        assert weakest.advantage == pytest.approx(0.024086806367572544, abs=1e-9)

    def test_stack_equals_one_table_path_exactly(self):
        single = sorted(
            (attack_deterministic_3x3(f) for f in funcspec.enumerate_valid_3x3()),
            key=lambda r: r.function_id,
        )
        assert [exact_fields(r) for r in sweep_all_3x3()] == [exact_fields(r) for r in single]

    @pytest.mark.parametrize("optimize", [False, True])
    def test_mixed_dimension_stack_equals_one_at_a_time(self, optimize):
        rng = np.random.default_rng(SEED + 21)
        options = [
            {},
            {"prior": tuple(rng.dirichlet(np.ones(3)))},
            {"superposition": tuple(rng.permutation([0.8, 0.6, 0.0]))},  # S has a kernel
            {"prior": (0.2, 0.5, 0.3), "superposition": (0.0, 0.6, 0.8)},
        ]
        calls = []
        for n, f in enumerate(funcspec.enumerate_valid_3x3()):
            rows, cols = rng.permutation(3), rng.permutation(3)
            relabel = rng.permutation(f.outcome_count)
            g = funcspec.deterministic([[relabel[f.det_table[r][c]] for c in cols] for r in rows])
            calls.append((g, options[n % len(options)]))
        calls = [calls[n] for n in rng.permutation(len(calls))]
        families = [family_columns(det3x3_candidates([g], **kwargs))[0] for g, kwargs in calls]
        assert len({len(family[0]) for family in families}) == 3
        stacked = attacks._measure("deterministic-3x3", *joined_columns(families), optimize=optimize)
        single = [attack_deterministic_3x3(g, optimize=optimize, **kwargs) for g, kwargs in calls]
        assert [exact_fields(r) for r in stacked] == [exact_fields(r) for r in single]

    def test_one_batch_of_jobs_equals_one_job_per_table(self):
        # the sweep's path: one canonicalizer call, one builder and one
        # honest baseline per outcome count, here under seeded inputs
        rng = np.random.default_rng(SEED + 22)
        tables = []
        for f in funcspec.enumerate_valid_3x3():
            rows, cols = rng.permutation(3), rng.permutation(3)
            relabel = rng.permutation(f.outcome_count)
            tables.append(
                funcspec.deterministic([[relabel[f.det_table[r][c]] for c in cols] for r in rows])
            )
        tables = [tables[n] for n in rng.permutation(len(tables))]
        amps = rng.normal(size=3) + 1j * rng.normal(size=3)
        for kwargs in (
            {},
            {"prior": tuple(rng.dirichlet(np.ones(3)))},
            {"prior": tuple(rng.dirichlet(np.ones(3))), "superposition": tuple(amps / np.linalg.norm(amps))},
        ):
            candidates = det3x3_candidates(tables, **kwargs)
            batch = family_columns(candidates)
            single = [family_columns(det3x3_candidates([g], **kwargs))[0] for g in tables]
            assert len(batch) == len(single) == len(tables)
            assert not candidates[0].flags.writeable
            for f, (b_blocks, *b), (s_blocks, *s) in zip(tables, batch, single):
                assert b_blocks.shape == s_blocks.shape == (f.outcome_count, 3, 3, 3)
                assert b_blocks.tobytes() == s_blocks.tobytes()
                # the prior row, p_honest, id, input and notes, each float exactly
                assert b == s

    @pytest.mark.parametrize(
        "perturb, message",
        [
            (break_hermiticity, r"POVM element is not Hermitian \(defect 1e-06 > 1e-10\)"),
            (break_positivity, "POVM element is not PSD within tolerance"),
            (break_completeness, "POVM elements sum to identity only within 1e-06"),
        ],
        ids=["non-hermitian", "non-psd", "incomplete"],
    )
    def test_stacked_sweep_is_validated(self, monkeypatch, perturb, message):
        true_pretty_good = discrim._pretty_good
        perturbed = []

        def pretty_good(states, starts, priors):
            elements = true_pretty_good(states, starts, priors)
            # the last block of the last class, one of the 3-outcome classes
            assert len(states) - starts[-1] == 3
            perturb(elements[-1])
            perturbed.append(blackbox._assemble(elements[starts[-1]:]))
            return elements

        monkeypatch.setattr(discrim, "_pretty_good", pretty_good)
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep_all_3x3()
        # the same elements, assembled dense, are refused with the same text one class at a time
        assert perturbed[0].shape == (3, 9, 9)
        with pytest.raises(ValueError, match=f"^{message}$"):
            discrim.Povm(perturbed[0], (0, 1, 2))

    def test_p_attack_within_8_ulps_of_50_digit_oracle(self):
        # the float64 measurement path against the exact value, class by class
        distances = {}
        for r in sweep_all_3x3():
            digits = [int(x) for x in r.function_id.split(":")[1]]
            exact = mp_pretty_good_success(funcspec.deterministic([digits[:3], digits[3:6], digits[6:]]))
            distances[r.function_id] = float(abs(r.p_attack - exact)) / np.spacing(float(exact))
        assert len(distances) == funcspec.VALID_3X3_CLASS_COUNT
        assert max(distances.values()) <= 8, distances

    def test_summary_statistics(self, capsys):
        # the last line cmd_sweep3x3 prints, read back
        reports = sweep_all_3x3()
        assert cli.main(["sweep3x3"]) == cli.EXIT_OK
        line = capsys.readouterr().out.splitlines()[-1]
        summary = {key: float(value) for key, value in (f.split("=") for f in line.split())}
        assert summary["functions"] == len(reports)
        assert summary["min_adv"] <= summary["median_adv"] <= summary["max_adv"]
        advantages = [r.advantage for r in reports]
        assert summary["median_adv"] == statistics.median(advantages)
        assert (summary["min_adv"], summary["max_adv"]) == (min(advantages), max(advantages))
