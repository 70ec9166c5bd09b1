"""Attack pipelines and report packaging."""

import itertools
import math

import numpy as np
import pytest

from tpc import attacks, blackbox, discrim, funcspec
from tpc.attacks import (
    DEFAULT_Q0_SWEEP,
    attack_deterministic_3x3,
    attack_nondet_one_sided,
    attack_nondet_two_sided,
    attack_oblivious_transfer,
    sweep_all_3x3,
    verify_counterexample,
)
from tpc.funcspec import builtin, one_sided_binary, two_sided_binary
from tpc.tolerances import active

SEED = 8091


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
                    povm = discrim.square_root_measurement(family, prior)
                    p_attack = discrim.povm_success(family, prior, povm)
                    p_honest = discrim.honest_probability(g, prior)
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
            ev = discrim.weighted_difference_eigenvalues(f, q0)
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
            basis = discrim.per_input_basis_rate(f, 1, (q0, 1 - q0))
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


class TestObliviousTransfer:
    def test_honest_is_exactly_three_quarters(self):
        assert attack_oblivious_transfer().p_honest == 0.75

    def test_attack_value(self):
        report = attack_oblivious_transfer()
        assert report.p_attack == pytest.approx(0.5 + math.sqrt(3) / 4, abs=1e-10)

    def test_explicit_matrix_certifies(self):
        report = attack_oblivious_transfer()
        assert report.certified
        assert "certified=True" in report.notes


class TestCounterexample:
    def test_grid_maximum_within_threshold(self):
        report = verify_counterexample()
        assert report.advantage <= active().adv_min
        assert report.certified

    def test_uniform_superposition_loses(self):
        f = builtin("counterexample")
        family = blackbox.output_family(f, blackbox.uniform_superposition(2))
        p_c = discrim.helstrom(family.states[0], family.states[1], 0.5).success_probability
        assert p_c <= discrim.honest_probability(f, (0.5, 0.5))

    def test_honest_basis_input_matches_honest_probability(self):
        f = builtin("counterexample")
        family = blackbox.output_family(f, (1.0, 0.0))
        p_c = discrim.helstrom(family.states[0], family.states[1], 0.5).success_probability
        assert p_c == pytest.approx(discrim.honest_probability(f, (0.5, 0.5)), abs=1e-12)

    def test_headline_values_frozen(self):
        report = verify_counterexample()
        assert report.p_attack == 0.7877777777777778
        assert report.advantage == 1.1102230246251565e-16
        assert report.input_used == ((1 + 0j), 0j)
        assert tuple(report.residuals) == (0.0, 0.0, 0.0)
        assert "best theta=0;" in report.notes

    def test_input_phases_act_as_one_shared_unitary(self):
        # phases on the input amplitudes rotate every state of the family by
        # the same diagonal unitary, so no phase can change the Helstrom score
        f = builtin("counterexample")
        rng = np.random.default_rng(SEED + 3)
        thetas = rng.uniform(0.0, math.pi, size=200)
        phis = rng.uniform(0.0, 2.0 * math.pi, size=(200, 2))
        real = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
        phased = real * np.exp(1j * phis)
        rho = blackbox.alice_reduced_states(f, real)
        sigma = blackbox.alice_reduced_states(f, phased)
        for r, phi in enumerate(phis):
            u = np.kron(np.diag(np.exp(1j * phi)), np.eye(f.outcome_count))
            for j in range(f.bob_arity):
                assert np.abs(sigma[r, j] - u @ rho[r, j] @ u.conj().T).max() <= 1e-12
        prior = [(0.5, 0.5)] * len(thetas)
        gap = np.abs(attacks._score(sigma, prior) - attacks._score(rho, prior))
        assert gap.max() <= 1e-12


class TestSweep:
    def test_sweep_covers_every_class_with_positive_advantage(self):
        reports = sweep_all_3x3()
        assert len(reports) == funcspec.VALID_3X3_CLASS_COUNT
        assert all(r.advantage > active().adv_min for r in reports)
        assert [r.function_id for r in reports] == sorted(r.function_id for r in reports)

    def test_min_advantage_frozen_regression(self):
        reports = sweep_all_3x3()
        weakest = min(reports, key=lambda r: r.advantage)
        assert weakest.function_id == "det3x3:002022122"
        assert weakest.advantage == pytest.approx(0.024086806367572544, abs=1e-9)

    def test_worker_count_does_not_change_reports(self):
        assert sweep_all_3x3(workers=1) == sweep_all_3x3(workers=8)

    def test_summary_statistics(self):
        reports = sweep_all_3x3()
        summary = attacks.summarize_sweep(reports)
        assert summary["functions"] == len(reports)
        assert summary["min_adv"] <= summary["median_adv"] <= summary["max_adv"]
