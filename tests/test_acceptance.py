"""Acceptance suite: one test per verification target, each printing a
PASS/FAIL line and enforcing its stated tolerance.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
summary lines inline).
"""

import itertools
import math
import time

import numpy as np
import pytest

from tpc import attacks, blackbox, discrim, funcspec
from tpc.blackbox import output_family, uniform_superposition
from tpc.funcspec import builtin, canonicalize_3x3, one_sided_binary, two_sided_binary
from tpc.tolerances import TOL_PSD, TOL_RECON, TOL_TRACE

from oracles import (
    dense_search,
    exact_prob,
    honest_family_povm,
    loop_honest_probability,
    partial_trace,
    pretty_good_povm,
    pure_state,
    purified_reduced_state,
)


def report(criterion: str, passed: bool, detail: str = ""):
    marker = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {criterion}: {marker} {detail}".rstrip())
    assert passed, f"{criterion}: {detail}"


def test_criterion_1_oblivious_transfer_reproduction(tmp_path, capsys):
    from tpc.cli import main, parse_report_document

    out = tmp_path / "ot.txt"
    start = time.perf_counter()
    exit_code = main(["ot-demo", "--out", str(out)])
    elapsed = time.perf_counter() - start
    rep = parse_report_document(out.read_text()).reports[0]
    family = output_family(builtin("ot"), 0, role="bob")
    explicit = attacks.ot_explicit_povm()
    explicit_success = discrim.povm_success(family, (0.5, 0.5), explicit)
    ok_cert, residuals = discrim.certify_optimal(family, (0.5, 0.5), explicit)

    target = 0.5 + math.sqrt(3) / 4
    checks = [
        exit_code == 0,
        rep.p_honest == 0.75,
        abs(rep.p_attack - target) <= 1e-10,
        abs(explicit_success - rep.p_attack) <= 1e-10,
        ok_cert,
        residuals.pairwise_max < 1e-8,
        residuals.min_eigenvalue > -1e-8,
        elapsed < 1.0,
    ]
    with capsys.disabled():
        report(
            "1 (oblivious transfer)",
            all(checks),
            f"p_honest={rep.p_honest} p_attack={rep.p_attack:.12f} "
            f"explicit={explicit_success:.12f} runtime={elapsed:.3f}s",
        )


def test_criterion_2_exhaustive_3x3_sweep(capsys):
    start = time.perf_counter()
    reports = attacks.sweep_all_3x3()
    elapsed = time.perf_counter() - start
    min_adv = min(r.advantage for r in reports)
    checks = [
        len(reports) == funcspec.VALID_3X3_CLASS_COUNT == 18,
        min_adv > 1e-9,
        elapsed < 60.0,
    ]
    with capsys.disabled():
        report(
            "2 (3x3 exhaustive sweep)",
            all(checks),
            f"functions={len(reports)} min_adv={min_adv:.6g} runtime={elapsed:.2f}s",
        )


def test_criterion_3_two_sided_sweep_finds_gain(capsys):
    rng = np.random.default_rng(20250808)
    sweep = attacks.DEFAULT_Q0_SWEEP
    worst_margin = 1.0
    worst_closed_gap = 0.0
    count = 0
    while count < 500:
        rows = rng.uniform(0.02, 0.98, size=(2, 2))
        f = two_sided_binary(rows)
        if attacks._two_sided_exception(f):
            continue
        count += 1
        best = -1.0
        for q0 in sweep:
            family = output_family(f, uniform_superposition(2))
            delta = q0 * family.states[0] - (1 - q0) * family.states[1]
            p_c = discrim.helstrom(family.states[0], family.states[1], q0).success_probability
            p_h = loop_honest_probability(f, (q0, 1 - q0))
            best = max(best, p_c - p_h)
            ev = discrim._weighted_difference(f.probabilities(), q0)
            closed = np.sort([ev.lam_plus, ev.lam_minus, ev.mu_plus, ev.mu_minus])
            direct = np.sort(np.linalg.eigvalsh(delta))
            worst_closed_gap = max(worst_closed_gap, float(np.abs(closed - direct).max()))
        worst_margin = min(worst_margin, best)

    worst_exception_gap = 0.0
    for _ in range(50):
        base = rng.uniform(0.05, 0.95, size=2)
        same_alice = two_sided_binary([[base[0], base[0]], [base[1], base[1]]])
        same_bob = two_sided_binary([[base[0], base[1]], [base[0], base[1]]])
        for f in (same_alice, same_bob):
            for q0 in sweep:
                family = output_family(f, uniform_superposition(2))
                p_c = discrim.helstrom(
                    family.states[0], family.states[1], q0
                ).success_probability
                p_h = loop_honest_probability(f, (q0, 1 - q0))
                worst_exception_gap = max(worst_exception_gap, abs(p_c - p_h))

    checks = [
        worst_margin > 1e-10,
        worst_exception_gap < 1e-10,
        worst_closed_gap <= 1e-10,
    ]
    with capsys.disabled():
        report(
            "3 (two-sided prior sweep)",
            all(checks),
            f"min_margin={worst_margin:.3g} exception_gap={worst_exception_gap:.3g} "
            f"eigenvalue_gap={worst_closed_gap:.3g}",
        )


def test_criterion_4_one_sided_basis_measurement_suboptimal(capsys):
    rng = np.random.default_rng(314159)
    stationary_hits = 0
    worst_margin = 1.0
    for _ in range(200):
        rows = rng.uniform(0.05, 0.95, size=(2, 2))
        f = one_sided_binary(rows)
        q0 = float(rng.uniform(0.1, 0.9))
        for i in range(2):
            if discrim.basis_measurement_optimal(f, i, q0):
                stationary_hits += 1
        rep = attacks.attack_nondet_one_sided(f, q0)
        worst_margin = min(worst_margin, rep.advantage)

    coin_margin = 1.0
    coin_stationary = 0
    for r0, r1 in ((0.6, 0.4), (0.7, 0.55), (0.9, 0.2)):
        f = one_sided_binary([[r0, r0], [r1, r1]])
        for q0 in (0.3, 0.55, 0.7):
            for i in range(2):
                if discrim.basis_measurement_optimal(f, i, q0):
                    coin_stationary += 1
            rep = attacks.attack_nondet_one_sided(f, q0)
            coin_margin = min(coin_margin, rep.advantage)

    worst_det = 0.0
    for bits in itertools.product((0, 1), repeat=4):
        f = one_sided_binary([[bits[0], bits[1]], [bits[2], bits[3]]])
        rep = attacks.attack_nondet_one_sided(f, 0.37)
        worst_det = max(worst_det, abs(rep.advantage))
        assert discrim.basis_measurement_optimal(f, 0, 0.37)
        assert discrim.basis_measurement_optimal(f, 1, 0.37)

    checks = [
        stationary_hits == 0,
        coin_stationary == 0,
        worst_margin > 1e-10,
        coin_margin > 1e-10,
        worst_det < 1e-10,
    ]
    with capsys.disabled():
        report(
            "4 (one-sided basis measurement)",
            all(checks),
            f"min_margin={worst_margin:.3g} coin_margin={coin_margin:.3g} "
            f"deterministic_gap={worst_det:.3g}",
        )


def test_criterion_5_counterexample_grid(capsys):
    rep = attacks.verify_counterexample()
    checks = [rep.advantage <= 1e-9, rep.certified]
    with capsys.disabled():
        report(
            "5 (counterexample: no superposition helps, exact certificate)",
            all(checks),
            f"max_advantage={rep.advantage:.3g} certified={rep.certified}",
        )


def test_criterion_6_honest_baseline_consistency(capsys):
    f = builtin("neq3")
    prior = (1 / 3, 1 / 3, 1 / 3)

    brute = 0.0
    for i in range(3):
        for rule in itertools.product(range(3), repeat=f.outcome_count):
            value = sum(
                prior[j] * float(exact_prob(f, k, i, j))
                for j in range(3)
                for k in range(f.outcome_count)
                if rule[k] == j
            )
            brute = max(brute, value)

    formula = float(discrim._honest(f.probabilities(), funcspec.validate_prior(prior, 3)))

    canon = canonicalize_3x3(f)
    amps = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
    family = output_family(canon.base, amps)
    grid = np.linspace(0.0, 1.0, 5)
    grid_max = 0.0
    for a1 in grid:
        for ab in grid:
            povm = honest_family_povm(
                canon.a, canon.b, canon.base.outcome_count, [a1, ab, ab, ab, ab]
            )
            grid_max = max(grid_max, discrim.povm_success(family, prior, povm))

    checks = [
        abs(brute - 2 / 3) <= 1e-9,
        abs(formula - 2 / 3) <= 1e-9,
        abs(grid_max - 2 / 3) <= 1e-9,
    ]
    with capsys.disabled():
        report(
            "6 (honest baseline consistency)",
            all(checks),
            f"brute={brute:.12f} formula={formula:.12f} family_grid={grid_max:.12f}",
        )


def test_criterion_7_numerical_core_properties(capsys):
    failures = []

    # partial-trace trace preservation (seed 1001, 200 instances)
    rng = np.random.default_rng(1001)
    for _ in range(200):
        dims = tuple(rng.integers(2, 4, size=rng.integers(2, 4)))
        n = int(np.prod(dims))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        m = g @ g.conj().T
        rho = m / np.trace(m).real
        keep = sorted(
            rng.choice(len(dims), size=rng.integers(1, len(dims) + 1), replace=False)
        )
        reduced, _ = partial_trace(rho, dims, keep=keep)
        if abs(np.trace(reduced) - 1.0) > TOL_TRACE:
            failures.append("partial-trace trace drift")

    # POVM completeness / PSD on random pretty-good measurements (seed 1002)
    rng = np.random.default_rng(1002)
    for _ in range(200):
        dim = int(rng.integers(2, 6))
        count = int(rng.integers(2, 5))
        states = []
        for _ in range(count):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = g @ g.conj().T
            states.append(m / np.trace(m).real)
        w = rng.uniform(0.1, 1.0, size=count)
        povm = pretty_good_povm(states, tuple(w / w.sum()))
        total = sum(povm.elements)
        if np.abs(total - np.eye(dim)).max() > TOL_RECON:
            failures.append("POVM completeness")
        for e in povm.elements:
            if np.linalg.eigvalsh(e).min() < -TOL_PSD:
                failures.append("POVM element PSD")

    # pretty-good measurement on rank-deficient sums (seed 1003)
    rng = np.random.default_rng(1003)
    for _ in range(200):
        dim = int(rng.integers(3, 7))
        count = int(rng.integers(2, 4))
        states = []
        for _ in range(count):
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            states.append(pure_state(v / np.linalg.norm(v)))
        w = rng.uniform(0.1, 1.0, size=count)
        povm = pretty_good_povm(states, tuple(w / w.sum()))
        total = sum(povm.elements)
        if np.abs(total - np.eye(dim)).max() > TOL_RECON:
            failures.append("rank-deficient completeness")

    # optimizer monotonicity (seed 1004; violations raise inside the sweep)
    rng = np.random.default_rng(1004)
    for _ in range(200):
        dim = int(rng.integers(2, 5))
        count = int(rng.integers(2, 4))
        states = []
        for _ in range(count):
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m = g @ g.conj().T
            states.append(m / np.trace(m).real)
        w = rng.uniform(0.1, 1.0, size=count)
        prior = tuple(w / w.sum())
        seed = pretty_good_povm(states, prior)
        baseline = discrim.povm_success(states, prior, seed)
        try:
            result = dense_search(states, prior, seed, max_iters=150)
        except ArithmeticError:
            failures.append("optimizer monotonicity")
            continue
        if result.success_probability < baseline - 1e-12:
            failures.append("optimizer below seed")

    # closed-form state construction vs full purification (seed 1005)
    from fractions import Fraction

    rng = np.random.default_rng(1005)
    for _ in range(200):
        n = int(rng.integers(2, 4))
        nb = int(rng.integers(2, 4))
        kdim = int(rng.integers(2, 4))
        raw = rng.integers(1, 9, size=(kdim, nb, n))
        totals = raw.sum(axis=0)
        blocks = tuple(
            tuple(
                tuple(Fraction(int(raw[k, j, i]), int(totals[j, i])) for i in range(n))
                for j in range(nb)
            )
            for k in range(kdim)
        )
        f = funcspec.FunctionSpec(
            kind="probabilistic",
            sided="two",
            alice_arity=n,
            bob_arity=nb,
            outcome_count=kdim,
            prob_table=blocks,
        )
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        a = a / np.linalg.norm(a)
        j = int(rng.integers(nb))
        direct = blackbox.output_family(f, a).states[j]
        oracle, _ = purified_reduced_state(f, a, j)
        if np.abs(direct - oracle).max() > TOL_RECON:
            failures.append("formula vs purification")

    with capsys.disabled():
        report(
            "7 (numerical core properties)",
            not failures,
            f"failures={sorted(set(failures))}" if failures else "5x200 randomized instances",
        )
