"""One attack pipeline and its report packaging.

Every attack follows one recipe.  An entry point hands its candidates to
:func:`_measure` as columns, one entry per family: the states the cheater
may hold after a superposed (or, for one-sided functions, honest) input,
one per input of the guessed party, as one block stack ``(N, m, b, b)``
of every family's outcome blocks with the ``starts`` of each family
(:mod:`tpc.qmat`; a one-sided family is one block), a prior row per
family ``(F, m)``, and per family the honest guessing probability to
beat, its name, the input used and its notes.  A two-sided attack has one
family per prior weight of its sweep, a one-sided attack one per honest
input, the other attacks one per table.  :func:`_measure` measures the
whole stack at once, all of one shape ``(m, b)``: Helstrom elements for
two states, else the pretty-good measurement, optionally polished by the
fixed-point search, checked and certified once, one report per family.
An attack with several families keeps the report of the largest
advantage, the first on a tie.  The 3x3 sweep carries its class tables,
families and candidates as arrays from enumeration to measurement: the
block stack the family builder returns for the 50 outcome blocks of the
18 classes is the stack measured, with no per-class slice.  Each
two-state attack reads its parsed table once into a float array.  No
dense state is assembled here.  The :mod:`blackbox` array builders emit
float64 states for real families, else complex128, and the whole path
follows that dtype (the oblivious-transfer attack checks its family once
as a complex :class:`blackbox.StateFamily`, for the public closed-form
cross-check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import blackbox, discrim, funcspec, qmat
from .discrim import CertificateResiduals
from .funcspec import FunctionSpec
from .tolerances import ADV_MIN

DEFAULT_Q0_SWEEP = (1.0 - 1e-2, 1.0 - 1e-3, 1.0 - 1e-4)
_SURD_BITS = 64  # the bits after the binary point of every surd bound

SCENARIOS = (
    "deterministic-3x3",
    "nondet-two-sided",
    "nondet-one-sided",
    "oblivious-transfer",
    "counterexample",
)


@dataclass(frozen=True)
class AttackReport:
    function_id: str
    scenario: str
    prior: tuple[float, ...]
    input_used: tuple[complex, ...] | int | None
    p_honest: float
    p_attack: float
    advantage: float
    certified: bool
    residuals: CertificateResiduals | None
    notes: str = ""

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}")
        # written so that a NaN advantage fails too
        if not abs(self.advantage - (self.p_attack - self.p_honest)) <= 1e-12:
            raise ValueError("advantage must equal p_attack - p_honest")
        for p in (self.p_honest, self.p_attack):
            if not -1e-12 <= p <= 1.0 + 1e-12:
                raise ValueError(f"probability {p} outside [0, 1]")


class SweepFailure(RuntimeError):
    """Raised when an exhaustive sweep finds a non-positive advantage."""

    def __init__(self, reports: list[AttackReport]):
        self.reports = reports
        dumped = "; ".join(f"{r.function_id} advantage={r.advantage:.3g}" for r in reports)
        super().__init__(f"sweep found non-positive advantages: {dumped}")


def det3x3_function_id(canon: funcspec.CanonicalForm3x3) -> str:
    return _det3x3_id(sum(canon.base.det_table, ()))


def _det3x3_id(base: Sequence[int]) -> str:
    """The sweep's name of a class: its row-major canonical base table."""
    return "det3x3:" + "".join(map(str, base))


def _rational_id(f: FunctionSpec) -> str:
    """The exact ``p(0|i,j)``, row by row."""
    return ",".join(str(x) for row in f.prob_table[0] for x in row)


def _measure(
    scenario: str, states: np.ndarray, starts: np.ndarray, priors: np.ndarray,
    p_honest: Sequence[float], ids: Sequence[str], inputs: Sequence, notes: Sequence[str],
    optimize: bool = False,
) -> list[AttackReport]:
    """Build, evaluate and certify the measurement of every candidate of one
    attack call, one report per family: the state blocks ``(N, m, b, b)`` of
    the families that start at ``starts``, under one prior row per family
    ``(F, m)``, are measured, checked and certified as one stack by
    :func:`discrim._measure_stack` (Helstrom for two states, else
    pretty-good); ``p_honest``, ``ids``, ``inputs`` and ``notes`` hold one
    entry per family.  ``optimize`` also runs the fixed-point search from
    each family's checked element blocks."""
    elements, successes, verdicts = discrim._measure_stack(states, starts, priors)
    bounds, rows = starts.tolist() + [len(states)], priors.tolist()
    reports = []
    for n, (p_attack, (certified, residuals)) in enumerate(zip(successes, verdicts)):
        start, end, note = bounds[n], bounds[n + 1], notes[n]
        if optimize:
            # seeded by the element blocks the stack has just checked
            s, q = states[start:end], priors[n]
            refined = discrim._fixed_point(elements[start:end], s, q, q[:, None, None] * s)
            found = (
                f"fixed-point optimum p={refined.success_probability:.17g}"
                f" certified={refined.certified_optimal} iterations={refined.iterations}"
                f" stop={refined.stop_reason} p_upper={refined.p_upper:.17g}"
            )
            note = f"{note}; {found}" if note else found
        reports.append(
            AttackReport(
                function_id=ids[n],
                scenario=scenario,
                prior=tuple(rows[n]),
                input_used=inputs[n],
                p_honest=p_honest[n],
                p_attack=p_attack,
                advantage=p_attack - p_honest[n],
                certified=certified,
                residuals=residuals,
                notes=note,
            )
        )
    return reports


def attack_deterministic_3x3(
    f: FunctionSpec,
    superposition: Sequence[complex] | None = None,
    prior: Sequence[float] | None = None,
    optimize: bool = False,
) -> AttackReport:
    """Pretty-good-measurement attack on a valid 3x3 deterministic function.

    The cheater inputs the uniform three-term superposition (or
    ``superposition``) and measures with the pretty-good measurement under a
    uniform prior (or ``prior``); both index the rows and columns of ``f``
    as given.  The canonical form (:func:`funcspec._canonical_form`, which
    also checks the conditions) only names the class (``function_id``) and
    its ``a``/``b`` labels in the notes; the states have one outcome block
    per label the table uses, whatever ``f.outcome_count`` declares.
    ``optimize=True`` additionally runs the fixed-point search and reports
    in the notes its value, sweep count, stop reason and dual bound
    ``p_upper``; the headline attack number stays the
    pretty-good-measurement success.
    """
    labels = funcspec._labels_3x3(f)
    base, _ = funcspec._canonical_form(labels)
    # one outcome block per label the table uses, in ascending label order
    rank = {x: r for r, x in enumerate(sorted(set(labels)))}
    tables = np.array([rank[x] for x in labels])[:, None]
    candidates = _det3x3_candidates(tables, [base], superposition, prior)
    return _measure("deterministic-3x3", *candidates, optimize=optimize)[0]


def _det3x3_candidates(
    tables: np.ndarray, bases: Sequence[Sequence[int]], superposition=None, prior=None
) -> tuple:
    """:func:`attack_deterministic_3x3`'s candidates for row-major label tables
    ``(9, n)``, each using every label from 0 to its largest, named by their
    canonical base tables, one row-major 9-sequence each, as the columns
    :func:`_measure` takes after its scenario: ``p(k|i,j)`` read off the
    labels, zero-padded to the most labels any table uses for one stacked
    honest baseline, and each table's rows built as one block stack by one
    family builder call, which is the stack measured."""
    amps = (
        blackbox.uniform_superposition(3)
        if superposition is None
        else blackbox.amplitude_vector(superposition, 3)
    )
    q = funcspec.uniform_prior(3) if prior is None else funcspec.validate_prior(prior, 3)
    counts = tables.max(axis=0) + 1
    # (t, k, j, i), the padding rows all zero; the baseline adds them as 0.0
    labels = tables.T[:, None]  # (t, 1, cells)
    p = (labels == np.arange(counts.max())[:, None]).reshape(len(labels), -1, 3, 3) * 1.0
    present = np.arange(p.shape[1]) < counts[:, None]
    starts = np.cumsum(counts) - counts
    return (
        blackbox._two_sided_families(p[present], amps, starts),
        starts,
        q[None].repeat(len(bases), axis=0),
        discrim._honest(p, q).tolist(),
        [_det3x3_id(base) for base in bases],
        [tuple(complex(x) for x in amps)] * len(bases),
        [f"canonical labels a={base[1]} b={base[4]}" for base in bases],
    )


def _two_sided_exception(f: FunctionSpec) -> bool:
    """Tables where only one party's input matters (exact rational check)."""
    independent_of_alice = all(len(set(row)) == 1 for block in f.prob_table for row in block)
    independent_of_bob = all(len(set(col)) == 1 for block in f.prob_table for col in zip(*block))
    return independent_of_alice or independent_of_bob


def attack_nondet_two_sided(
    f: FunctionSpec,
    q0_sweep: Sequence[float] | None = None,
    superposition: Sequence[complex] | None = None,
) -> AttackReport:
    """Balanced-superposition attack on a binary 2x2 two-sided table over a
    sweep of prior weights, reporting the best gap found.

    Tables where only one party's input matters are detected exactly and
    short-circuit with zero advantage: the attack reduces to honest play.
    """
    if f.kind != "probabilistic" or f.sided != "two":
        raise ValueError("attack requires a probabilistic two-sided function")
    if (f.alice_arity, f.bob_arity, f.outcome_count) != (2, 2, 2):
        raise ValueError("attack requires a binary-output 2x2 table")
    sweep = tuple(q0_sweep) if q0_sweep else DEFAULT_Q0_SWEEP
    for q0 in sweep:
        if not 0.0 <= q0 <= 1.0:
            raise ValueError(f"sweep weight q0={q0} outside [0, 1]")
    function_id = f"nondet2x2:{_rational_id(f)}"
    p = f.probabilities()
    # one prior row per sweep weight, checked and given its honest baseline at once
    priors = funcspec._checked_priors(np.array([(q0, 1.0 - q0) for q0 in sweep], dtype=float), 2)
    honest = discrim._honest(p, priors[:, None]).tolist()  # (F, 1, 2): each row across the outcomes
    if _two_sided_exception(f):
        return AttackReport(
            function_id=function_id,
            scenario="nondet-two-sided",
            prior=tuple(priors[0].tolist()),
            input_used=None,
            p_honest=honest[0],
            p_attack=honest[0],
            advantage=0.0,
            certified=False,
            residuals=None,
            notes="effectively one-input: only one party's input matters; attack reduces to honest play",
        )
    amps = (
        blackbox.uniform_superposition(2)
        if superposition is None
        else blackbox.amplitude_vector(superposition, 2)
    )
    blocks = blackbox._two_sided_families(p, amps)
    n = len(priors)  # one family per prior weight, each the same states
    reports = _measure(
        "nondet-two-sided", np.concatenate([blocks] * n), np.arange(n) * len(blocks), priors,
        honest, [function_id] * n, [tuple(complex(x) for x in amps)] * n, [""] * n,
    )
    lines = []
    for r in reports:
        q0 = r.prior[0]
        if superposition is None:
            ev = discrim._weighted_difference(p, q0)
            closed = 0.5 * (1.0 + ev.lam_plus - ev.lam_minus + ev.mu_plus - ev.mu_minus)
            gap = abs(closed - r.p_attack)
            if gap > 1e-10:
                raise ArithmeticError(
                    f"closed-form and spectral success disagree by {gap:.3g} at q0={q0}"
                )
        lines.append(f"q0={q0:.17g} advantage={r.advantage:.17g}")
    return replace(max(reports, key=lambda r: r.advantage), notes="; ".join(lines))


def attack_nondet_one_sided(f: FunctionSpec, q0: float) -> AttackReport:
    """Optimal-measurement attack for the receiver of a binary one-sided
    table, compared against the outcome-basis guess rate, over all honest
    inputs."""
    if f.kind != "probabilistic" or f.sided != "one":
        raise ValueError("attack requires a probabilistic one-sided function")
    if (f.bob_arity, f.outcome_count) != (2, 2):
        raise ValueError("attack requires a binary-output table with two partner inputs")
    if not 0.0 <= q0 <= 1.0:
        raise ValueError(f"prior weight q0={q0} outside [0, 1]")
    prior = (q0, 1.0 - q0)
    p = f.probabilities()
    rates = discrim._basis_rates(p, funcspec.validate_prior(prior, 2)).tolist()
    p_honest = max(rates)
    families = blackbox._one_sided_families(p)  # one one-block family per honest input
    n = len(families)
    reports = _measure(
        "nondet-one-sided", families, np.arange(n), np.array([prior] * n),
        [p_honest] * n, [f"nondet1sided:{_rational_id(f)}"] * n, range(n), [""] * n,
    )
    lines = [
        f"i={i} basis_rate={rate:.17g}"
        f" optimal={r.p_attack:.17g}"
        f" basis_measurement_optimal={flag}"
        for i, (r, rate, flag) in enumerate(zip(reports, rates, discrim._basis_flags(p, q0)))
    ]
    return replace(max(reports, key=lambda r: r.advantage), notes="; ".join(lines))


def ot_explicit_povm() -> discrim.Povm:
    """Closed-form optimal receiver measurement for the built-in oblivious
    transfer table, in the basis (|0>, |1>, |?>)."""
    s3 = math.sqrt(3.0)
    e0 = (
        np.array(
            [
                [2.0 + s3, -1.0, 1.0 + s3],
                [-1.0, 2.0 - s3, 1.0 - s3],
                [1.0 + s3, 1.0 - s3, 2.0],
            ],
            dtype=complex,
        )
        / 6.0
    )
    return discrim.Povm((e0, np.eye(3, dtype=complex) - e0), (0, 1))


def attack_oblivious_transfer() -> AttackReport:
    """Receiver attack on the built-in oblivious transfer table.

    The receiver's two possible pure states are optimally distinguished;
    the embedded closed-form measurement is evaluated as well and must
    match the spectral optimum and pass certification.
    """
    f = funcspec.transpose(funcspec.builtin("ot"))  # the receiver, Bob, guesses Alice's input
    prior = (0.5, 0.5)
    p = f.probabilities()
    states = blackbox._one_sided_families(p)[0]
    p_honest = float(discrim._honest(p, funcspec.validate_prior(prior, 2)))
    report = _measure(
        "oblivious-transfer", states[None], qmat.ONE_FAMILY, np.array([prior]),
        [p_honest], ["ot"], [0], [""],
    )[0]
    explicit = ot_explicit_povm()
    family = blackbox.StateFamily(states)
    explicit_success = discrim.povm_success(family, prior, explicit)
    if abs(explicit_success - report.p_attack) > 1e-10:
        raise ArithmeticError(
            "closed-form measurement success "
            f"{explicit_success:.17g} != spectral optimum {report.p_attack:.17g}"
        )
    explicit_ok, explicit_res = discrim.certify_optimal(family, prior, explicit)
    notes = (
        f"closed-form measurement success={explicit_success:.17g}"
        f" certified={explicit_ok}"
        f" residuals=({explicit_res.pairwise_max:.3g},"
        f" {explicit_res.min_eigenvalue:.3g}, {explicit_res.anti_hermitian_max:.3g})"
    )
    return replace(report, certified=report.certified and explicit_ok, notes=notes)


def _endpoint_slope_bound(f: FunctionSpec, q0: Fraction) -> Fraction:
    """Exact upper bound on the slope of ``tr|q0 rho0 - q1 rho1|`` at the
    input ``|0>`` as weight moves to ``|1>``, for a two-sided table with two
    inputs per party.

    The trace norm depends on the input only through ``u_i = |a_i|^2``;
    outcome block k contributes ``sqrt(S_k^2 - 4 q0 q1 I_k^2)``, with
    ``S_k = sum_i u_i (q0 p(k|i,0) + q1 p(k|i,1))`` and
    ``I_k = sum_i u_i sqrt(p(k|i,0) p(k|i,1))``.  At ``u = (1, 0)`` the block
    equals ``|A_k|``, ``A_k = q0 p(k|0,0) - q1 p(k|0,1)``, and its slope along
    ``u = (1 - t, t)`` is ``sign(A_k) A_k' + 2 q0 q1 R_k / |A_k|``, with
    ``R_k = p(k|1,0) p(k|0,1) + p(k|0,0) p(k|1,1) - 2 sqrt(p(k|0,0) p(k|0,1)
    p(k|1,0) p(k|1,1))``.  Every term runs on integer numerators over one
    common denominator, and the one surd per block is bounded from below to
    within ``2**-64`` (:func:`_surd_below`), so the sum is an upper bound.
    Raises :class:`ArithmeticError` where some ``A_k`` is 0 and the slope
    has no closed form.
    """
    den = math.lcm(q0.denominator, *(x.denominator for b in f.prob_table for r in b for x in r))
    q0n = q0.numerator * (den // q0.denominator)  # q0, q1 and each p(k|i,j) as numerators over den
    q1n = den - q0n
    num, total_den = 0, 1
    for k, block in enumerate(f.prob_table):
        p00, p01, p10, p11 = (
            block[j][i].numerator * (den // block[j][i].denominator) for i in (0, 1) for j in (0, 1)
        )
        a = q0n * p00 - q1n * p01  # A_k and A_k' over den**2
        if a == 0:
            raise ArithmeticError(f"outcome {k} carries no weight difference at input |0>")
        slope_a = q0n * (p10 - p00) - q1n * (p11 - p01)
        root, root_den = _surd_below(p00 * p01 * p10 * p11, den**4)
        r = (p10 * p01 + p00 * p11) * root_den - 2 * root * den**2  # R_k over den**2 root_den
        # the block's slope over den**2 |A_k| root_den, added to the running sum
        block_den = den**2 * abs(a) * root_den
        num = num * block_den + (slope_a * a * root_den + 2 * q0n * q1n * r) * total_den
        total_den *= block_den
    return Fraction(num, total_den)


def _surd_below(n: int, d: int) -> tuple[int, int]:
    """``sqrt(n / d)`` (``n >= 0``, ``d > 0``) from below, within ``2**-b``, ``b = _SURD_BITS``:
    with ``n / d`` in lowest terms, the numerator ``isqrt(n d 4**b)`` over ``d 2**b``."""
    g = math.gcd(n, d)
    n, d = n // g, d // g
    return math.isqrt((n * d) << (2 * _SURD_BITS)), d << _SURD_BITS


def verify_counterexample() -> AttackReport:
    """Confirm that no superposition, real or complex, beats honest play on
    the built-in counterexample table at the balanced prior.

    For two states the Helstrom value depends on the input only through
    ``u_i = |a_i|^2`` and is concave in ``u`` (each outcome block's trace
    norm is the geometric mean of two nonnegative affine functions of
    ``u``).  So a negative slope at the honest input ``|0>`` toward ``|1>``,
    bounded exactly by :func:`_endpoint_slope_bound`, makes ``|0>`` the
    maximum over every input; otherwise this raises
    :class:`ArithmeticError`.  The states after ``|0>``, built by
    :func:`blackbox._two_sided_families`, are then measured and certified
    by :func:`_measure`; the advantage must not exceed the minimum gain.
    """
    f = funcspec.builtin("counterexample")
    prior = (0.5, 0.5)
    bound = _endpoint_slope_bound(f, Fraction(1, 2))
    if not bound < 0:
        raise ArithmeticError(
            f"trace-norm slope bound {float(bound):.17g} at input |0> is not negative"
        )
    notes = (
        "exact certificate: value concave in (|a0|^2, |a1|^2), trace-norm slope"
        f" from |0> toward |1> <= {float(bound):.17g}; no superposition, real or complex, helps"
    )
    p = f.probabilities()
    honest = float(discrim._honest(p, funcspec.validate_prior(prior, 2)))
    states = blackbox._two_sided_families(p, (1.0, 0.0))
    report = _measure(
        "counterexample", states, qmat.ONE_FAMILY, np.array([prior]), [honest], ["counterexample"],
        [(1 + 0j, 0j)], [notes],
    )[0]
    if report.advantage > ADV_MIN:
        raise ArithmeticError(
            f"counterexample admits advantage {report.advantage:.3g} at input |0>"
        )
    return report


def sweep_all_3x3() -> list[AttackReport]:
    """Run the deterministic attack over every valid 3x3 equivalence class.

    Results are sorted by canonical identifier.  A non-positive advantage
    anywhere raises :class:`SweepFailure` with the offending tables.
    """
    tables, bases = funcspec._class_tables()
    reports = _measure("deterministic-3x3", *_det3x3_candidates(tables, bases.tolist()))
    reports.sort(key=lambda r: r.function_id)
    bad = [r for r in reports if r.advantage <= ADV_MIN]
    if bad:
        raise SweepFailure(bad)
    return reports


def summarize_sweep(reports: Sequence[AttackReport]) -> dict[str, float]:
    advantages = sorted(r.advantage for r in reports)
    n = len(advantages)
    median = (
        advantages[n // 2]
        if n % 2
        else 0.5 * (advantages[n // 2 - 1] + advantages[n // 2])
    )
    return {
        "functions": float(n),
        "min_adv": advantages[0],
        "median_adv": median,
        "max_adv": advantages[-1],
    }
