"""One attack pipeline and its report packaging.

Every attack follows one recipe.  An entry point lists candidates: a state
family the cheater may hold after a superposed (or, for one-sided functions,
honest) input, the prior over the guessed party's inputs, the honest
guessing probability to beat, and the input used.  :func:`_select` scores
each candidate by the Helstrom value of its two states, without building a
measurement, and keeps the largest advantage, the first on a tie; the 3x3
and oblivious-transfer attacks have one candidate and skip it.
:func:`_measure` then builds the measurement for that candidate alone
(Helstrom for two states, else the pretty-good measurement, optionally
polished by the fixed-point search), certifies it once and packages the
report.  Entry points keep their scope checks, notes and oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from . import blackbox, discrim, funcspec
from .discrim import CertificateResiduals
from .funcspec import FunctionSpec
from .tolerances import active

DEFAULT_Q0_SWEEP = (1.0 - 1e-2, 1.0 - 1e-3, 1.0 - 1e-4)

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
        if abs(self.advantage - (self.p_attack - self.p_honest)) > 1e-12:
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
    digits = "".join(str(x) for row in canon.base.det_table for x in row)
    return f"det3x3:{digits}"


def _rational_id(f: FunctionSpec) -> str:
    cells = []
    for j in range(f.bob_arity):
        for i in range(f.alice_arity):
            cells.append(str(f.prob(0, i, j)))
    return ",".join(cells)


class _Candidate(NamedTuple):
    family: blackbox.StateFamily
    prior: tuple[float, ...]
    p_honest: float
    input_used: tuple[complex, ...] | int


def _score(states: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """Helstrom values ``(1 + tr|q0 rho0 - q1 rho1|) / 2`` for a stack of
    state pairs ``(n, 2, d, d)`` under priors ``(n, 2)``, with one stacked
    ``eigvalsh``: no measurement is built and no certificate is run."""
    q = np.asarray(priors, dtype=float)[:, :, None, None]
    delta = q[:, 0] * states[:, 0]
    delta -= q[:, 1] * states[:, 1]
    return 0.5 * (1.0 + np.abs(np.linalg.eigvalsh(delta)).sum(axis=-1))


def _select(candidates: Sequence[_Candidate]) -> tuple[_Candidate, list[float]]:
    """Score every candidate and keep the largest advantage, the first on a
    tie; the scores are returned for the caller's notes and oracles."""
    states = np.array([[s.matrix for s in c.family.states] for c in candidates])
    scores = _score(states, [c.prior for c in candidates]).tolist()
    advantages = [s - c.p_honest for s, c in zip(scores, candidates)]
    return candidates[advantages.index(max(advantages))], scores


def _measure(
    function_id: str,
    scenario: str,
    c: _Candidate,
    notes: Sequence[str],
    optimize: bool = False,
) -> AttackReport:
    """Build, evaluate and certify the measurement for one candidate."""
    notes = list(notes)
    states = c.family.states
    if len(states) == 2:
        result = discrim.helstrom(states[0], states[1], c.prior[0])
        p_attack = result.success_probability
        certified, residuals = result.certified_optimal, result.residuals
    else:
        povm = discrim.square_root_measurement(c.family, c.prior)
        p_attack = discrim.povm_success(c.family, c.prior, povm)
        certified, residuals = discrim.certify_optimal(c.family, c.prior, povm)
        if optimize:
            refined = discrim.optimize_povm(c.family, c.prior, seed_povm=povm)
            notes.append(
                "fixed-point optimum p={:.17g} certified={}".format(
                    refined.success_probability, refined.certified_optimal
                )
            )
    return AttackReport(
        function_id=function_id,
        scenario=scenario,
        prior=c.prior,
        input_used=c.input_used,
        p_honest=c.p_honest,
        p_attack=p_attack,
        advantage=p_attack - c.p_honest,
        certified=certified,
        residuals=residuals,
        notes="; ".join(notes),
    )


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
    as given.  The canonical form only names the class (``function_id``)
    and its ``a``/``b`` labels in the notes.  ``optimize=True`` additionally
    runs the fixed-point search and reports its value in the notes; the
    headline attack number stays the pretty-good-measurement success.
    """
    canon = funcspec.canonicalize_3x3(f)
    amps = (
        blackbox.uniform_superposition(3)
        if superposition is None
        else blackbox.amplitude_vector(superposition, 3)
    )
    q = tuple(funcspec.uniform_prior(3) if prior is None else funcspec.validate_prior(prior, 3))
    candidate = _Candidate(
        blackbox.output_family(f, amps),
        q,
        discrim.honest_probability(f, q),
        tuple(complex(x) for x in amps),
    )
    notes = [f"canonical labels a={canon.a} b={canon.b}"]
    return _measure(det3x3_function_id(canon), "deterministic-3x3", candidate, notes, optimize)


def _two_sided_exception(f: FunctionSpec) -> bool:
    """Tables where only one party's input matters (exact rational check)."""
    independent_of_alice = all(
        f.prob(k, 0, j) == f.prob(k, i, j)
        for k in range(f.outcome_count)
        for j in range(f.bob_arity)
        for i in range(f.alice_arity)
    )
    independent_of_bob = all(
        f.prob(k, i, 0) == f.prob(k, i, j)
        for k in range(f.outcome_count)
        for i in range(f.alice_arity)
        for j in range(f.bob_arity)
    )
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
    if _two_sided_exception(f):
        q0 = sweep[0]
        p_honest = discrim.honest_probability(f, (q0, 1.0 - q0))
        return AttackReport(
            function_id=function_id,
            scenario="nondet-two-sided",
            prior=(q0, 1.0 - q0),
            input_used=None,
            p_honest=p_honest,
            p_attack=p_honest,
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
    family = blackbox.output_family(f, amps)
    inputs = tuple(complex(x) for x in amps)
    candidates = [
        _Candidate(family, (q0, 1.0 - q0), discrim.honest_probability(f, (q0, 1.0 - q0)), inputs)
        for q0 in sweep
    ]
    best, scores = _select(candidates)
    lines = []
    for c, score in zip(candidates, scores):
        q0 = c.prior[0]
        if superposition is None:
            ev = discrim.weighted_difference_eigenvalues(f, q0)
            closed = 0.5 * (1.0 + ev.lam_plus - ev.lam_minus + ev.mu_plus - ev.mu_minus)
            gap = abs(closed - score)
            if gap > 1e-10:
                raise ArithmeticError(
                    f"closed-form and spectral success disagree by {gap:.3g} at q0={q0}"
                )
        lines.append(f"q0={q0:.17g} advantage={score - c.p_honest:.17g}")
    return _measure(function_id, "nondet-two-sided", best, lines)


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
    p_honest = discrim.honest_probability(f, prior)
    candidates = [
        _Candidate(blackbox.output_family(f, i), prior, p_honest, i)
        for i in range(f.alice_arity)
    ]
    best, scores = _select(candidates)
    lines = [
        f"i={i} basis_rate={discrim.per_input_basis_rate(f, i, prior):.17g}"
        f" optimal={score:.17g}"
        f" basis_measurement_optimal={discrim.basis_measurement_optimal(f, i, q0)}"
        for i, score in enumerate(scores)
    ]
    return _measure(f"nondet1sided:{_rational_id(f)}", "nondet-one-sided", best, lines)


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
    f = funcspec.builtin("ot")
    prior = (0.5, 0.5)
    family = blackbox.output_family(f, 0, role="bob")
    p_honest = discrim.honest_probability(funcspec.transpose(f), prior)
    report = _measure("ot", "oblivious-transfer", _Candidate(family, prior, p_honest, 0), [])
    explicit = ot_explicit_povm()
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


def _golden_max(fn, lo: float, hi: float, iters: int = 80) -> tuple[float, float]:
    ratio = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - ratio * (b - a)
    d = a + ratio * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - ratio * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + ratio * (b - a)
            fd = fn(d)
    mid = (a + b) / 2.0
    return mid, fn(mid)


def verify_counterexample(grid_points: int = 2001) -> AttackReport:
    """Confirm that no real-amplitude superposition beats honest play on the
    built-in counterexample table at the balanced prior.

    The input ``(cos t, sin t)`` is swept over a grid on [0, pi], whose
    states are built, validated and scored as one stack, and the best point
    is refined by golden-section search, scored the same way; no measurement
    is built for either.  Only the best point is measured and certified,
    through :func:`blackbox.output_family`, and its advantage must not
    exceed the minimum-gain threshold.  Complex input phases are outside the
    box's amplitude convention and are not explored.
    """
    f = funcspec.builtin("counterexample")
    prior = (0.5, 0.5)
    p_honest = discrim.honest_probability(f, prior)

    def scores(thetas) -> np.ndarray:
        amps = np.array([(math.cos(t), math.sin(t)) for t in thetas])
        return _score(blackbox.alice_reduced_states(f, amps), [prior] * len(amps))

    thetas = np.linspace(0.0, math.pi, grid_points)
    values = scores(thetas)
    idx = int(values.argmax())
    best_theta = thetas[idx]
    lo = thetas[max(idx - 1, 0)]
    hi = thetas[min(idx + 1, grid_points - 1)]
    refined_theta, refined_value = _golden_max(lambda t: float(scores([t])[0]), lo, hi)
    if refined_value > values[idx]:
        best_theta = refined_theta
    notes = (
        f"max over {grid_points}-point grid plus golden-section refinement;"
        f" best theta={best_theta:.17g}; real amplitudes only"
    )
    amps = (math.cos(best_theta), math.sin(best_theta))
    best = _Candidate(
        blackbox.output_family(f, amps), prior, p_honest, tuple(complex(x) for x in amps)
    )
    report = _measure("counterexample", "counterexample", best, [notes])
    if report.advantage > active().adv_min:
        raise ArithmeticError(
            f"counterexample admits advantage {report.advantage:.3g} at theta={best_theta:.12g}"
        )
    return report


def sweep_all_3x3(workers: int | None = None) -> list[AttackReport]:
    """Run the deterministic attack over every valid 3x3 equivalence class.

    Results are sorted by canonical identifier.  ``workers`` is accepted and
    ignored: the sweep runs serially, which measured faster than a thread
    pool on these small numpy calls.  A non-positive advantage anywhere
    raises :class:`SweepFailure` with the offending tables.
    """
    reports = [attack_deterministic_3x3(f) for f in funcspec.enumerate_valid_3x3()]
    reports.sort(key=lambda r: r.function_id)
    bad = [r for r in reports if r.advantage <= active().adv_min]
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
