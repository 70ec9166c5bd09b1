"""Numerical verification of superposition-input attacks on ideal
two-party classical computation boxes."""

from .attacks import (
    AttackReport,
    attack_deterministic_3x3,
    attack_nondet_one_sided,
    attack_nondet_two_sided,
    sweep_all_3x3,
    verify_counterexample,
)
from .blackbox import StateFamily, output_family
from .discrim import (
    DiscriminationResult,
    Povm,
    certify_optimal,
    helstrom,
    povm_success,
)
from .funcspec import (
    CanonicalForm3x3,
    FunctionSpec,
    canonicalize_3x3,
    enumerate_valid_3x3,
    parse_function_file,
)

__version__ = "0.1.0"

__all__ = [
    "AttackReport",
    "CanonicalForm3x3",
    "DiscriminationResult",
    "FunctionSpec",
    "Povm",
    "StateFamily",
    "attack_deterministic_3x3",
    "attack_nondet_one_sided",
    "attack_nondet_two_sided",
    "canonicalize_3x3",
    "certify_optimal",
    "enumerate_valid_3x3",
    "helstrom",
    "output_family",
    "parse_function_file",
    "povm_success",
    "sweep_all_3x3",
    "verify_counterexample",
]
