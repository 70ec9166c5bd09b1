"""Numerical tolerance constants.

Every matrix handled by this package is at most 12x12 in double precision,
so fixed absolute tolerances dominate accumulated rounding by orders of
magnitude.  The defaults can be adjusted through the environment variable
``TPC_TOL_OVERRIDE`` (comma-separated ``NAME=value`` pairs, e.g.
``TPC_TOL_OVERRIDE=TOL_PSD=1e-8,CERT_TOL=1e-7``); the values in effect are
recorded in every report document.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace


@dataclass(frozen=True)
class Tolerances:
    herm: float = 1e-10      # max |M - M^dag| entry accepted as Hermitian
    trace: float = 1e-10     # unit-trace / unit-norm slack
    psd: float = 1e-9        # most negative eigenvalue accepted as PSD
    recon: float = 1e-9      # reconstruction / completeness residual
    rank: float = 1e-10      # support cutoff, relative to largest eigenvalue
    cert: float = 1e-8       # optimality-certificate residual threshold
    adv_min: float = 1e-9    # smallest advantage counted as a real gain


# Environment / report names for each field.
ENV_NAMES = {
    "TOL_HERM": "herm",
    "TOL_TRACE": "trace",
    "TOL_PSD": "psd",
    "TOL_RECON": "recon",
    "RANK_TOL": "rank",
    "CERT_TOL": "cert",
    "ADV_MIN": "adv_min",
}

_FIELD_TO_ENV = {v: k for k, v in ENV_NAMES.items()}


def parse_overrides(text: str) -> dict[str, float]:
    """Parse a ``NAME=value,NAME=value`` override string."""
    out: dict[str, float] = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        name, sep, value = item.partition("=")
        name = name.strip().upper()
        if not sep or name not in ENV_NAMES:
            raise ValueError(f"unknown tolerance override {item!r}")
        out[ENV_NAMES[name]] = float(value)
    return out


def from_env() -> Tolerances:
    text = os.environ.get("TPC_TOL_OVERRIDE", "")
    return replace(Tolerances(), **parse_overrides(text)) if text else Tolerances()


_ACTIVE = from_env()


def active() -> Tolerances:
    return _ACTIVE


def environment_summary(tol: Tolerances | None = None) -> str:
    """One-line ``NAME=value`` rendering of the constants in effect."""
    tol = tol or active()
    parts = []
    for f in fields(tol):
        parts.append(f"{_FIELD_TO_ENV[f.name]}={format(getattr(tol, f.name), '.17g')}")
    return " ".join(sorted(parts))
