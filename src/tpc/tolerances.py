"""Numerical tolerance constants.

Every matrix handled by this package is at most 12x12 in double precision,
so fixed absolute tolerances dominate accumulated rounding by orders of
magnitude.  The constants are fixed; every report document records them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass(frozen=True)
class Tolerances:
    herm: float = 1e-10      # max |M - M^dag| entry accepted as Hermitian
    trace: float = 1e-10     # unit-trace / unit-norm slack
    psd: float = 1e-9        # most negative eigenvalue accepted as PSD
    recon: float = 1e-9      # reconstruction / completeness residual
    rank: float = 1e-10      # support cutoff, relative to largest eigenvalue
    cert: float = 1e-8       # optimality-certificate residual threshold
    adv_min: float = 1e-9    # smallest advantage counted as a real gain


# The name each field carries in a report document.
_DOCUMENT_NAMES = {
    "herm": "TOL_HERM",
    "trace": "TOL_TRACE",
    "psd": "TOL_PSD",
    "recon": "TOL_RECON",
    "rank": "RANK_TOL",
    "cert": "CERT_TOL",
    "adv_min": "ADV_MIN",
}

_ACTIVE = Tolerances()


def active() -> Tolerances:
    return _ACTIVE


def environment_summary() -> str:
    """One-line ``NAME=value`` rendering of the constants in effect."""
    tol = active()
    parts = [f"{_DOCUMENT_NAMES[f.name]}={format(getattr(tol, f.name), '.17g')}" for f in fields(tol)]
    return " ".join(sorted(parts))
