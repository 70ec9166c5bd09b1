"""Numerical tolerance constants.

Every matrix handled by this package is at most 12x12 in double precision,
so fixed absolute tolerances dominate accumulated rounding by orders of
magnitude.  The constants are fixed; every report document records them
under these names.
"""

from __future__ import annotations

TOL_HERM = 1e-10   # max |M - M^dag| entry accepted as Hermitian
TOL_TRACE = 1e-10  # unit-trace / unit-norm slack
TOL_PSD = 1e-9     # most negative eigenvalue accepted as PSD
TOL_RECON = 1e-9   # reconstruction / completeness residual
RANK_TOL = 1e-10   # support cutoff, relative to largest eigenvalue
CERT_TOL = 1e-8    # optimality-certificate residual and dual-bracket threshold
ADV_MIN = 1e-9     # smallest advantage counted as a real gain


def environment_summary() -> str:
    """One-line ``NAME=value`` rendering of the constants, sorted by name."""
    values = {
        "ADV_MIN": ADV_MIN, "CERT_TOL": CERT_TOL, "RANK_TOL": RANK_TOL, "TOL_HERM": TOL_HERM,
        "TOL_PSD": TOL_PSD, "TOL_RECON": TOL_RECON, "TOL_TRACE": TOL_TRACE,
    }
    return " ".join(f"{name}={value:.17g}" for name, value in sorted(values.items()))
