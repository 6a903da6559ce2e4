"""Small dense-matrix helpers shared by the node families and the certificates.

Symmetric spectra come from LAPACK through ``numpy.linalg.eigvalsh``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spectral_norm", "symmetric_part"]


def symmetric_part(a: np.ndarray) -> np.ndarray:
    """Return (A + A^T)/2."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a + a.T)


def spectral_norm(matrix) -> float:
    """Largest singular value of a (possibly nonsymmetric) matrix."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise ValueError("matrix must be 2-D")
    return float(np.sqrt(max(np.linalg.eigvalsh(a.T @ a)[-1], 0.0)))
