"""Deterministic eigenvalues of symmetric rational matrices and harmonic
energy.

The solver is a cyclic Jacobi sweep with a fixed (row-major) rotation
order and no randomization, so a given matrix always produces bit-identical
output. Exact entries are converted to floats once, with correct rounding,
and every tolerance is relative to the Frobenius norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graphs import Graph, encode_graph6
from .harmonic import harmonic_matrix

DEFAULT_TOL = 1e-12
MAX_SWEEPS = 100


class JacobiConvergenceError(RuntimeError):
    """Eigensolver failed to converge; carries the final off-diagonal residual."""

    def __init__(self, residual: float, sweeps: int):
        super().__init__(
            f"Jacobi sweep did not converge after {sweeps} sweeps "
            f"(off-diagonal residual {residual:.3e}); the input looks pathological"
        )
        self.residual = residual
        self.sweeps = sweeps


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues sorted non-increasing, plus solver diagnostics."""

    eigenvalues: tuple[float, ...]
    off_norm: float
    sweeps: int

    def __len__(self):
        return len(self.eigenvalues)

    def __iter__(self):
        return iter(self.eigenvalues)


@dataclass(frozen=True)
class EnergyReport:
    """Harmonic energy of one graph: the energy value, the graph6
    fingerprint of the input, and the full spectrum."""

    he: float
    graph6: str
    spectrum: Spectrum


def _to_float_matrix(m: Sequence[Sequence[Fraction | int | float]]) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in m], dtype=float)


def _off_norm(a: np.ndarray) -> float:
    off = a - np.diag(np.diag(a))
    return float(np.linalg.norm(off))


def jacobi_eigenvalues(
    a: np.ndarray, tol: float = DEFAULT_TOL, max_sweeps: int = MAX_SWEEPS
) -> tuple[np.ndarray, float, int]:
    """Cyclic Jacobi on a symmetric float matrix.

    Returns (eigenvalues sorted non-increasing, final off-diagonal norm,
    sweeps used). Raises JacobiConvergenceError when the off-diagonal norm
    is still above tol * ||a||_F after max_sweeps sweeps.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n == 0:
        return np.array([]), 0.0, 0
    fro = float(np.linalg.norm(a))
    threshold = tol * fro
    sweeps = 0
    off = _off_norm(a)
    while off > threshold:
        if sweeps >= max_sweeps:
            raise JacobiConvergenceError(off, sweeps)
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                diff = a[q, q] - a[p, p]
                if abs(apq) < 1e-36 * abs(diff):
                    # theta would overflow; the rotation angle is ~apq/diff.
                    t = apq / diff
                else:
                    theta = diff / (2.0 * apq)
                    if theta == 0.0:
                        t = 1.0
                    else:
                        t = math.copysign(1.0, theta) / (
                            abs(theta) + math.sqrt(theta * theta + 1.0)
                        )
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
        sweeps += 1
        off = _off_norm(a)
    eig = np.sort(np.diag(a))[::-1]
    return eig, off, sweeps


def eigenvalues_symmetric(
    m: Sequence[Sequence[Fraction | int | float]], tol: float = DEFAULT_TOL
) -> Spectrum:
    """Spectrum of an exact symmetric matrix via the Jacobi solver."""
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    a = _to_float_matrix(m)
    if a.size and not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    eig, off, sweeps = jacobi_eigenvalues(a, tol)
    return Spectrum(tuple(float(x) for x in eig), off, sweeps)


def harmonic_energy(g: Graph, tol: float = DEFAULT_TOL) -> EnergyReport:
    """Sum of absolute eigenvalues of the harmonic matrix."""
    spec = eigenvalues_symmetric(harmonic_matrix(g), tol)
    he = float(sum(abs(x) for x in spec.eigenvalues))
    return EnergyReport(he, encode_graph6(g), spec)


def spectrum_json(report: EnergyReport) -> dict:
    return {
        "graph6": report.graph6,
        "method": "jacobi",
        "he": report.he,
        "eigenvalues": list(report.spectrum.eigenvalues),
        "off_norm": report.spectrum.off_norm,
        "sweeps": report.spectrum.sweeps,
    }
