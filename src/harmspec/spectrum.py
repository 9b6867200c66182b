"""Deterministic eigenvalues of symmetric rational matrices and harmonic
energy.

The solver is Jacobi's method in the round-robin ("parallel") ordering of
Brent and Luk (Golub and Van Loan, Matrix Computations, section 8.5). One
sweep annihilates every off-diagonal pair once, in n - 1 rounds of n/2
disjoint pairs (n rounds for odd n); the rotations of a round are applied
together as one column update and one row update. The order is fixed and
there is no randomization, so a given matrix always produces bit-identical
output. Exact entries are converted to floats once, with correct rounding,
and every tolerance is relative to the Frobenius norm.
"""

from __future__ import annotations

import functools
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


@functools.lru_cache(maxsize=None)
def _round_robin(n: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The rounds (P, Q, P*n + Q) of one sweep: index 0 stays put and the
    others rotate one place per round, so every pair p < q meets once. For
    odd n a dummy index n pads the tournament and its pairs are dropped."""
    m = n + (n & 1)
    ring = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = sorted((min(xy), max(xy)) for xy in zip(ring[: m // 2], ring[::-1]) if max(xy) < n)
        if pairs:
            p, q = np.array(list(zip(*pairs)), dtype=np.intp)
            rounds.append((p, q, p * n + q))
            for index in rounds[-1]:
                index.flags.writeable = False  # shared by every caller
        ring = [ring[0], ring[-1], *ring[1:-1]]
    return tuple(rounds)


def jacobi_eigenvalues(
    a: np.ndarray, tol: float = DEFAULT_TOL, max_sweeps: int = MAX_SWEEPS
) -> tuple[np.ndarray, float, int]:
    """Round-robin Jacobi on a symmetric float matrix. Within a round,
    pairs whose entry is already 0.0 are left out.

    Returns (eigenvalues sorted non-increasing, final off-diagonal norm,
    sweeps used). Raises JacobiConvergenceError when the off-diagonal norm
    is still above tol * ||a||_F after max_sweeps sweeps.
    """
    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n == 0:
        return np.array([]), 0.0, 0
    flat = a.reshape(-1)
    diag = a.diagonal()
    fro = float(np.linalg.norm(a))
    threshold = tol * fro
    sweeps = 0
    off = _off_norm(a)
    while off > threshold:
        if sweeps >= max_sweeps:
            raise JacobiConvergenceError(off, sweeps)
        for p, q, pq in _round_robin(n):
            apq = flat[pq]
            live = apq != 0.0
            if not live.all():
                if not live.any():
                    continue
                p, q, apq = p[live], q[live], apq[live]
            diff = diag[q] - diag[p]
            # Where |apq| < 1e-36 |diff|, theta would overflow; the rotation
            # angle is then ~apq/diff. Dividing by diff there keeps theta
            # finite before that value is written over it.
            small = np.abs(apq) < 1e-36 * np.abs(diff)
            theta = diff / (2.0 * np.where(small, diff, apq))
            t = np.copysign(1.0, theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            np.divide(apq, diff, out=t, where=small)
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            col_p, col_q = a[:, p], a[:, q]
            a[:, p] = c * col_p - s * col_q
            a[:, q] = s * col_p + c * col_q
            c, s = c[:, None], s[:, None]
            row_p, row_q = a[p], a[q]
            a[p] = c * row_p - s * row_q
            a[q] = s * row_p + c * row_q
            a[p, q] = 0.0
            a[q, p] = 0.0
        sweeps += 1
        off = _off_norm(a)
    eig = np.sort(diag)[::-1]
    return eig, off, sweeps


def eigenvalues_symmetric(
    m: Sequence[Sequence[Fraction | int | float]], tol: float = DEFAULT_TOL
) -> Spectrum:
    """Spectrum of an exact symmetric matrix via the Jacobi solver."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
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
