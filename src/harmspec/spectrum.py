"""Deterministic eigenvalues of symmetric rational matrices and harmonic
energy.

The solver is Jacobi's method in the round-robin ("parallel") ordering of
Brent and Luk (Golub and Van Loan, Matrix Computations, section 8.5). One
sweep annihilates every off-diagonal pair once, in n - 1 rounds of n/2
disjoint pairs (n rounds for odd n); the rotations of a round are applied
together as one column update and one row update.

The solver takes a stack of matrices of any orders, zero-padded to the
largest, and does round r of every matrix in the stack with the same
numpy calls; a matrix of order n takes part only in the rounds of its own
n-order schedule. At the orders used here the time of a round is the
overhead of its ~50 calls, not their arithmetic, so a stack of k matrices
costs far less than k solves. harmonic_energies sorts its graphs by order
and cuts them into stacks with order_batches, the rule by which the
characteristic polynomial kernel cuts its calls too. Each matrix keeps
its own live pairs, and its Frobenius threshold, off-diagonal norm and
sweep count come from its own n x n block. It leaves the stack once its
off-diagonal norm is at or below its threshold; its arithmetic, and so
every bit of its results, is the same in any stack as alone. A single
matrix is a stack of one. The order is fixed and there is no
randomization, so a given matrix always produces bit-identical output.
Harmonic matrices are built as floats (harmonic_float_matrix), and every
tolerance is relative to the Frobenius norm.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graphs import Graph, encode_graph6
from .harmonic import harmonic_float_matrix

DEFAULT_TOL = 1e-12
MAX_SWEEPS = 100
UNIT_ROUNDOFF = 2.0**-53
# The padded matrix entries of one batch under order_batches: 16 matrices
# of order 40. Jacobi stacks larger than 16 at order 40 gain nothing.
BATCH_ENTRIES = 16 * 40 * 40


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


@dataclass(frozen=True)
class EnergyReport:
    """Harmonic energy of one graph: the energy value, the graph6
    fingerprint of the input, and the full spectrum."""

    he: float
    graph6: str
    spectrum: Spectrum


def error_bounds(spectrum: Spectrum) -> tuple[float, float]:
    """(e, E): how far each of the spectrum's eigenvalues, and the harmonic
    energy HE summed from them, may lie from the exact ones of the matrix
    A the solver was given. Two solver results agree when they differ by at
    most the sum of their bounds. With u = 2^-53, n eigenvalues and
    ||A||_F = sqrt(sum of lambda^2):

      e = off_norm + 12 n sweeps u ||A||_F,
      E = sqrt(n) e + n u HE.

    A sweep is n - 1 or n rounds, each applied as two stages of disjoint
    rotations (the column update, then the row update), so about 2n
    stages. A stage applied with the computed (c, s) is an exact orthogonal
    stage applied to its input perturbed by at most 6u times the input's
    Frobenius norm (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., section 19.6), and orthogonal stages keep that norm; zeroing
    the rotated entries is a perturbation of the same order. So the final
    matrix D + F, with D its diagonal and ||F||_F = off_norm, is
    orthogonally similar to A + Delta with ||Delta||_F <= 12 n sweeps u
    ||A||_F, to first order in u.

    By Weyl's inequality each sorted eigenvalue of A is within ||Delta||_2
    of the same eigenvalue of A + Delta, which is within ||F||_2 of the
    sorted diagonal: hence e. By the Hoffman-Wielandt inequality the same
    two steps bound the 2-norm of the vector of all n errors by
    ||Delta||_F + ||F||_F <= e, so the errors sum to at most sqrt(n) e. As
    ||x| - |y|| <= |x - y|, that also bounds the error of the exact sum of
    |eigenvalues|, and summing them in floats adds at most n u HE.

    A harmonic matrix is rounded from rationals, by at most u ||A||_F,
    which one sweep's share covers many times over; one that needs no sweep
    is zero. The bounds are as good as the first-order rounding model: a
    tie within them is not an exact certificate.
    """
    eig = spectrum.eigenvalues
    n, u = len(eig), UNIT_ROUNDOFF
    e = spectrum.off_norm + 12 * n * spectrum.sweeps * u * math.sqrt(math.fsum(x * x for x in eig))
    return e, math.sqrt(n) * e + n * u * math.fsum(abs(x) for x in eig)


def _norm(block: np.ndarray, off: bool = False) -> float:
    # The Frobenius norm of one n x n block (of its off-diagonal part when
    # off), by numpy's pairwise sum over the contiguous row-major entries,
    # so a matrix gets the same bits at any padding in any stack. A BLAS
    # dot product, as np.linalg.norm takes, sums in an order that depends
    # on the CPU kernel. A zeroed diagonal holds the entries of a - diag(a)
    # up to the sign of zero, which squaring drops.
    x = block.flatten()
    if off:
        x[:: len(block) + 1] = 0.0
    return math.sqrt(np.add.reduce(x * x))


def order_batches(orders: Sequence[int], least: int = 1) -> list[slice]:
    """Cut items sorted by ascending matrix order into consecutive batches,
    one slice each: a batch takes ``least`` items (all that are left, if
    fewer), then more while its count times the square of its largest
    order stays within BATCH_ENTRIES."""
    batches = []
    start = 0
    while start < len(orders):
        stop = min(start + least, len(orders))
        while stop < len(orders) and (stop + 1 - start) * orders[stop] ** 2 <= BATCH_ENTRIES:
            stop += 1
        batches.append(slice(start, stop))
        start = stop
    return batches


@functools.lru_cache(maxsize=None)
def _round_robin(n: int) -> np.ndarray:
    """The (3, n(n-1)/2) table of round r, p and q of every pair p < q of
    one sweep, in round order: index 0 stays put and the others rotate one
    place per round, so every pair meets once. For odd n a dummy index n
    pads the tournament and its pairs are dropped."""
    m = n + (n & 1)
    ring = list(range(m))
    table = []
    for r in range(m - 1):
        table += sorted((r, min(xy), max(xy)) for xy in zip(ring[: m // 2], ring[::-1]) if max(xy) < n)
        ring = [ring[0], ring[-1], *ring[1:-1]]
    rpq = np.array(table, dtype=np.intp).reshape(-1, 3).T
    rpq.flags.writeable = False  # shared by every caller
    return rpq


# The sweeps of a stack share one key until a member converges, so a few
# entries serve a solve; each holds eight indices per pair of the stack.
@functools.lru_cache(maxsize=8)
def _stacked_rounds(orders: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], ...]:
    """The rounds of one sweep for k matrices of the given orders, zero-
    padded to the largest order N and held as w[row, k, col]: round r pairs
    round r of _round_robin(n) of every member of order n that has one.
    Per round: the flat indices into w of the entries (p, q), (q, p),
    (p, p) and (q, q) of every pair, the indices of columns p and q in
    w.reshape(N, k*N) and of rows p and q in w.reshape(N*k, N); first as
    one 2-D array, for dropping dead pairs in one call, then as its rows."""
    k, n = len(orders), max(orders)
    tables = [_round_robin(order) for order in orders]
    R, P, Q = np.concatenate(tables, axis=1)
    K = np.repeat(np.arange(k, dtype=np.intp), [table.shape[1] for table in tables])
    by_round = np.argsort(R, kind="stable")
    R, P, Q, K = R[by_round], P[by_round], Q[by_round], K[by_round]
    PK, QK = P * k + K, Q * k + K
    index = np.stack([PK * n + Q, QK * n + P, PK * n + P, QK * n + Q, K * n + P, K * n + Q, PK, QK])
    index.flags.writeable = False  # shared by every caller
    cuts = np.flatnonzero(np.diff(R)) + 1
    return tuple((part, *part) for part in np.split(index, cuts, axis=1))


def _sweep(w: np.ndarray, orders: tuple[int, ...]) -> None:
    """One round-robin sweep, in place, over the stack w[row, k, col] of
    matrices of the given orders, zero-padded to the largest. Within a
    round, pairs whose entry is already 0.0 are left out."""
    n, k, _ = w.shape
    flat, cols, rows = w.reshape(-1), w.reshape(n, k * n), w.reshape(n * k, n)
    for index, pq, qp, pp, qq, col_p, col_q, row_p, row_q in _stacked_rounds(orders):
        apq = flat[pq]
        if not apq.all():
            live = apq != 0.0
            if not live.any():
                continue
            pq, qp, pp, qq, col_p, col_q, row_p, row_q = index.compress(live, axis=1)
            apq = apq[live]
        diff = flat[qq] - flat[pp]
        # Where |apq| < 1e-36 |diff|, theta would overflow; the rotation
        # angle is then ~apq/diff. Dividing by diff there keeps theta
        # finite before that value is written over it.
        small = np.abs(apq) < 1e-36 * np.abs(diff)
        theta = diff / (2.0 * np.where(small, diff, apq))
        t = np.copysign(1.0, theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
        np.divide(apq, diff, out=t, where=small)
        c = 1.0 / np.sqrt(t * t + 1.0)
        s = t * c
        a_p, a_q = cols.take(col_p, axis=1), cols.take(col_q, axis=1)
        cols[:, col_p] = c * a_p - s * a_q
        cols[:, col_q] = s * a_p + c * a_q
        c, s = c[:, None], s[:, None]
        a_p, a_q = rows.take(row_p, axis=0), rows.take(row_q, axis=0)
        rows[row_p] = c * a_p - s * a_q
        rows[row_q] = s * a_p + c * a_q
        flat[pq] = 0.0
        flat[qp] = 0.0


def jacobi_eigenvalues_stack(
    stack: Sequence[np.ndarray] | np.ndarray,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = MAX_SWEEPS,
) -> list[tuple[np.ndarray, float, int]]:
    """Round-robin Jacobi on a stack of k symmetric float matrices of any
    orders, zero-padded to the largest. Every matrix gets the rounds, live
    pairs, threshold and sweep count it gets alone, so its results are
    bit-identical to a stack of one.

    Returns one (eigenvalues sorted non-increasing, final off-diagonal norm,
    sweeps used) triple per matrix. Raises JacobiConvergenceError for the
    first matrix whose off-diagonal norm is still above tol * ||a||_F after
    max_sweeps sweeps, and ValueError for a tol that is not finite and
    positive.
    """
    _check_tol(tol)
    mats = [np.asarray(m, dtype=float) for m in stack]
    for m in mats:
        if m.size and (m.ndim != 2 or m.shape[0] != m.shape[1]):
            raise ValueError(f"matrices must be square, got shape {m.shape}")
    orders = [len(m) for m in mats]
    a = np.zeros((len(mats), max(orders, default=0), max(orders, default=0)))
    for block, m in zip(a, mats):
        block[: len(m), : len(m)] = m
    thresholds = [tol * _norm(m) for m in mats]
    offs = [_norm(m, off=True) for m in mats]
    sweeps = [0] * len(mats)
    active = [i for i, (off, threshold) in enumerate(zip(offs, thresholds)) if off > threshold]
    done = 0
    while active:
        if done >= max_sweeps:
            raise JacobiConvergenceError(offs[active[0]], done)
        live = tuple(orders[i] for i in active)
        size = max(live)
        w = np.ascontiguousarray(a[active, :size, :size].transpose(1, 0, 2))
        _sweep(w, live)
        a[active, :size, :size] = w.transpose(1, 0, 2)
        done += 1
        for i in active:
            offs[i] = _norm(a[i, : orders[i], : orders[i]], off=True)
            sweeps[i] = done
        active = [i for i in active if offs[i] > thresholds[i]]
    return [
        (np.sort(block.diagonal()[:n])[::-1], off, count)
        for block, n, off, count in zip(a, orders, offs, sweeps)
    ]


def jacobi_eigenvalues(
    a: np.ndarray, tol: float = DEFAULT_TOL, max_sweeps: int = MAX_SWEEPS
) -> tuple[np.ndarray, float, int]:
    """Round-robin Jacobi on one symmetric float matrix: a stack of one.

    Returns (eigenvalues sorted non-increasing, final off-diagonal norm,
    sweeps used). Raises JacobiConvergenceError when the off-diagonal norm
    is still above tol * ||a||_F after max_sweeps sweeps.
    """
    return jacobi_eigenvalues_stack([a], tol, max_sweeps)[0]


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol}")


def eigenvalues_symmetric(
    m: Sequence[Sequence[Fraction | int | float]], tol: float = DEFAULT_TOL
) -> Spectrum:
    """Spectrum of an exact symmetric matrix via the Jacobi solver."""
    a = np.array(m, dtype=float)
    if a.size and not np.array_equal(a, a.T):
        raise ValueError("matrix must be symmetric")
    eig, off, sweeps = jacobi_eigenvalues(a, tol)
    return Spectrum(tuple(float(x) for x in eig), off, sweeps)


def harmonic_energies(graphs: Sequence[Graph], tol: float = DEFAULT_TOL) -> list[EnergyReport]:
    """Harmonic energy of every graph, in input order. The graphs, sorted
    by order, are cut into stacks by order_batches, each solved in one
    call."""
    _check_tol(tol)
    by_order = sorted(range(len(graphs)), key=lambda i: graphs[i].n)
    reports: list[EnergyReport | None] = [None] * len(graphs)
    for batch in order_batches([graphs[i].n for i in by_order]):
        chunk = by_order[batch]
        stack = [harmonic_float_matrix(graphs[i]) for i in chunk]
        for i, (eig, off, sweeps) in zip(chunk, jacobi_eigenvalues_stack(stack, tol)):
            spec = Spectrum(tuple(float(x) for x in eig), off, sweeps)
            he = float(sum(abs(x) for x in spec.eigenvalues))
            reports[i] = EnergyReport(he, encode_graph6(graphs[i]), spec)
    return reports


def harmonic_energy(g: Graph, tol: float = DEFAULT_TOL) -> EnergyReport:
    """Sum of absolute eigenvalues of the harmonic matrix."""
    return harmonic_energies([g], tol)[0]


def spectrum_json(report: EnergyReport) -> dict:
    return {
        "graph6": report.graph6,
        "method": "jacobi",
        "he": report.he,
        "eigenvalues": list(report.spectrum.eigenvalues),
        "off_norm": report.spectrum.off_norm,
        "sweeps": report.spectrum.sweeps,
    }
