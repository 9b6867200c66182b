"""Deterministic eigenvalues of symmetric rational matrices and harmonic
energy.

The solver is Jacobi's method in the round-robin ("parallel") ordering of
Brent and Luk (Golub and Van Loan, Matrix Computations, section 8.5). One
sweep annihilates every off-diagonal pair once, in n - 1 rounds of n/2
disjoint pairs (n rounds for odd n); the rotations of a round are applied
together as one column update and one row update.

The solver zero-pads a stack of matrices of any orders once, to the
largest, into one array w[row, k, col] kept for the whole solve, and does
round r of every matrix with the same numpy calls, from round tables built
once; a matrix of order n takes part only in the rounds of its own n-order
schedule. At the orders used here the time of a round is the overhead of
its ~50 calls, not their arithmetic, so a stack of k matrices costs far
less than k solves. harmonic_energies sorts its graphs by order and cuts
them into stacks with order_batches, the rule by which the characteristic
polynomial kernel cuts its calls too. Each matrix keeps its own live
pairs, and its Frobenius threshold, off-diagonal norm and sweep count come
from its own n x n block. Once its off-diagonal norm is at or below its
threshold, its pairs leave the round tables; its arithmetic, and so every
bit of its results, is the same in any stack as alone. A single matrix is
a stack of one. The order is fixed and there is no randomization, so a
given matrix always produces bit-identical output. A harmonic matrix is
read as floats from its table, harmonic_entries.

Every solve returns Spectrum values: one per matrix of a stack, and
harmonic_energies one per graph. Every output reads them; the harmonic
energy HE is a Spectrum's property, computed from its eigenvalues and
stored nowhere.

The stopping rule is fixed: a matrix is done once its off-diagonal norm is
at most DEFAULT_TOL times its Frobenius norm, and JacobiConvergenceError
ends a solve that needs more than MAX_SWEEPS sweeps. No caller sets
either: every decision that reads a spectrum uses its error_bounds, which
come from the off-diagonal norm and sweeps the solver reports.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import Graph
from .harmonic import harmonic_entries

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


class Spectrum(NamedTuple):
    """The result of one Jacobi solve: the eigenvalues, as Python floats
    sorted non-increasing, the final off-diagonal norm and the sweeps used.
    As a tuple it unpacks as (eigenvalues, off_norm, sweeps), so no code may
    iterate a Spectrum for its eigenvalues: they are ``eigenvalues``."""

    eigenvalues: tuple[float, ...]
    off_norm: float
    sweeps: int

    @property
    def he(self) -> float:
        """The harmonic energy: the sum of the absolute eigenvalues."""
        return float(sum(abs(x) for x in self.eigenvalues))


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


def _stacked_rounds(orders: Sequence[int]) -> list[np.ndarray]:
    """The rounds of one sweep for k matrices of the given orders, zero-
    padded to the largest order N and held as w[row, k, col]: round r pairs
    round r of _round_robin(n) of every member of order n that has one.
    Each round is one 2-D array with a column per pair and nine rows: the
    flat indices into w of the entries (p, q), (q, p), (p, p) and (q, q),
    the indices of columns p and q in w.reshape(N, k*N) and of rows p and
    q in w.reshape(N*k, N), and the pair's member."""
    k, n = len(orders), max(orders)
    tables = [_round_robin(order) for order in orders]
    R, P, Q = np.concatenate(tables, axis=1)
    K = np.repeat(np.arange(k, dtype=np.intp), [table.shape[1] for table in tables])
    by_round = np.argsort(R, kind="stable")
    R, P, Q, K = R[by_round], P[by_round], Q[by_round], K[by_round]
    PK, QK = P * k + K, Q * k + K
    index = np.stack([PK * n + Q, QK * n + P, PK * n + P, QK * n + Q, K * n + P, K * n + Q, PK, QK, K])
    return np.split(index, np.flatnonzero(np.diff(R)) + 1, axis=1)


def _sweep(w: np.ndarray, rounds: list[np.ndarray]) -> None:
    """One round-robin sweep, in place, over the stack w[row, k, col] by
    round tables of _stacked_rounds. Within a round, pairs whose entry is
    already 0.0 are left out."""
    n, k, _ = w.shape
    flat, cols, rows = w.reshape(-1), w.reshape(n, k * n), w.reshape(n * k, n)
    for index in rounds:
        pq, qp, pp, qq, col_p, col_q, row_p, row_q, _ = index
        apq = flat[pq]
        if not apq.all():
            live = apq != 0.0
            if not live.any():
                continue
            pq, qp, pp, qq, col_p, col_q, row_p, row_q, _ = index.compress(live, axis=1)
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


def jacobi_eigenvalues_stack(stack: Sequence[np.ndarray] | np.ndarray) -> list[Spectrum]:
    """Round-robin Jacobi on a stack of k square symmetric float matrices
    of any orders (ValueError otherwise; an empty 1-D member has order 0),
    zero-padded once to the largest. Every matrix gets the rounds, live
    pairs, threshold and sweep count it gets alone, so its results are
    bit-identical to a stack of one.

    Returns one Spectrum per matrix. Raises JacobiConvergenceError for the
    first matrix whose off-diagonal norm is still above DEFAULT_TOL *
    ||a||_F after MAX_SWEEPS sweeps.
    """
    mats = [np.asarray(m, dtype=float) for m in stack]
    for m in mats:
        if m.shape != (0,) and (m.ndim != 2 or m.shape[0] != m.shape[1]):
            raise ValueError(f"matrices must be square, got shape {m.shape}")
        if not np.array_equal(m, m.T):
            raise ValueError("matrix must be symmetric")
    orders = [len(m) for m in mats]
    w = np.zeros((max(orders, default=0), len(mats), max(orders, default=0)))
    for i, m in enumerate(mats):
        w[: len(m), i, : len(m)] = m
    thresholds = [DEFAULT_TOL * _norm(m) for m in mats]
    offs = [_norm(m, off=True) for m in mats]
    sweeps = [0] * len(mats)
    active = [i for i, (off, threshold) in enumerate(zip(offs, thresholds)) if off > threshold]
    rounds = _stacked_rounds(orders) if active else []
    done, held = 0, len(mats)
    while active:
        if done >= MAX_SWEEPS:
            raise JacobiConvergenceError(offs[active[0]], done)
        if len(active) < held:
            keep = np.zeros(len(mats), dtype=bool)
            keep[active] = True
            rounds = [r for r in (r.compress(keep[r[-1]], axis=1) for r in rounds) if r.size]
            held = len(active)
        _sweep(w, rounds)
        done += 1
        for i in active:
            offs[i] = _norm(w[: orders[i], i, : orders[i]], off=True)
            sweeps[i] = done
        active = [i for i in active if offs[i] > thresholds[i]]
    return [
        Spectrum(tuple(np.sort(w[:n, i, :n].diagonal())[::-1].tolist()), off, count)
        for i, (n, off, count) in enumerate(zip(orders, offs, sweeps))
    ]


def jacobi_eigenvalues(a: np.ndarray) -> Spectrum:
    """Round-robin Jacobi on one symmetric float matrix: a stack of one.
    Raises JacobiConvergenceError when the off-diagonal norm is still above
    DEFAULT_TOL * ||a||_F after MAX_SWEEPS sweeps.
    """
    return jacobi_eigenvalues_stack([a])[0]


def eigenvalues_symmetric(m: Sequence[Sequence[Fraction | int | float]]) -> Spectrum:
    """Spectrum of an exact symmetric matrix via the Jacobi solver."""
    return jacobi_eigenvalues(m)


def harmonic_energies(graphs: Sequence[Graph]) -> list[Spectrum]:
    """The spectrum of every graph's harmonic matrix, in input order; its
    harmonic energy is the spectrum's ``he``. The graphs, sorted by order,
    are cut into stacks by order_batches, each solved in one call."""
    by_order = sorted(range(len(graphs)), key=lambda i: graphs[i].n)
    spectra: list[Spectrum | None] = [None] * len(graphs)
    for batch in order_batches([graphs[i].n for i in by_order]):
        chunk = by_order[batch]
        stack = [np.array(entries, dtype=float)[index]
                 for entries, index in (harmonic_entries(graphs[i]) for i in chunk)]
        for i, spectrum in zip(chunk, jacobi_eigenvalues_stack(stack)):
            spectra[i] = spectrum
    return spectra


def harmonic_energy(g: Graph) -> Spectrum:
    """The spectrum of the harmonic matrix of g; its ``he`` is the sum of
    the absolute eigenvalues."""
    return harmonic_energies([g])[0]
