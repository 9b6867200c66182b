"""Exact univariate polynomials over the rationals, characteristic
polynomials of rational symmetric matrices, and the closed-form harmonic
characteristic polynomials of the named graph families.

The characteristic polynomial is computed exactly by a multimodular
algorithm. Each row i of M is cleared by its own denominators: with s_i the
lcm of row i's, t one common factor and u_i = lcm(s_i, t)/t, the diagonal
scaling S = t*U makes S*M an integer matrix, and the integer polynomial
P(y) = det(yU - S*M) = det(U) * det(yI - t*M) gives det(xI - M) at y = t*x.
P is linear in each row, so its coefficient of y^k sums products of k of
the u_i and a principal minor of S*M on the other rows; by Hadamard's
inequality no coefficient exceeds prod_i (u_i + ||row i of S*M||) in
absolute value. t is gcd(s_i) or lcm(s_i), whichever makes the bound
smaller; lcm(s_i) is the single global scale, so no matrix needs a larger
bound than under it. Modulo each of as many primes below 2^31, none
dividing a denominator, as it takes for their product to exceed twice the
bound, t*M is reduced to upper Hessenberg form by a similarity transform,
and the row recurrence of the Hessenberg form gives its characteristic
polynomial, which det(U) turns into P. The kernel does this in numpy int64
for a stack of (matrix, prime) lanes at once, each lane on its own, so the
lanes of several matrices of one order share a kernel call. The Chinese
remainder theorem recovers each matrix's P in the symmetric range. One
further prime per matrix, left out of the reconstruction, must agree with
the result, or ArithmeticError is raised. See Cohen, "A Course in
Computational Algebraic Number Theory", 2.2.4, and Dumas, Pernet and Wan,
"Efficient computation of the characteristic polynomial", ISSAC 2005.

Rational roots are numeric eigenvalues rounded to nearby fractions and kept
only when exact synthetic division confirms them.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .graphs import Graph
from .harmonic import harmonic_matrix

Rat = int | Fraction


class RatPoly:
    """Dense univariate polynomial over Fraction, ascending coefficients.

    Canonical form: no trailing zero coefficients; the zero polynomial has
    an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    @staticmethod
    def zero() -> "RatPoly":
        return RatPoly(())

    @staticmethod
    def one() -> "RatPoly":
        return RatPoly((1,))

    @staticmethod
    def x() -> "RatPoly":
        return RatPoly((0, 1))

    @staticmethod
    def monomial(k: int, c: Rat = 1) -> "RatPoly":
        return RatPoly((0,) * k + (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self.coeffs[-1]

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, RatPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RatPoly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "RatPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "RatPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return RatPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, RatPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RatPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RatPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RatPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = RatPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def evaluate(self, x: Rat) -> Fraction:
        """Exact evaluation by Horner's rule."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __call__(self, x: Rat) -> Fraction:
        return self.evaluate(x)

    def __repr__(self):
        return f"RatPoly({poly_text(self)})"


def _coerce(value) -> "RatPoly":
    if isinstance(value, RatPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return RatPoly((value,))
    return NotImplemented


# ---------------------------------------------------------------------------
# Characteristic polynomial
# ---------------------------------------------------------------------------


# Primes are taken downward from 2^31 - 1, so a product of two residues
# stays below 2^62.
_PRIME_TOP = 2**31 - 1
_PRIMES: list[int] = []

# (Matrix, prime) lanes of one order reduced together in one (chunk, n, n)
# int64 array; a chunk may hold the lanes of several matrices. Larger chunks
# spend less time in per-call numpy overhead but hold larger arrays: all
# primes in one chunk made `harmspec charpoly` on six G(n, p) graphs with
# n <= 40 about a third faster and raised its peak memory by 9%.
PRIME_CHUNK = 16


def _is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin; the bases 2, 7 and 61 are exact for
    m < 4759123141."""
    if m < 2:
        return False
    for a in (2, 7, 61):
        if m % a == 0:
            return m == a
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 7, 61):
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _prime_stream() -> Iterator[int]:
    """The primes below 2^31, descending; each generated once and cached."""
    for k in itertools.count():
        if k == len(_PRIMES):
            m = _PRIMES[-1] - 2 if _PRIMES else _PRIME_TOP
            while not _is_prime(m):
                m -= 2
            _PRIMES.append(m)
        yield _PRIMES[k]


def char_polys(matrices: Iterable[Sequence[Sequence[Rat]]]) -> list[RatPoly]:
    """Monic characteristic polynomials det(xI - M) of square rational
    matrices, computed exactly, in input order.

    Every matrix keeps its own scaling, coefficient bound, primes and check
    prime. The (matrix, prime) lanes of all matrices of one order are
    reduced PRIME_CHUNK at a time, so one kernel call may span several
    matrices; a chunk's residues are built only when it runs. Raises
    ValueError for a non-square matrix before any reduction."""
    plans = [_modular_plan(m) for m in matrices]
    by_order: dict[int, list[int]] = {}
    for i, plan in enumerate(plans):
        by_order.setdefault(len(plan.index), []).append(i)
    residues: list[list[list[int]]] = [[] for _ in plans]
    for n, members in by_order.items():
        lanes = [(i, q) for i in members for q in plans[i].moduli]
        for start in range(0, len(lanes), PRIME_CHUNK):
            chunk = lanes[start:start + PRIME_CHUNK]
            h = np.empty((len(chunk), n, n), dtype=np.int64)
            for lane, (i, q) in enumerate(chunk):
                plan = plans[i]
                f = pow(plan.lcm // plan.scale, -1, q)
                h[lane] = np.array([v % q * f % q for v in plan.values], dtype=np.int64)[plan.index]
            out = _hessenberg_char_poly(h, [q for _, q in chunk]).tolist()
            for (i, _), row in zip(chunk, out):
                residues[i].append(row)
    return [_reconstruct(plan, rows) for plan, rows in zip(plans, residues)]


def char_poly(matrix: Sequence[Sequence[Rat]]) -> RatPoly:
    """Monic characteristic polynomial det(xI - M) of a square rational
    matrix, computed exactly: a batch of one."""
    return char_polys([matrix])[0]


class _Plan(NamedTuple):
    """A square rational matrix M ready for the modular kernel, under the
    row scaling S = t*U of the module docstring: t as ``scale`` and det(U);
    the lcm s of all of M's denominators and s*M as the (n, n) index into
    its distinct integer entries, so that the kernel reduces t*M as t/s
    times them; the bound prod(u_i + ||row i of S*M||) on every
    coefficient of P(y) = det(yU - S*M); and the primes, none dividing a
    denominator, whose product exceeds twice the bound, followed by one
    more prime that checks the reconstruction."""

    scale: int
    det_u: int
    lcm: int
    values: list[int]
    index: np.ndarray
    bound: int
    moduli: list[int]


def _modular_plan(matrix: Sequence[Sequence[Rat]]) -> _Plan:
    n = len(matrix)
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix must be square")
    lcms = [math.lcm(*(x.denominator for x in row)) for row in matrix]
    top = math.lcm(*lcms)
    values: dict[int, int] = {}
    rows, sqnorms = [], []
    for row in matrix:
        ints = [x.numerator * (top // x.denominator) for x in row]
        sqnorms.append(sum(v * v for v in ints))
        rows.append([values.setdefault(v, len(values)) for v in ints])
    index = np.array(rows, dtype=np.intp).reshape(n, n)

    # Row i of S*M is the integer vector lcm(s_i, t)/top times row i of
    # top*M; isqrt(x) + 1 exceeds sqrt(x).
    def hadamard(t: int) -> int:
        out = 1
        for s, sq in zip(lcms, sqnorms):
            m = math.lcm(s, t)
            out *= m // t + math.isqrt(m * m * sq // (top * top)) + 1
        return out

    # gcd(top, *lcms) is gcd(*lcms) for n > 0, and 1 rather than 0 for n = 0.
    bound, scale = min((hadamard(t), t) for t in (top, math.gcd(top, *lcms)))
    det_u = math.prod(math.lcm(s, scale) // scale for s in lcms)

    moduli, modulus = [], 1
    for q in _prime_stream():
        if top % q:
            moduli.append(q)
            if modulus > 2 * bound:
                break
            modulus *= q
    return _Plan(scale, det_u, top, list(values), index, bound, moduli)


def _reconstruct(plan: _Plan, residues: list[list[int]]) -> RatPoly:
    """det(xI - M) from the residues of the coefficients of det(yI - t*M),
    one row per modulus of the plan."""
    n = len(plan.index)
    *primes, check = plan.moduli
    modulus = math.prod(primes)

    # Chinese remainders, times det(U), into (-modulus/2, modulus/2], which
    # holds every coefficient of P because modulus is more than twice their
    # bound.
    weights = [modulus // q * pow(modulus // q, -1, q) for q in primes]
    cs = []
    for r in zip(*residues):
        c = sum(map(operator.mul, r, weights)) * plan.det_u % modulus
        if 2 * c > modulus:
            c -= modulus
        if c % check != r[-1] * plan.det_u % check:
            raise ArithmeticError("modular characteristic polynomial lost exactness")
        cs.append(c)

    # det(xI - M) = P(t*x) / (det(U) * t^n); rescale coefficients.
    return RatPoly([Fraction(cs[i], plan.det_u * plan.scale ** (n - i)) for i in range(n + 1)])


def _hessenberg_char_poly(h: np.ndarray, primes: list[int]) -> np.ndarray:
    """Ascending coefficients of det(xI - H) modulo each prime, one row per
    prime, from the (P, n, n) int64 residues h of H modulo primes[0..P-1].
    Overwrites h. Residues are below 2^31, so a product of two stays below
    2^62 and is reduced before anything but one residue is added to it."""
    p, n, _ = h.shape
    q = np.array(primes, dtype=np.int64)[:, None]
    lanes = np.arange(p)

    # Similarity to upper Hessenberg form (Cohen, Algorithm 2.2.9), column
    # by column. Per prime the pivot is the first nonzero entry on or below
    # the subdiagonal; its row and column are swapped into place. A column
    # that is already zero gets the multiplier 0.
    for j in range(n - 2):
        r = j + 1 + np.argmax(h[:, j + 1:, j] != 0, axis=1)
        if (r != j + 1).any():
            pair = np.stack([np.full(p, j + 1), r])
            h[lanes, pair] = h[lanes, pair[::-1]]
            h[lanes, :, pair] = h[lanes, :, pair[::-1]]
        inv = [pow(x, -1, m) if x else 0 for x, m in zip(h[:, j + 1, j].tolist(), primes)]
        u = h[:, j + 2:, j] * np.array(inv, dtype=np.int64)[:, None] % q
        h[:, j + 2:, j:] = (h[:, j + 2:, j:] - u[:, :, None] * h[:, None, j + 1, j:]) % q[:, :, None]
        col = _matmul_mod(u[:, None, :], h[:, :, j + 2:].transpose(0, 2, 1), q)
        h[:, :, j + 1] = (h[:, :, j + 1] + col[:, 0]) % q

    # Row recurrence of the Hessenberg form (Wilkinson):
    #   p_{m+1} = (x - h_mm) p_m - sum_{i<m} h_im t_i p_i,
    # with t_i = h_{i+1,i} ... h_{m,m-1}; t grows by one entry per row.
    polys = np.zeros((p, n + 1, n + 1), dtype=np.int64)
    polys[:, 0, 0] = 1
    t = np.ones((p, n), dtype=np.int64)
    for m in range(n):
        if m:
            t[:, :m] = t[:, :m] * h[:, m, m - 1, None] % q
        w = h[:, :m, m] * t[:, :m] % q
        prev = polys[:, m, :m + 1]
        nxt = polys[:, m + 1, :m + 2]
        nxt[:, 1:] = prev
        nxt[:, :m + 1] -= h[:, m, m, None] * prev % q
        nxt[:, :m] -= _matmul_mod(w[:, None, :], polys[:, :m, :m], q)[:, 0]
        nxt %= q
    # A copy, so that the caller does not keep all of polys alive.
    return polys[:, n].copy()


def _matmul_mod(a: np.ndarray, b: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(a @ b) mod q per prime, for residues a of shape (P, r, k) and b of
    shape (P, k, s) and the (P, 1) primes q.

    a is split into its 16-bit halves, so every partial product is below
    2^47 and a sum of k < 2^16 of them stays below 2^63: the sums run as
    int64 matmuls with one reduction each."""
    q = q[:, :, None]
    hi = np.matmul(a >> 16, b) % q
    lo = np.matmul(a & 0xFFFF, b) % q
    return ((hi << 16) + lo) % q


# ---------------------------------------------------------------------------
# The tridiagonal determinant sequence
# ---------------------------------------------------------------------------

_TRIDIAG: list[RatPoly] = [RatPoly.one(), RatPoly.x()]


def tridiag_charpoly(k: int) -> RatPoly:
    """Determinant of the k x k tridiagonal matrix with the variable on the
    diagonal and -1/2 off it.

    Satisfies D_k = x*D_{k-1} - (1/4)*D_{k-2} with D_0 = 1 (the empty
    determinant) and D_1 = x. Equals the characteristic polynomial of the
    k-vertex path with uniform edge weight 1/2.
    """
    if k < 0:
        raise ValueError(f"index must be >= 0, got {k}")
    x = RatPoly.x()
    quarter = Fraction(1, 4)
    while len(_TRIDIAG) <= k:
        _TRIDIAG.append(x * _TRIDIAG[-1] - quarter * _TRIDIAG[-2])
    return _TRIDIAG[k]


# ---------------------------------------------------------------------------
# Closed-form harmonic characteristic polynomials, stated per family.
# Each function expands the published formula to canonical form; whether the
# formula agrees with the exact char_poly oracle is the audit module's job.
# ---------------------------------------------------------------------------


def closed_form_path_statement(n: int) -> RatPoly:
    """Path form with leading term x*D_{n-2} (degree n-1)."""
    if n < 4:
        raise ValueError(f"path closed form requires n >= 4, got {n}")
    x = RatPoly.x()
    return (
        x * tridiag_charpoly(n - 2)
        - Fraction(8, 9) * x * tridiag_charpoly(n - 3)
        + Fraction(16, 81) * tridiag_charpoly(n - 4)
    )


def closed_form_path_proof(n: int) -> RatPoly:
    """Path form with leading term x^2*D_{n-2} (degree n)."""
    if n < 4:
        raise ValueError(f"path closed form requires n >= 4, got {n}")
    x = RatPoly.x()
    return (
        x * x * tridiag_charpoly(n - 2)
        - Fraction(8, 9) * x * tridiag_charpoly(n - 3)
        + Fraction(16, 81) * tridiag_charpoly(n - 4)
    )


def closed_form_cycle(n: int) -> RatPoly:
    if n < 3:
        raise ValueError(f"cycle closed form requires n >= 3, got {n}")
    x = RatPoly.x()
    return (
        x * tridiag_charpoly(n - 1)
        - Fraction(1, 2) * tridiag_charpoly(n - 2)
        - RatPoly((Fraction(1, 2) ** (n - 1),))
    )


def closed_form_star(n: int) -> RatPoly:
    if n < 2:
        raise ValueError(f"star closed form requires n >= 2, got {n}")
    x = RatPoly.x()
    return RatPoly.monomial(n - 2) * (x * x - Fraction(4 * (n - 1), n * n))


def closed_form_complete(n: int) -> RatPoly:
    if n < 2:
        raise ValueError(f"complete closed form requires n >= 2, got {n}")
    x = RatPoly.x()
    return (x - 1) * (x + Fraction(1, n - 1)) ** (n - 1)


def closed_form_complete_bipartite(m: int, n: int) -> RatPoly:
    if m < 1 or n < 1:
        raise ValueError(f"complete bipartite closed form requires m, n >= 1, got ({m}, {n})")
    x = RatPoly.x()
    return RatPoly.monomial(m + n - 2) * (x * x - Fraction(4 * m * n, (m + n) ** 2))


def closed_form_friendship(n: int) -> RatPoly:
    if n < 1:
        raise ValueError(f"friendship closed form requires n >= 1, got {n}")
    x = RatPoly.x()
    half = Fraction(1, 2)
    quad = x * x - half * x - Fraction(2 * n, (n + 1) ** 2)
    return (x - half) ** (n - 1) * (x + half) ** n * quad


def closed_form_windmill_product(m: int, n: int) -> RatPoly:
    """Claimed factorization: D_{m-1}^{n-1} times the cycle closed form."""
    if m < 3:
        raise ValueError(f"windmill closed form requires m >= 3, got m={m}")
    if n < 1:
        raise ValueError(f"windmill closed form requires n >= 1, got n={n}")
    return tridiag_charpoly(m - 1) ** (n - 1) * closed_form_cycle(m)


def closed_form_windmill4(n: int) -> RatPoly:
    """Dedicated formula for windmills with quadrilateral blades."""
    if n < 1:
        raise ValueError(f"windmill4 closed form requires n >= 1, got {n}")
    x = RatPoly.x()
    quad = x * x - Fraction(4 * n + (n + 1) ** 2, 2 * (n + 1) ** 2)
    return RatPoly.monomial(n + 1) * (x * x - Fraction(1, 2)) ** (n - 1) * quad


def closed_form_windmill5(n: int) -> RatPoly:
    """Dedicated formula for windmills with pentagonal blades, taken
    literally: the cubic factor carries two separate linear terms and no
    quadratic term."""
    if n < 1:
        raise ValueError(f"windmill5 closed form requires n >= 1, got {n}")
    x = RatPoly.x()
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    cubic = (
        x ** 3
        - half * x
        - Fraction(8 * n + (n + 1) ** 2, 4 * (n + 1) ** 2) * x
        - Fraction(n, (n + 1) ** 2)
    )
    return (x * x - half * x - quarter) ** (n - 1) * (x * x + half * x - quarter) ** n * cubic


def closed_form_book(n: int) -> RatPoly:
    if n < 1:
        raise ValueError(f"book closed form requires n >= 1, got {n}")
    x = RatPoly.x()
    b = Fraction(n + 3, 2 * (n + 1))
    c = Fraction(7 * n * n + 2 * n - 9, 2 * (n + 1) * (n + 3) ** 2)
    return (x * x - Fraction(1, 2)) ** (n - 1) * (x * x + b * x + c) * (x * x - b * x + c)


def closed_form_petersen() -> RatPoly:
    x = RatPoly.x()
    return (x - 1) * (x + Fraction(2, 3)) ** 4 * (x - Fraction(1, 3)) ** 5


def graph_char_polys(graphs: Iterable[Graph]) -> list[RatPoly]:
    """Exact characteristic polynomials of the harmonic matrices of the
    graphs, in input order, as one batch."""
    return char_polys(harmonic_matrix(g) for g in graphs)


def graph_char_poly(g: Graph) -> RatPoly:
    """Exact characteristic polynomial of the harmonic matrix of g."""
    return char_poly(harmonic_matrix(g))


# ---------------------------------------------------------------------------
# Rational root extraction and display
# ---------------------------------------------------------------------------


# Largest reduced denominator of a candidate root. Its capture radius
# 1/(2Q^2) = 5e-11 exceeds the Jacobi error at n <= 64.
ROOT_DENOMINATOR_MAX = 10**5


def rational_roots(p: RatPoly, approx: Iterable[float]) -> list[tuple[Fraction, int]]:
    """Rational roots of p with multiplicities, in descending order, read off
    ``approx``: numeric approximations of p's real roots, such as the
    matrix's ``Spectrum`` for a characteristic polynomial.

    Each approximation is rounded to the nearest fraction with denominator
    at most ROOT_DENOMINATOR_MAX, and each distinct candidate is deflated
    exactly for as long as it stays a root. For a rational symmetric matrix
    M nothing is missed when the lcm s of M's entry denominators is at most
    ROOT_DENOMINATOR_MAX, as for every family, census and audit graph: by
    Weyl each Jacobi eigenvalue is within about 1e-11 of a true one at
    n <= 64, whatever its multiplicity; every rational eigenvalue of M is
    k/s, because it is an integer eigenvalue of s*M; and
    ``limit_denominator(Q)`` returns any fraction of reduced denominator at
    most Q that lies within 1/(2Q^2). A root beyond the bound stays in the
    unfactored cofactor.
    """
    return _split_rational_roots(p, approx)[0]


def _split_rational_roots(
    p: RatPoly, approx: Iterable[float]
) -> tuple[list[tuple[Fraction, int]], RatPoly]:
    """``rational_roots(p, approx)`` and the cofactor of p that remains
    after dividing them out. p is cleared of denominators once; each
    division of the integer form by a candidate both confirms it and, when
    it is a root, yields the quotient that is kept."""
    roots = []
    ints, scale = _cleared(p)
    for cand in {Fraction(e).limit_denominator(ROOT_DENOMINATOR_MAX) for e in approx}:
        mult = 0
        while len(ints) > 1:
            try:
                ints = _deflate_ints(ints, cand)
            except ArithmeticError:
                break
            mult += 1
        if mult:
            roots.append((cand, mult))
            scale = Fraction(scale, cand.denominator ** mult)
    return sorted(roots, reverse=True), RatPoly(
        [Fraction(c * scale.denominator, scale.numerator) for c in ints])


def _cleared(p: RatPoly) -> tuple[list[int], int]:
    """Integer coefficients A, ascending, and the scale s with p = A / s."""
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (scale // c.denominator) for c in p.coeffs], scale


def _deflate_ints(ints: list[int], root: Fraction) -> list[int]:
    """Exact division of the integer polynomial A by (b x - a), for root =
    a/b in lowest terms; A(root) must be 0. By Gauss's lemma the quotient
    has integer coefficients when the division is exact, so each step
    divides by b in integers and stops at the first remainder."""
    a, b = root.numerator, root.denominator
    out = []
    acc = rem = 0
    for c in reversed(ints[1:]):
        acc, rem = divmod(c + a * acc, b)
        if rem:
            break
        out.append(acc)
    if rem or ints[0] + a * acc:
        raise ArithmeticError(f"deflation by {root} left a remainder: lost exactness")
    return out[::-1]


def _deflate(p: RatPoly, root: Fraction) -> RatPoly:
    """Exact division of p by (x - root); p(root) must be 0.

    With p = A / s for an integer polynomial A and root = a/b in lowest
    terms, the quotient is B * b / s, where B = A / (b x - a)."""
    ints, scale = _cleared(p)
    return RatPoly([Fraction(c * root.denominator, scale) for c in _deflate_ints(ints, root)])


def poly_text(p: RatPoly) -> str:
    """Expanded human-readable form, highest power first."""
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coefficient(k)
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            xpow = "λ" if k == 1 else f"λ^{k}"
            body = xpow if mag == 1 else f"{mag} {xpow}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f"{sign} {body}")
    return " ".join(parts)


def factored_display(p: RatPoly, approx: Iterable[float]) -> str:
    """Product of (λ - r)^m factors over the rational roots that
    ``rational_roots(p, approx)`` finds, times the remaining factor printed
    expanded. The display is an exact identity for any ``approx``."""
    if p.is_zero:
        return "0"
    if p.degree == 0:
        return str(p.coeffs[0])
    roots, q = _split_rational_roots(p, approx)
    parts = []
    for root, mult in roots:
        if root == 0:
            base = "λ"
        elif root > 0:
            base = f"(λ - {root})"
        else:
            base = f"(λ + {-root})"
        parts.append(base if mult == 1 else f"{base}^{mult}")
    if q.degree >= 1:
        body = poly_text(q)
        parts.append(f"({body})" if parts else body)
    elif q != RatPoly.one() or not parts:
        # Constant factor left over (non-monic input or constant poly).
        parts.insert(0, str(q.coeffs[0]) if not q.is_zero else "0")
    return "".join(parts) if parts else "1"


def poly_json(p: RatPoly) -> dict:
    """JSON-ready form: ascending coefficients as {num, den} objects."""
    return {
        "degree": p.degree,
        "coefficients": [
            {"num": c.numerator, "den": c.denominator} for c in p.coeffs
        ],
    }
