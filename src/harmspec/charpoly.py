"""Exact univariate polynomials over the rationals, characteristic
polynomials of rational symmetric matrices, and the closed-form harmonic
characteristic polynomials of the named graph families.

The characteristic polynomial is computed exactly by a multimodular
algorithm from M's entry table, its distinct entries and an index into
them (harmonic_entries for a graph, _entry_table for any other matrix).
Each row i of M is cleared by its own denominators: with s_i the lcm of
row i's, t one common factor and u_i = lcm(s_i, t)/t, the diagonal
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
for a stack of (matrix, prime) lanes at once, each lane on its own. The
lanes of all matrices, sorted by order, fill the kernel calls in turn, so
one call may hold lanes of several orders. A lane of order n is
zero-padded to the call's largest order N; since det(xI - diag(M, 0)) =
x^(N-n) * det(xI - M), exactly modulo every prime, its residues are the
last n + 1 coefficients of the call's result. The padding stays zero: in
each column of M the pad rows are zero, so the pivot search swaps only
rows of M and gives every pad row a zero multiplier, and the pad columns
are zero throughout. The Chinese remainder theorem recovers each matrix's
P in the symmetric range; P's coefficient of y^i times t^i is the integer
numerator of det(xI - M)'s coefficient of x^i over det(U) * t^n. One
further prime per matrix, left out of the reconstruction, must agree with
the result, or ArithmeticError is raised. See Cohen, "A Course in
Computational Algebraic Number Theory", 2.2.4, and Dumas, Pernet and Wan,
"Efficient computation of the characteristic polynomial", ISSAC 2005.

Rational roots come from the polynomial's integer numerators alone, by the
p-adic search of Loos ("Computing rational zeros of integral polynomials by
p-adic expansion", SIAM J. Comput. 12, 1983): the roots modulo a small
prime, of a few the one with the fewest, are lifted by Newton's iteration
until a fraction can be rebuilt from each, and exact division confirms it.
The search finds every rational root at any degree and coefficient size;
_split_rational_roots gives the argument.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import sys
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .graphs import Graph
from .harmonic import harmonic_entries
from .spectrum import order_batches

Rat = int | Fraction


class RatPoly:
    """Dense univariate polynomial over the rationals: integer numerators of
    the coefficients, ascending, over one common denominator.

    Canonical form: ``numerators`` has no trailing zero and ``denominator``
    is positive and shares no factor with all of the numerators, so equal
    polynomials have equal fields; the zero polynomial has no numerators,
    denominator 1 and degree -1. A product is an integer convolution over
    the product of the denominators, and a sum scales both numerator lists
    to the lcm of the two denominators; either is brought to canonical form
    by one gcd. ``coeffs`` is the tuple of Fraction coefficients, built on
    demand for display and JSON.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [Fraction(c) for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        _assign(self, [c.numerator * (den // c.denominator) for c in cs], den)

    def __setattr__(self, name, value):
        raise AttributeError("RatPoly is immutable")

    @staticmethod
    def zero() -> "RatPoly":
        return _polynomial([], 1)

    @staticmethod
    def one() -> "RatPoly":
        return _polynomial([1], 1)

    @staticmethod
    def x() -> "RatPoly":
        return _polynomial([0, 1], 1)

    @staticmethod
    def monomial(k: int, c: Rat = 1) -> "RatPoly":
        return RatPoly((0,) * k + (c,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.denominator) for c in self.numerators)

    @property
    def degree(self) -> int:
        return len(self.numerators) - 1

    @property
    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def leading(self) -> Fraction:
        return self.coefficient(self.degree)

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.numerators):
            return Fraction(self.numerators[k], self.denominator)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.numerators == other.numerators and self.denominator == other.denominator

    def __hash__(self):
        # A constant equals its int or Fraction value, so it hashes as one.
        if self.degree <= 0:
            return hash(self.coefficient(0))
        return hash((self.numerators, self.denominator))

    def __add__(self, other) -> "RatPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return _polynomial([-c for c in self.numerators], self.denominator)

    def __sub__(self, other) -> "RatPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, -1)

    def __rsub__(self, other) -> "RatPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(other, self, -1)

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return _polynomial([c * other.numerator for c in self.numerators],
                               self.denominator * other.denominator)
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self.numerators, other.numerators
        if not a or not b:
            return RatPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for k, y in enumerate(b, i):
                    out[k] += x * y
        return _polynomial(out, self.denominator * other.denominator)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "RatPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = RatPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    def evaluate(self, x: Rat) -> Fraction:
        """Exact evaluation by Horner's rule in integers: with x = a/b and
        degree d, sum_i n_i a^i b^(d-i) over denominator * b^d."""
        if self.is_zero:
            return Fraction(0)
        x = Fraction(x)
        a, b = x.numerator, x.denominator
        *rest, acc = self.numerators
        power = 1
        for c in reversed(rest):
            power *= b
            acc = acc * a + c * power
        return Fraction(acc, self.denominator * power)

    def __call__(self, x: Rat) -> Fraction:
        return self.evaluate(x)

    def __repr__(self):
        return f"RatPoly({poly_text(self)})"


def _assign(p: RatPoly, nums: list[int], den: int) -> None:
    """Set p to sum nums[i] x^i / den, for den > 0, in canonical form."""
    while nums and not nums[-1]:
        nums.pop()
    g = math.gcd(den, *nums) if nums else den
    if g > 1:
        nums = [c // g for c in nums]
        den //= g
    object.__setattr__(p, "numerators", tuple(nums))
    object.__setattr__(p, "denominator", den)


def _polynomial(nums: list[int], den: int) -> RatPoly:
    """sum nums[i] x^i / den, for den > 0, in canonical form."""
    p = object.__new__(RatPoly)
    _assign(p, nums, den)
    return p


def _combine(p: RatPoly, q: RatPoly, sign: int) -> RatPoly:
    """p + sign * q over the lcm of the two denominators."""
    a, b = p.numerators, q.numerators
    g = math.gcd(p.denominator, q.denominator)
    fa, fb = q.denominator // g, sign * (p.denominator // g)
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = c * fa
    for i, c in enumerate(b):
        out[i] += c * fb
    return _polynomial(out, p.denominator * fa)


def _coerce(value) -> "RatPoly":
    if isinstance(value, RatPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return _polynomial([value.numerator], value.denominator)
    return NotImplemented


# ---------------------------------------------------------------------------
# Characteristic polynomial
# ---------------------------------------------------------------------------


# Primes are taken downward from 2^31 - 1, so a product of two residues
# stays below 2^62.
_PRIME_TOP = 2**31 - 1
_PRIMES: list[int] = []

# (Matrix, prime) lanes reduced together in one (lanes, N, N) int64 array,
# each lane zero-padded to the largest order N among them. order_batches
# cuts the lanes, sorted by order, into kernel calls: PRIME_CHUNK lanes,
# and more while lanes * N^2 stays within BATCH_ENTRIES, the entries of 16
# lanes of order 40; from order 40 up every call holds 64 lanes, so the
# 17 to 49 primes of a random graph of order 40 take one call, and each
# call pays a fixed numpy overhead per column, about 2 ms at order 40.
# A call of 64 lanes holds its residues and the kernel's arrays, about as
# large again: 1.8 MiB at order 40, 10 MiB at order 100 and 40 MiB at
# order 200.
PRIME_CHUNK = 64


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
    matrices, computed exactly, in input order. Raises ValueError for a
    non-square matrix before any reduction."""
    return _char_polys([_entry_table(m) for m in matrices])


def _char_polys(tables: Iterable[tuple[Sequence[Rat], np.ndarray]]) -> list[RatPoly]:
    """char_polys of matrices given as entry tables (entries, index). Every
    matrix keeps its own scaling, coefficient bound, primes and check
    prime. The (matrix, prime) lanes of all matrices, sorted by order, fill
    kernel calls in turn, so one call may span matrices of several orders;
    a call's residues are built only when it runs."""
    plans = [_modular_plan(*table) for table in tables]
    lanes = sorted(((len(plan.index), i, q) for i, plan in enumerate(plans) for q in plan.moduli),
                   key=operator.itemgetter(0))
    residues: list[list[list[int]]] = [[] for _ in plans]
    for batch in order_batches([n for n, _, _ in lanes], least=PRIME_CHUNK):
        chunk = lanes[batch]
        top = chunk[-1][0]
        h = np.zeros((len(chunk), top, top), dtype=np.int64)
        for lane, (n, i, q) in enumerate(chunk):
            plan = plans[i]
            f = pow(plan.lcm // plan.scale, -1, q)
            h[lane, :n, :n] = np.array([v % q * f % q for v in plan.values], dtype=np.int64)[plan.index]
        out = _hessenberg_char_poly(h, [q for _, _, q in chunk]).tolist()
        for (n, i, _), row in zip(chunk, out):
            residues[i].append(row[top - n:])
    return [_reconstruct(plan, rows) for plan, rows in zip(plans, residues)]


def char_poly(matrix: Sequence[Sequence[Rat]]) -> RatPoly:
    """Monic characteristic polynomial det(xI - M) of a square rational
    matrix, computed exactly: a batch of one."""
    return char_polys([matrix])[0]


def _entry_table(matrix: Sequence[Sequence[Rat]]) -> tuple[list[Rat], np.ndarray]:
    """A square rational matrix as its distinct entries, as first seen, and
    the (n, n) index into them. Raises ValueError if it is not square."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    positions: dict[Rat, int] = {}
    index = [positions.setdefault(x, len(positions)) for row in matrix for x in row]
    return list(positions), np.array(index, dtype=np.intp).reshape(n, n)


class _Plan(NamedTuple):
    """A square rational matrix M ready for the modular kernel, under the
    row scaling S = t*U of the module docstring: t as ``scale`` and det(U);
    the lcm s of all of M's denominators, s times M's distinct entries as
    ``values`` and M's (n, n) index into them, so that the kernel reduces
    t*M as t/s times values[index]; the bound prod(u_i + ||row i of S*M||)
    on every coefficient of P(y) = det(yU - S*M); and the primes, none dividing a
    denominator, whose product exceeds twice the bound, followed by one
    more prime that checks the reconstruction."""

    scale: int
    det_u: int
    lcm: int
    values: list[int]
    index: np.ndarray
    bound: int
    moduli: list[int]


def _modular_plan(entries: Sequence[Rat], index: np.ndarray) -> _Plan:
    # counts[i][e]: how often row i holds entries[e].
    n, k = len(index), len(entries)
    cells = (index + k * np.arange(n)[:, None]).ravel()
    counts = np.bincount(cells, minlength=n * k).reshape(n, k).tolist()
    lcms = [math.lcm(*(x.denominator for x, c in zip(entries, row) if c)) for row in counts]
    top = math.lcm(*lcms)
    values = [x.numerator * (top // x.denominator) for x in entries]
    sqnorms = [sum(c * v * v for c, v in zip(row, values) if c) for row in counts]

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
    return _Plan(scale, det_u, top, values, index, bound, moduli)


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

    # det(xI - M) = P(t*x) / (det(U) * t^n): numerator i is c_i * t^i.
    t = plan.scale
    return _polynomial([c * t**i for i, c in enumerate(cs)], plan.det_u * t**n)


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
        # The row update holds one contiguous temporary, freed before the
        # next column's, and writes its result into h. Arithmetic in place
        # on the strided rows, or in a strided slice of one buffer kept for
        # all columns, is 10-25% slower.
        rows = h[:, j + 2:, j:]
        diff = u[:, :, None] * h[:, None, j + 1, j:]
        np.subtract(rows, diff, out=diff)
        np.remainder(diff, q[:, :, None], out=rows)
        del diff
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
    graphs, in input order, as one batch, planned from their entry tables."""
    return _char_polys(map(harmonic_entries, graphs))


def graph_char_poly(g: Graph) -> RatPoly:
    """Exact characteristic polynomial of the harmonic matrix of g."""
    return graph_char_polys([g])[0]


# ---------------------------------------------------------------------------
# Rational root extraction and display
# ---------------------------------------------------------------------------


# How many primes the root search evaluates f at before it picks one. A
# polynomial with no rational root mostly has no root modulo some small
# prime too, and such a prime ends the search without a lift, the costly
# step (about 1 ms to the 2,000 bits of an order-40 graph's polynomial);
# when every prime has roots, the one with the fewest needs the fewest
# lifts. On the polynomials of 75 random graphs of orders 10 to 60, windows
# of 1, 4, 8 and 16 primes left 208, 32, 20 and 18 lifts, 18 of them of
# rational roots; 8 took the least time, since evaluating every residue of
# 8 primes in one pass costs about as much as one prime's.
ROOT_PRIMES = 8


def rational_roots(p: RatPoly) -> list[tuple[Fraction, int]]:
    """Rational roots of p with multiplicities, in descending order. None
    is missed, whatever p's degree and coefficients."""
    return _split_rational_roots(p)[0]


def _split_rational_roots(p: RatPoly) -> tuple[list[tuple[Fraction, int]], RatPoly]:
    """``rational_roots(p)`` and the cofactor of p that remains after
    dividing them out; the cofactor's denominator stays p's.

    The search runs on p's integer numerators f, zero roots stripped. A
    root a/b of f in lowest terms has a | f_0 and b | f_n, so |a| <= |f_0|
    and b <= |f_n|. For its residue x modulo q^k, b x = a + t q^k, where
    t/b is in lowest terms (a common factor would divide a) and lies within
    |f_0|/(b q^k) of x/q^k, while any other fraction of denominator at most
    |f_n| lies at least 1/(b |f_n|) from t/b. So once q^k > 2 |f_0| |f_n|,
    limit_denominator(|f_n|) returns t/b for x/q^k, and b x reduced modulo
    q^k into (-q^k/2, q^k/2] is a. What follows holds for any prime q above
    deg f that divides neither f_0 nor f_n: b is a unit modulo q, so every
    root lies in the class of a root r of f modulo q. f is evaluated at
    every residue of the first ROOT_PRIMES such primes at once; if one of
    them has no root, neither has f, and the search ends without a lift.
    Otherwise it runs on the prime with the fewest roots, the first of
    them on a tie. Let mu be the least j >= 1 with T_j(r) != 0 mod q,
    where T_j = f^(j)/j! is an integer polynomial; the roots in r's class
    number at most mu with multiplicity. As q > mu, r is a simple root of
    T_{mu-1} modulo q, whose derivative is mu T_mu, and Newton's iteration
    lifts it to x modulo q^k. The fraction rebuilt from x is the candidate;
    exact division by it, repeated while it divides, confirms it. If it
    divides out mu times, the class is done. Otherwise x is lifted on to
    modulo q^(mu k), and if every T_j with j < mu vanishes there, the class
    holds no other root: for a root y = x + d in it, 0 = f(y) = sum_j
    T_j(x) d^j, where the term j = mu has q-adic valuation mu v(d) and
    every other term a larger one unless v(d) >= k, so y is congruent to x
    modulo q^k and is the candidate. If some T_j does not vanish, the
    search runs again on the cofactor with the next ROOT_PRIMES such
    primes. Only the finitely many primes at which two distinct roots of f
    meet can leave a class unresolved, so the search ends.
    """
    zeros = next((i for i, c in enumerate(p.numerators) if c), 0)
    roots = [(Fraction(0), zeros)] if zeros else []
    ints = p.numerators[zeros:]
    scale, last, resolved = 1, len(ints) - 1, False
    while len(ints) > 1 and not resolved:
        f = ints
        window = list(itertools.islice(
            (m for m in itertools.count(last + 1) if f[0] % m and f[-1] % m and _is_prime(m)),
            ROOT_PRIMES))
        last = window[-1]
        q, residues = min(zip(window, _residue_roots(f, window)), key=lambda pair: len(pair[1]))
        bound = 2 * abs(f[0] * f[-1])
        k, modulus = 1, q
        while modulus <= bound:
            k, modulus = k + 1, modulus * q
        resolved = True
        for r in residues:
            mu = next(j for j in itertools.count(1) if _horner(_taylor(f, j), r, q))
            g, dg = _taylor(f, mu - 1), [mu * c for c in _taylor(f, mu)]
            x = _lift(g, dg, r, q, 1, k)
            b = Fraction(x, modulus).limit_denominator(abs(f[-1])).denominator
            a = b * x % modulus
            cand = Fraction(a - modulus if 2 * a > modulus else a, b)
            mult = 0
            while len(ints) > 1 and (quotient := _deflate_ints(ints, cand)) is not None:
                ints = quotient
                mult += 1
            if mult:
                roots.append((cand, mult))
                scale *= cand.denominator ** mult
            if mult < mu:
                # T_{mu-1}(x) vanishes by construction.
                x, m = _lift(g, dg, x, q, k, mu * k), modulus**mu
                resolved &= not any(_horner(_taylor(f, j), x, m) for j in range(mu - 1))
    return sorted(roots, reverse=True), _polynomial([c * scale for c in ints], p.denominator)


def _residue_roots(f: Sequence[int], primes: list[int]) -> list[list[int]]:
    """The roots of the integer polynomial f modulo each prime, from one
    vectorised Horner pass over every residue of all the primes."""
    residues = np.concatenate([np.arange(q, dtype=np.int64) for q in primes])
    lane = np.repeat(np.arange(len(primes)), primes)
    moduli = np.array(primes, dtype=np.int64)[lane]
    values = np.zeros(len(lane), dtype=np.int64)
    for c in reversed(f):
        values = (values * residues + np.array([c % m for m in primes], dtype=np.int64)[lane]) % moduli
    hits = np.flatnonzero(values == 0)
    return [residues[hits[lane[hits] == i]].tolist() for i in range(len(primes))]


def _taylor(f: Sequence[int], j: int) -> list[int]:
    """The integer polynomial T_j = f^(j)/j!, ascending."""
    return [math.comb(i, j) * c for i, c in enumerate(f[j:], j)]


def _horner(f: Sequence[int], x: int, m: int) -> int:
    """f(x) modulo m."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _lift(g: Sequence[int], dg: Sequence[int], x: int, q: int, e: int, k: int) -> int:
    """Newton's iteration from a root x of g modulo q^e, at which g's
    derivative dg is a unit, to the root of g modulo q^k congruent to it.
    Each step doubles the precision; as g(x) vanishes modulo the old
    precision, dg(x) is inverted only to that."""
    while e < k:
        old = q**e
        e = min(2 * e, k)
        m = q**e
        x = (x - _horner(g, x, m) * pow(_horner(dg, x, old), -1, old)) % m
    return x


def _deflate_ints(ints: Sequence[int], root: Fraction) -> list[int] | None:
    """Exact division of the integer polynomial A by (b x - a), for root =
    a/b in lowest terms, or None if root is not a root of A. By Gauss's
    lemma the quotient has integer coefficients when the division is exact,
    so each step divides by b in integers and stops at the first
    remainder."""
    a, b = root.numerator, root.denominator
    out = []
    acc = 0
    for c in reversed(ints[1:]):
        acc, rem = divmod(c + a * acc, b)
        if rem:
            return None
        out.append(acc)
    return None if ints[0] + a * acc else out[::-1]


@contextlib.contextmanager
def any_size_ints() -> Iterator[None]:
    """Lift Python's limit of 4,300 digits on int-to-decimal conversion
    inside the block and restore the limit it found on the way out. As a
    decorator it does so around each call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


@any_size_ints()
def poly_text(p: RatPoly) -> str:
    """Expanded human-readable form, highest power first, with integers of
    any length."""
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


@any_size_ints()
def factored_display(p: RatPoly) -> str:
    """Product of (λ - r)^m factors over the rational roots of p, times the
    remaining factor, which has no rational root, printed expanded, with
    integers of any length."""
    if p.is_zero:
        return "0"
    if p.degree == 0:
        return str(p.coeffs[0])
    roots, q = _split_rational_roots(p)
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
    elif q != RatPoly.one():
        # Constant factor left over (non-monic input).
        parts.insert(0, str(q.coeffs[0]))
    return "".join(parts)


def poly_json(p: RatPoly) -> dict:
    """JSON-ready form: ascending coefficients as {num, den} objects.
    json.dumps writes an integer of more than 4,300 digits only inside
    any_size_ints, as cli.main runs; outside the CLI that is the caller's
    concern."""
    return {
        "degree": p.degree,
        "coefficients": [
            {"num": c.numerator, "den": c.denominator} for c in p.coeffs
        ],
    }
