"""Shared strategies, oracles, and fixtures."""

from __future__ import annotations

import functools
import math
import os
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from harmspec.graphs import Graph, build_graph

# Property tests draw the same examples on every run, so a test passes or
# fails the same way each time. HARMSPEC_HYPOTHESIS=explore draws new
# random examples instead and keeps failing ones in .hypothesis/ to replay.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile(os.environ.get("HARMSPEC_HYPOTHESIS", "tier1"))


@st.composite
def graph_strategy(draw, min_n: int = 0, max_n: int = 12):
    """A graph on min_n..max_n vertices whose edge count is drawn first,
    uniform from 0 to n(n-1)/2, so dense and high-degree graphs are as
    common as sparse ones; the edges are a prefix of a drawn order of all
    vertex pairs."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    count = draw(st.integers(min_value=0, max_value=len(pairs)))
    return build_graph(n, draw(st.permutations(pairs))[:count])


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return build_graph(n, edges)


def exact_det(matrix) -> Fraction:
    """Independent exact determinant: each row i of M is cleared by the lcm
    s_i of its denominators, fraction-free Bareiss elimination gives the
    integer det(S*M), and det M = det(S*M) / prod(s_i)."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    scales = [math.lcm(*(x.denominator for x in row)) for row in rows]
    a = [[x.numerator * (s // x.denominator) for x in row] for row, s in zip(rows, scales)]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if a[r][k]), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pivot_row = a[k]
        pk = pivot_row[k]
        # Every entry of the next step's submatrix is a minor of S*M, so
        # the division by the previous pivot is exact.
        for i in range(k + 1, n):
            f = a[i][k]
            a[i] = [(pk * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        prev = pk
    det = a[-1][-1] if n else 1
    return Fraction(sign * det, math.prod(scales))


class FractionPoly:
    """Reference polynomial arithmetic: a dense tuple of Fraction
    coefficients, ascending, with no trailing zero; the zero polynomial has
    an empty tuple and degree -1. ``harmspec.charpoly.RatPoly`` must give
    the same coefficients for every operation."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("FractionPoly is immutable")

    @staticmethod
    def zero() -> "FractionPoly":
        return FractionPoly(())

    @staticmethod
    def one() -> "FractionPoly":
        return FractionPoly((1,))

    @staticmethod
    def monomial(k: int, c=1) -> "FractionPoly":
        return FractionPoly((0,) * k + (c,))

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
        if isinstance(other, FractionPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == FractionPoly((other,))
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other) -> "FractionPoly":
        other = _fraction_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "FractionPoly":
        return FractionPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "FractionPoly":
        other = _fraction_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "FractionPoly":
        return _fraction_poly(other) + (-self)

    def __mul__(self, other) -> "FractionPoly":
        if isinstance(other, (int, Fraction)):
            return FractionPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, FractionPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return FractionPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FractionPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "FractionPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        result = FractionPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def evaluate(self, x) -> Fraction:
        """Exact evaluation by Horner's rule."""
        x = Fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        return f"FractionPoly({list(map(str, self.coeffs))})"


def _fraction_poly(value):
    if isinstance(value, FractionPoly):
        return value
    if isinstance(value, (int, Fraction)):
        return FractionPoly((value,))
    return NotImplemented


def brute_force_regular_classes(n: int, d: int) -> list:
    """Independent census oracle: exhaust all edge subsets of the right
    size, keep the d-regular ones, and return one networkx graph per
    isomorphism class, deduplicated by ``networkx.is_isomorphic``."""
    import networkx as nx

    from harmspec.graphs import degrees

    pairs = list(combinations(range(n), 2))
    want = n * d // 2
    reps = []
    for edges in combinations(pairs, want):
        g = build_graph(n, edges)
        if any(x != d for x in degrees(g)):
            continue
        h = to_networkx(g)
        if not any(nx.is_isomorphic(h, other) for other in reps):
            reps.append(h)
    return reps


def fresh_first_labeled_regular(n: int, d: int):
    """Reference labeled generator: adjacency bitmask tuples of labeled
    d-regular graphs whose labelings introduce previously untouched
    vertices in increasing order, with any choice among the touched ones.

    Every isomorphism class has at least one such labeling. It yields far
    more labelings than ``census._labeled_regular`` (649 against 52 at
    (10,3)), so tests that want many inputs per class draw on it.
    """
    adj = [0] * n
    deg = [0] * n

    def feasible(start: int) -> bool:
        open_count = sum(1 for j in range(start, n) if deg[j] < d)
        for j in range(start, n):
            rem = d - deg[j]
            if rem > 0 and rem > open_count - 1:
                return False
        return True

    def rec(i: int):
        if i == n:
            yield tuple(adj)
            return
        need = d - deg[i]
        if need == 0:
            yield from rec(i + 1)
            return
        rest = [j for j in range(i + 1, n) if deg[j] < d]
        if need > len(rest):
            return
        touched = [j for j in rest if deg[j] > 0]
        fresh = [j for j in rest if deg[j] == 0]  # always a suffix i+1..n-1
        for k in range(min(need, len(fresh)), -1, -1):
            new_part = fresh[:k]
            for old_part in combinations(touched, need - k):
                chosen = list(old_part) + new_part
                for j in chosen:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
                    deg[j] += 1
                deg[i] += need
                if feasible(i + 1):
                    yield from rec(i + 1)
                deg[i] -= need
                for j in chosen:
                    adj[i] &= ~(1 << j)
                    adj[j] &= ~(1 << i)
                    deg[j] -= 1

    yield from rec(0)


def bitwise_encode_graph6(g: Graph) -> str:
    """Reference graph6 encoder: the upper triangle read column by column,
    one bit per step, flushed every six bits."""
    n = g.n
    if n <= 62:
        head = chr(63 + n)
    else:
        head = chr(126) + "".join(chr(63 + (n >> shift & 63)) for shift in (12, 6, 0))
    value = 0
    nbits = 0
    chars = []
    for j in range(1, n):
        for i in range(j):
            value = value << 1 | (g.adj[i] >> j & 1)
            nbits += 1
            if nbits == 6:
                chars.append(chr(63 + value))
                value = 0
                nbits = 0
    if nbits:
        value <<= 6 - nbits
        chars.append(chr(63 + value))
    return head + "".join(chars)


def to_networkx(g: Graph):
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def compress_colors(values: list) -> list[int]:
    """Replace each value by its rank among the distinct values."""
    order = {s: i for i, s in enumerate(sorted(set(values)))}
    return [order[s] for s in values]


def refine_colors(adj: tuple[int, ...], colors: list[int]) -> list[int]:
    """Reference colour refinement: every round recolours each vertex by
    its colour and the sorted tuple of its neighbours' colours, ranked,
    until a round changes nothing. Colour c is position c of the ordered
    partition that ``census._refine`` must produce."""
    from harmspec.graphs import _bits

    n = len(colors)
    while True:
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in _bits(adj[v]))))
            for v in range(n)
        ]
        new = compress_colors(sigs)
        if new == colors:
            return colors
        colors = new


def seed_colors(adj: tuple[int, ...]) -> list[int]:
    """Ranks of (degree, triangle count), the colouring both canonical
    forms start from."""
    from harmspec.graphs import _bits

    tri = [
        sum((adj[v] & adj[u]).bit_count() for u in _bits(adj[v])) // 2
        for v in range(len(adj))
    ]
    return compress_colors([(adj[v].bit_count(), tri[v]) for v in range(len(adj))])


@functools.lru_cache(maxsize=None)
def exhaustive_canonical_form(g: Graph) -> str:
    """Reference canonical form without automorphism pruning: the same
    refinement order, target cell and "largest leaf code wins" rule as
    ``canonical_form``, computed on colour lists by ``refine_colors``, with
    every vertex of every target cell individualized. Its cost grows as n!
    on symmetric graphs, so results are memoized for the tests that share
    an input."""
    from harmspec.graphs import _bits, encode_graph6

    n = g.n
    if n == 0:
        return encode_graph6(g)
    adj = g.adj
    colors = refine_colors(adj, seed_colors(adj))
    best: list[tuple[int, ...]] = [()]

    def leaf(cols: list[int]):
        rows = [0] * n
        for v in range(n):
            row = 0
            for u in _bits(adj[v]):
                row |= 1 << cols[u]
            rows[cols[v]] = row
        best[0] = max(best[0], tuple(rows))

    def search(cols: list[int]):
        cellmap: dict[int, list[int]] = {}
        for v, c in enumerate(cols):
            cellmap.setdefault(c, []).append(v)
        target = next((cellmap[c] for c in sorted(cellmap) if len(cellmap[c]) > 1), None)
        if target is None:
            leaf(cols)
            return
        for v in target:
            split = [c * 2 + (0 if u == v else 1) for u, c in enumerate(cols)]
            search(refine_colors(adj, compress_colors(split)))

    search(colors)
    return encode_graph6(Graph(n, best[0]))


def faddeev_leverrier_char_poly(matrix):
    """Reference characteristic polynomial det(xI - M): the Faddeev-LeVerrier
    trace recursion on the denominator-cleared integer matrix A = scale*M,
    O(n^4) big-integer work, exact without any modular step."""
    from harmspec.charpoly import RatPoly

    n = len(matrix)
    if n == 0:
        return RatPoly.one()
    entries = [[Fraction(x) for x in row] for row in matrix]
    scale = math.lcm(*(x.denominator for row in entries for x in row))
    a = [[int(x * scale) for x in row] for row in entries]

    # M_1 = I, c_{n-k} = -tr(A M_k)/k, M_{k+1} = A M_k + c_{n-k} I, with
    # M_k kept as a list of columns (column j of A M_k needs only column j
    # of M_k).
    cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    cs = [0] * (n + 1)
    cs[n] = 1
    for k in range(1, n + 1):
        for j, col in enumerate(cols):
            cols[j] = [sum(x * y for x, y in zip(row, col)) for row in a]
        q, r = divmod(-sum(cols[i][i] for i in range(n)), k)
        assert r == 0, "the trace of A M_k is divisible by k"
        cs[n - k] = q
        for i in range(n):
            cols[i][i] += q
    return RatPoly([Fraction(cs[i], scale ** (n - i)) for i in range(n + 1)])


@functools.cache
def _prime_below(m: int) -> int:
    import sympy

    return sympy.prevprime(m)


def global_scale_modulus_count(matrix) -> int:
    """Moduli, check prime included, of the single-scale modular plan: the
    integer matrix A = s*M, s the lcm of all of M's entry denominators, the
    Hadamard bound prod(isqrt(||a_i||^2) + 2) over A's rows a_i, and the
    primes downward from 2^31 until their product exceeds twice the bound,
    plus one more."""
    entries = [[Fraction(x) for x in row] for row in matrix]
    scale = math.lcm(*(x.denominator for row in entries for x in row))
    bound = math.prod(math.isqrt(sum(int(x * scale) ** 2 for x in row)) + 2 for row in entries)
    count, modulus, q = 1, 1, 2**31
    while modulus <= 2 * bound:
        q = _prime_below(q)
        modulus *= q
        count += 1
    return count


def fixed_order_norm(m) -> float:
    """Frobenius norm of a float matrix by numpy's pairwise sum over its
    row-major entries, which sums in one order on every CPU; the BLAS dot
    product behind np.linalg.norm sums in an order that depends on the CPU
    kernel."""
    import numpy as np

    x = np.ravel(m)
    return math.sqrt(np.add.reduce(x * x))


def cyclic_jacobi_eigenvalues(a, tol: float = 1e-12, max_sweeps: int = 100):
    """Reference eigensolver: cyclic Jacobi with one rotation per (p, q) in
    row-major order, each copying and rewriting two full rows and columns.
    Returns (eigenvalues sorted non-increasing, off-diagonal norm, sweeps)
    like ``jacobi_eigenvalues``."""
    import numpy as np

    from harmspec.spectrum import JacobiConvergenceError

    def off_norm(m):
        return fixed_order_norm(m - np.diag(np.diag(m)))

    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n == 0:
        return np.array([]), 0.0, 0
    threshold = tol * fixed_order_norm(a)
    sweeps = 0
    off = off_norm(a)
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
        off = off_norm(a)
    return np.sort(np.diag(a))[::-1], off, sweeps


def ring_schedule(n: int) -> list[tuple[list[int], list[int]]]:
    """Reference round-robin tournament on n indices, as the p and q lists
    of each round's pairs p < q. An even count m of seats (n, plus a dummy
    seat n for odd n) sit in a ring; seat 0 holds index 0 and the others
    hold index 1 + (seat - 1 - r) mod (m - 1) in round r, so every index
    but 0 moves one seat per round. Round r pairs seat i with seat
    m - 1 - i; pairs with the dummy, and rounds left empty, are dropped."""
    m = n + (n & 1)

    def index(seat: int, r: int) -> int:
        return 0 if seat == 0 else 1 + (seat - 1 - r) % (m - 1)

    rounds = []
    for r in range(m - 1):
        pairs = sorted(
            (min(x, y), max(x, y))
            for x, y in ((index(i, r), index(m - 1 - i, r)) for i in range(m // 2))
            if max(x, y) < n
        )
        if pairs:
            rounds.append(([p for p, _ in pairs], [q for _, q in pairs]))
    return rounds


def round_robin_jacobi_eigenvalues(a, tol: float = 1e-12, max_sweeps: int = 100):
    """Reference eigensolver: round-robin Jacobi on one matrix, the schedule
    of ``ring_schedule`` with each round's rotations applied as one column
    and one row update, skipping pairs whose entry is already 0.0.
    ``jacobi_eigenvalues_stack`` must give every member of a stack these
    results bit for bit. Returns (eigenvalues sorted non-increasing,
    off-diagonal norm, sweeps) like ``jacobi_eigenvalues``."""
    import numpy as np

    from harmspec.spectrum import JacobiConvergenceError

    def off_norm(m):
        return fixed_order_norm(m - np.diag(np.diag(m)))

    a = np.array(a, dtype=float)
    n = a.shape[0]
    if n == 0:
        return np.array([]), 0.0, 0
    diag = a.diagonal()
    rounds = [(np.array(p, dtype=np.intp), np.array(q, dtype=np.intp)) for p, q in ring_schedule(n)]
    threshold = tol * fixed_order_norm(a)
    sweeps = 0
    off = off_norm(a)
    while off > threshold:
        if sweeps >= max_sweeps:
            raise JacobiConvergenceError(off, sweeps)
        for p, q in rounds:
            apq = a[p, q]
            live = apq != 0.0
            if not live.all():
                if not live.any():
                    continue
                p, q, apq = p[live], q[live], apq[live]
            diff = diag[q] - diag[p]
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
        off = off_norm(a)
    return np.sort(diag)[::-1], off, sweeps


def fraction_deflate(p, root: Fraction):
    """Reference deflation: the quotient of p by (x - root), by synthetic
    division over the Fractions. Raises ArithmeticError unless the
    remainder p(root) is 0."""
    from harmspec.charpoly import RatPoly

    *rest, acc = p.coeffs
    quotient = []
    for c in reversed(rest):
        quotient.append(acc)
        acc = acc * root + c
    if acc:
        raise ArithmeticError(f"{root} is not a root")
    return RatPoly(quotient[::-1])


def divisor_rational_roots(p) -> list:
    """Reference rational-root search: every p/q with p dividing the
    constant term and q dividing the leading coefficient of the
    denominator-cleared polynomial, confirmed by exact deflation. Trial
    division stops at 1e5 and takes the cofactor as prime, so it can miss
    roots of polynomials with large coefficients; it is a reference only
    where those coefficients are smooth."""
    from harmspec.charpoly import RatPoly

    def divisors(n: int) -> list[int]:
        if n == 0:
            return [1]
        factors: dict[int, int] = {}
        m = n
        d = 2
        while d * d <= m and d <= 100_000:
            while m % d == 0:
                factors[d] = factors.get(d, 0) + 1
                m //= d
            d += 1
        if m > 1:
            factors[m] = factors.get(m, 0) + 1
        divs = [1]
        for prime, mult in factors.items():
            divs = [dv * prime**e for dv in divs for e in range(mult + 1)]
        return sorted(divs)

    if p.is_zero or p.degree == 0:
        return []
    zero_mult = 0
    coeffs = list(p.coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        zero_mult += 1
    roots = [(Fraction(0), zero_mult)] if zero_mult else []
    q = RatPoly(coeffs)
    if q.degree >= 1:
        scale = math.lcm(*(c.denominator for c in q.coeffs))
        ints = [int(c * scale) for c in q.coeffs]
        mags = {Fraction(a, b) for a in divisors(abs(ints[0])) for b in divisors(abs(ints[-1]))}
        for cand in sorted(mags | {-c for c in mags}):
            mult = 0
            while q.degree >= 1 and q.evaluate(cand) == 0:
                q = fraction_deflate(q, cand)
                mult += 1
            if mult:
                roots.append((cand, mult))
    roots.sort(key=lambda rm: rm[0], reverse=True)
    return roots


def audit_exact_polynomial_graphs() -> list[Graph]:
    """Every graph whose exact characteristic polynomial the audit takes,
    over every grid point of every claim, without repeats."""
    from harmspec import audit
    from harmspec.graphs import encode_graph6

    graphs = {}
    for claim in audit.CLAIMS.values():
        for point in claim.grid:
            for g in claim.check(**dict(point)).charpolys:
                graphs[encode_graph6(g)] = g
    return list(graphs.values())


def audit_spectrum_graphs() -> list[Graph]:
    """Every graph whose harmonic energy the audit takes, over every grid
    point of every claim, without repeats."""
    from harmspec import audit
    from harmspec.graphs import encode_graph6

    graphs = {}
    for claim in audit.CLAIMS.values():
        for point in claim.grid:
            for g in claim.check(**dict(point)).spectra:
                graphs[encode_graph6(g)] = g
    return list(graphs.values())


def mp_eigenvalues(g: Graph, dps: int) -> list:
    """The eigenvalues of g's harmonic matrix, non-increasing, as mpmath
    numbers of ``dps`` digits: mpmath's symmetric eigensolver on the exact
    rational entries at that precision."""
    import mpmath

    from harmspec.harmonic import harmonic_matrix

    if g.n == 0:
        return []
    with mpmath.workdps(dps):
        a = mpmath.matrix([[mpmath.mpf(x.numerator) / x.denominator for x in row]
                           for row in harmonic_matrix(g)])
        return sorted(mpmath.eigsy(a, eigvals_only=True), reverse=True)


def mp_harmonic_energy(g: Graph, dps: int):
    """g's harmonic energy as an mpmath number of ``dps`` digits."""
    import mpmath

    with mpmath.workdps(dps):
        return mpmath.fsum(abs(y) for y in mp_eigenvalues(g, dps))


def mp_spectrum_errors(g: Graph, eigenvalues, he: float, dps: int = 30) -> tuple[float, float]:
    """The largest error of float eigenvalues of g's harmonic matrix, sorted
    non-increasing, and the error of its float harmonic energy, against
    mp_eigenvalues at ``dps`` digits."""
    import mpmath

    exact = mp_eigenvalues(g, dps)
    with mpmath.workdps(dps):
        eig_error = max((abs(mpmath.mpf(x) - y) for x, y in zip(eigenvalues, exact)), default=0)
        he_error = abs(mpmath.mpf(he) - mpmath.fsum(abs(y) for y in exact))
        return float(eig_error), float(he_error)


@pytest.fixture(scope="session")
def cubic10():
    from harmspec.census import cached_census

    return cached_census(10, 3)


def big_non_square() -> int:
    """A non-square integer of 5,000 digits, beyond Python's default limit
    of 4,300 for int-to-decimal conversion, that is 1 modulo every prime
    below 1000 and so a square modulo each."""
    step = math.prod(m for m in range(2, 1000) if all(m % d for d in range(2, math.isqrt(m) + 1)))
    n = 1 + step * (10**4999 // step + 1)
    while math.isqrt(n) ** 2 == n:
        n += step
    return n

