import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmspec import charpoly
from harmspec.census import enumerate_regular
from harmspec.charpoly import (
    RatPoly,
    _deflate_ints,
    char_poly,
    char_polys,
    closed_form_complete,
    closed_form_complete_bipartite,
    closed_form_cycle,
    closed_form_friendship,
    closed_form_path_proof,
    closed_form_path_statement,
    closed_form_petersen,
    closed_form_star,
    closed_form_windmill4,
    closed_form_windmill_product,
    factored_display,
    graph_char_poly,
    graph_char_polys,
    poly_json,
    poly_text,
    rational_roots,
    tridiag_charpoly,
)
from harmspec.families import (
    complete,
    complete_bipartite,
    cycle,
    dutch_windmill,
    friendship,
    path,
    petersen,
    star,
)
from harmspec.graphs import decode_graph6, disjoint_union
from harmspec.harmonic import harmonic_matrix
from harmspec.spectrum import BATCH_ENTRIES

from conftest import (
    FractionPoly,
    audit_exact_polynomial_graphs,
    divisor_rational_roots,
    exact_det,
    faddeev_leverrier_char_poly,
    fraction_deflate,
    global_scale_modulus_count,
    graph_strategy,
    random_graph,
)

X = RatPoly.x()
HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


class TestPolyArithmetic:
    def test_recurrence_step(self):
        # One step of the tridiagonal recurrence by hand.
        lhs = (X * X - QUARTER) * X + Fraction(-1, 4) * X
        assert lhs == RatPoly((0, Fraction(-1, 2), 0, 1))

    def test_evaluate(self):
        p = X * X - 1
        assert p.evaluate(1) == 0
        assert p.evaluate(Fraction(1, 2)) == Fraction(-3, 4)

    def test_pow(self):
        p = (X + HALF) ** 2
        assert p == RatPoly((QUARTER, 1, 1))

    def test_zero_and_canonical_form(self):
        assert (X - X).is_zero
        assert RatPoly((1, 0, 0)).degree == 0
        assert RatPoly(()).degree == -1

    def test_scalar_ops(self):
        assert 2 * X + 1 == RatPoly((1, 2))
        assert (X - 1) * (X + 1) == X * X - 1

    def test_immutability(self):
        p = X + 1
        with pytest.raises(AttributeError):
            p.coeffs = ()
        with pytest.raises(AttributeError):
            p.numerators = ()


_BIG = 10**30

# Zero, integers and fractions with large and negative numerators and
# denominators, and small fractions whose denominators share factors, so
# that sums and products have common factors to cancel.
coefficient = st.one_of(
    st.just(Fraction(0)),
    st.integers(-_BIG, _BIG).map(Fraction),
    st.builds(Fraction, st.integers(-_BIG, _BIG), st.integers(1, 10**20)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 6, 12))),
)
coefficients = st.lists(coefficient, max_size=7)
scalar = st.one_of(st.integers(-_BIG, _BIG), coefficient)


def _assert_canonical(p: RatPoly):
    assert all(type(c) is int for c in p.numerators) and type(p.denominator) is int
    assert p.denominator > 0
    assert math.gcd(p.denominator, *p.numerators) == 1
    assert not p.numerators or p.numerators[-1] != 0
    assert p.numerators or p.denominator == 1


def _assert_matches(p: RatPoly, ref: FractionPoly):
    assert isinstance(p, RatPoly)
    assert p.coeffs == ref.coeffs
    _assert_canonical(p)


class TestRatPolyAgainstReference:
    """Every RatPoly operation gives the coefficients of the Fraction-backed
    FractionPoly kept in conftest, and every result is canonical."""

    @given(coefficients, coefficients)
    @settings(max_examples=150, deadline=None)
    def test_polynomial_operations(self, a, b):
        p, q, ref_p, ref_q = RatPoly(a), RatPoly(b), FractionPoly(a), FractionPoly(b)
        _assert_matches(p, ref_p)
        _assert_matches(p + q, ref_p + ref_q)
        _assert_matches(p - q, ref_p - ref_q)
        _assert_matches(p * q, ref_p * ref_q)
        assert (p == q) == (ref_p == ref_q)

    @given(coefficients, scalar)
    @settings(max_examples=150, deadline=None)
    def test_scalar_operations(self, a, c):
        p, ref = RatPoly(a), FractionPoly(a)
        _assert_matches(p + c, ref + c)
        _assert_matches(c + p, c + ref)
        _assert_matches(p - c, ref - c)
        _assert_matches(c - p, c - ref)
        _assert_matches(p * c, ref * c)
        _assert_matches(c * p, c * ref)
        assert (p == c) == (ref == c)

    @given(coefficients, st.integers(0, 4))
    @settings(max_examples=100, deadline=None)
    def test_power_and_negation(self, a, k):
        p, ref = RatPoly(a), FractionPoly(a)
        _assert_matches(p ** k, ref ** k)
        _assert_matches(-p, -ref)

    @given(coefficients, coefficients, coefficient.filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_equal_polynomials_hash_equal(self, a, b, c):
        # The same polynomial by routes whose intermediate denominators
        # differ: trailing zeros, a scalar and its inverse, adding and
        # taking away another polynomial.
        p, q = RatPoly(a), RatPoly(b)
        for same in (RatPoly(a + [0, 0]), p * c * (1 / c), p + q - q, -(-p), p * RatPoly.one()):
            _assert_canonical(same)
            assert same == p and hash(same) == hash(p)
        if p == q:
            assert hash(p) == hash(q)

    @given(st.lists(st.one_of(coefficients.map(RatPoly), scalar), min_size=2, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_equal_values_hash_equal(self, pair):
        # A constant polynomial equals its int or Fraction value, so as a
        # dict key or set member it must be the same key.
        a, b = pair
        if a == b:
            assert hash(a) == hash(b)
        for c in (0, 1, -3, Fraction(2, 3), Fraction(-5, 12)):
            assert hash(RatPoly((c,))) == hash(c)
        assert {RatPoly.one(): "a"}.get(1) == "a"
        assert len({RatPoly.one(), 1, Fraction(1)}) == 1

    @given(coefficients, coefficient)
    @settings(max_examples=100, deadline=None)
    def test_evaluate(self, a, x):
        p, ref = RatPoly(a), FractionPoly(a)
        assert p.evaluate(x) == p(x) == ref.evaluate(x)
        assert p.evaluate(int(x)) == ref.evaluate(int(x))

    @given(coefficients)
    @settings(max_examples=100, deadline=None)
    def test_accessors(self, a):
        p, ref = RatPoly(a), FractionPoly(a)
        assert p.degree == ref.degree
        assert p.leading == ref.leading
        assert p.is_zero == ref.is_zero
        for k in range(-2, len(a) + 2):
            assert p.coefficient(k) == ref.coefficient(k)
            assert type(p.coefficient(k)) is Fraction

    @given(st.integers(0, 8), scalar)
    @settings(max_examples=50, deadline=None)
    def test_monomial(self, k, c):
        _assert_matches(RatPoly.monomial(k, c), FractionPoly.monomial(k, c))

    def test_zero_and_one(self):
        _assert_matches(RatPoly.zero(), FractionPoly.zero())
        _assert_matches(RatPoly.one(), FractionPoly.one())
        _assert_matches(RatPoly.x(), FractionPoly((0, 1)))
        assert RatPoly.zero().denominator == 1 and RatPoly.zero().numerators == ()
        assert (X * HALF - X * HALF).denominator == 1


class TestCharPoly:
    def test_triangle(self):
        p = char_poly(harmonic_matrix(complete(3)))
        assert p == RatPoly((Fraction(-1, 4), Fraction(-3, 4), 0, 1))

    def test_star4(self):
        # On 4 vertices: x^2 (x^2 - 3/4).
        p = char_poly(harmonic_matrix(star(4)))
        assert p == RatPoly.monomial(2) * (X * X - Fraction(3, 4))

    def test_petersen_exact(self):
        p = graph_char_poly(petersen())
        expected = (X - 1) * (X + Fraction(2, 3)) ** 4 * (X - Fraction(1, 3)) ** 5
        assert p == expected

    def test_zero_matrix(self):
        assert char_poly([[0] * 3 for _ in range(3)]) == RatPoly.monomial(3)

    def test_empty_matrix(self):
        assert char_poly([]) == RatPoly.one()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            char_poly([[1, 2]])

    @given(graph_strategy(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_monic_degree_trace(self, g):
        p = graph_char_poly(g)
        assert p.degree == g.n
        assert p.leading == 1
        if g.n >= 1:
            assert p.coefficient(g.n - 1) == 0  # zero trace

    @given(graph_strategy(max_n=8))
    @settings(max_examples=40, deadline=None)
    def test_second_coefficient_newton(self, g):
        # With zero trace, the x^(n-2) coefficient is minus the sum of
        # squared entries over edges.
        if g.n < 2:
            return
        from harmspec.graphs import degrees

        deg = degrees(g)
        weight_sq = sum(
            Fraction(2, deg[u] + deg[v]) ** 2 for u, v in g.edges()
        )
        p = graph_char_poly(g)
        assert p.coefficient(g.n - 2) == -weight_sq

    @given(graph_strategy(max_n=7))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_determinant_oracle(self, g):
        # p(t) must equal det(tI - H) at enough points to pin the polynomial.
        m = harmonic_matrix(g)
        p = char_poly(m)
        for t in (0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 7)):
            shifted = [
                [(Fraction(t) if i == j else 0) - m[i][j] for j in range(g.n)]
                for i in range(g.n)
            ]
            assert p.evaluate(t) == exact_det(shifted)


class TestTridiagSequence:
    def test_initial_values(self):
        assert tridiag_charpoly(0) == RatPoly.one()
        assert tridiag_charpoly(1) == X
        assert tridiag_charpoly(2) == X * X - QUARTER

    def test_third_by_hand(self):
        # x(x^2 - 1/4) - (1/4)x
        assert tridiag_charpoly(3) == RatPoly((0, Fraction(-1, 2), 0, 1))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            tridiag_charpoly(-1)

    @pytest.mark.parametrize("k", range(1, 21))
    def test_matches_tridiagonal_matrix(self, k):
        m = [[Fraction(0)] * k for _ in range(k)]
        for i in range(k - 1):
            m[i][i + 1] = HALF
            m[i + 1][i] = HALF
        assert tridiag_charpoly(k) == char_poly(m)


class TestClosedForms:
    def test_cycle3_expansion(self):
        assert closed_form_cycle(3) == RatPoly((Fraction(-1, 4), Fraction(-3, 4), 0, 1))

    def test_path4_proof_form(self):
        assert closed_form_path_proof(4) == RatPoly(
            (Fraction(16, 81), 0, Fraction(-41, 36), 0, 1)
        )

    def test_path_statement_has_wrong_degree(self):
        assert closed_form_path_statement(6).degree == 5
        assert closed_form_path_proof(6).degree == 6

    def test_windmill4_single_blade_is_cycle4(self):
        assert closed_form_windmill4(1) == RatPoly.monomial(2) * (X * X - 1)
        assert closed_form_windmill4(1) == graph_char_poly(cycle(4))

    @pytest.mark.parametrize("n", range(3, 13))
    def test_cycle_matches_oracle(self, n):
        assert closed_form_cycle(n) == graph_char_poly(cycle(n))

    @pytest.mark.parametrize("n", range(2, 13))
    def test_star_and_complete_match_oracle(self, n):
        assert closed_form_star(n) == graph_char_poly(star(n))
        assert closed_form_complete(n) == graph_char_poly(complete(n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_friendship_matches_oracle(self, n):
        assert closed_form_friendship(n) == graph_char_poly(friendship(n))

    def test_bipartite_matches_oracle(self):
        for m in range(1, 6):
            for n in range(m, 7):
                assert closed_form_complete_bipartite(m, n) == graph_char_poly(
                    complete_bipartite(m, n)
                )

    def test_windmill_product_only_single_blade(self):
        assert closed_form_windmill_product(5, 1) == graph_char_poly(dutch_windmill(5, 1))
        assert closed_form_windmill_product(5, 2) != graph_char_poly(dutch_windmill(5, 2))

    def test_petersen_closed_form(self):
        assert closed_form_petersen() == graph_char_poly(petersen())

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            closed_form_cycle(2)
        with pytest.raises(ValueError):
            closed_form_path_proof(3)
        with pytest.raises(ValueError):
            closed_form_star(1)


@given(graph_strategy(max_n=6), graph_strategy(max_n=6))
@settings(max_examples=30, deadline=None)
def test_disjoint_union_charpoly_product(a, b):
    combined = graph_char_poly(disjoint_union([a, b]))
    assert combined == graph_char_poly(a) * graph_char_poly(b)


class TestDisplay:
    def test_factored_triangle(self):
        p = RatPoly((Fraction(-1, 4), Fraction(-3, 4), 0, 1))
        assert factored_display(p) == "(λ - 1)(λ + 1/2)^2"

    def test_no_rational_roots(self):
        assert factored_display(X * X - 2) == "λ^2 - 2"

    def test_pure_power(self):
        assert factored_display(RatPoly.monomial(5)) == "λ^5"

    def test_mixed(self):
        p = RatPoly.monomial(2) * (X * X - Fraction(3, 4))
        assert factored_display(p) == "λ^2(λ^2 - 3/4)"

    def test_non_monic_constant_factor(self):
        assert factored_display(2 * (X - 1) * (X + 1)) == "2(λ - 1)(λ + 1)"

    def test_rational_roots_multiplicities(self):
        p = (X - 1) * (X + HALF) ** 2
        assert rational_roots(p) == [(Fraction(1), 1), (Fraction(-1, 2), 2)]

    def test_deflate_by_non_root_raises(self):
        # x^2 - 1 leaves remainder 3 at x = 2; this must survive python -O.
        with pytest.raises(ArithmeticError, match="lost exactness"):
            _deflate_ints(RatPoly((-1, 0, 1)).numerators, Fraction(2))

    @pytest.mark.parametrize("p, root", [((0, 0, 1), HALF), ((1, 3, 2, 5), Fraction(-2, 3))])
    def test_deflate_by_fraction_non_root_raises(self, p, root):
        # Integer division by (b x - a) must check every step's remainder:
        # λ^2 at 1/2 leaves none at the last step once the others are dropped.
        with pytest.raises(ArithmeticError, match="lost exactness"):
            _deflate_ints(RatPoly(p).numerators, root)

    def test_deflate_inverts_multiplication(self):
        rng = random.Random(17)
        for _ in range(200):
            root = Fraction(rng.randint(-30, 30), rng.randint(1, 30))
            q = RatPoly([Fraction(rng.randint(-50, 50), rng.randint(1, 12)) for _ in range(rng.randint(1, 8))])
            if q.is_zero:
                continue
            # p = A / s and A = B * (b x - a) for root = a/b, so the
            # quotient of p by (x - root) is B * b / s.
            p = q * (X - root)
            quotient = _deflate_ints(p.numerators, root)
            assert RatPoly(quotient) * Fraction(root.denominator, p.denominator) == q

    def test_high_multiplicity_roots_found(self):
        # One class modulo the prime holds every copy of a repeated root.
        for g, roots in [
            (complete(12), [(Fraction(1), 1), (Fraction(-1, 11), 11)]),
            (star(12), [(Fraction(0), 10)]),
            (friendship(6), [(HALF, 5), (-HALF, 6)]),
            (complete(40), [(Fraction(1), 1), (Fraction(-1, 39), 39)]),
        ]:
            assert rational_roots(graph_char_poly(g)) == roots

    def test_poly_text(self):
        p = RatPoly((Fraction(16, 81), 0, Fraction(-41, 36), 0, 1))
        assert poly_text(p) == "λ^4 - 41/36 λ^2 + 16/81"
        assert poly_text(RatPoly.zero()) == "0"

    def test_poly_json(self):
        payload = poly_json(X * X - HALF)
        assert payload["degree"] == 2
        assert payload["coefficients"][0] == {"num": -1, "den": 2}
        assert payload["coefficients"][2] == {"num": 1, "den": 1}


def _sympy_rational_roots(p: RatPoly) -> list[tuple[Fraction, int]]:
    """Linear factors of p over QQ from sympy's factorization, as roots
    with multiplicities in descending order: an oracle independent of the
    spectrum."""
    import sympy

    x = sympy.Symbol("x")
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    _, factors = sympy.Poly(coeffs, x, domain="QQ").factor_list()
    roots = []
    for f, mult in factors:
        if f.degree() == 1:
            a1, a0 = f.all_coeffs()
            root = -a0 / a1
            roots.append((Fraction(int(root.p), int(root.q)), mult))
    return sorted(roots, reverse=True)


# Symmetric 2x2 blocks [[a, b], [b, -a]] with characteristic polynomial
# x^2 - k, k = a^2 + b^2 not a square: an irreducible quadratic factor.
_IRRATIONAL_BLOCKS = {2: (1, 1), 5: (1, 2), 10: (1, 3), 13: (2, 3)}


@st.composite
def planted_matrix(draw):
    """A rational symmetric matrix H D H with the drawn eigenvalues, where
    D is diagonal in the planted roots a/b (b <= 60 or 10^5 <= b <= 10^7,
    |a/b| <= 1, with multiplicities) plus one irreducible 2x2 block, and
    H = I - 2vv^T/v^Tv is a rational Householder reflection. Returns the
    matrix, the planted roots and k."""
    planted: Counter = Counter()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        b = draw(st.one_of(st.integers(min_value=1, max_value=60),
                           st.integers(min_value=10**5, max_value=10**7)))
        a = draw(st.integers(min_value=-b, max_value=b))
        planted[Fraction(a, b)] += draw(st.integers(min_value=1, max_value=3))
    k = draw(st.sampled_from(sorted(_IRRATIONAL_BLOCKS)))
    diag = [r for r, mult in planted.items() for _ in range(mult)]
    n = len(diag) + 2
    d = [[Fraction(0)] * n for _ in range(n)]
    for i, r in enumerate(diag):
        d[i][i] = r
    a, b = _IRRATIONAL_BLOCKS[k]
    d[n - 2][n - 2], d[n - 2][n - 1], d[n - 1][n - 2], d[n - 1][n - 1] = a, b, b, -a
    v = draw(st.lists(st.integers(min_value=-3, max_value=3), min_size=n, max_size=n)
             .filter(any))
    vv = sum(x * x for x in v)
    h = [[(1 if i == j else 0) - Fraction(2 * v[i] * v[j], vv) for j in range(n)]
         for i in range(n)]
    hd = [[sum(h[i][t] * d[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    m = [[sum(hd[i][t] * h[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
    return m, planted, k


class TestRationalRoots:
    def test_roots_beyond_trial_division_cap(self):
        # Both roots are primes above 1e5, where a capped divisor search
        # takes the composite cofactor of the constant term as prime.
        p = (X - 100003) * (X - 100019)
        assert rational_roots(p) == [
            (Fraction(100019), 1), (Fraction(100003), 1)]

    def test_denominator_at_documented_bound(self):
        q = 10**5
        p = (X - Fraction(1, q)) * (X + Fraction(q - 1, q))
        assert rational_roots(p) == [
            (Fraction(1, q), 1), (Fraction(1 - q, q), 1)]

    @pytest.mark.parametrize("p, roots", [
        # A denominator above 10^5, which no rounding of a float spectrum
        # to denominators of at most 10^5 can find.
        ((X - Fraction(1, 100019)) * (X - 2), [(Fraction(2), 1), (Fraction(1, 100019), 1)]),
        # 1 and 4 meet modulo 3, the first prime tried; 5 parts them.
        ((X - 1) * (X - 4), [(Fraction(4), 1), (Fraction(1), 1)]),
        # A root modulo every prime, each of multiplicity 2 and none rational.
        (((X * X - 2) * (X * X - 3) * (X * X - 6)) ** 2, []),
        (((X * X - 2) * (X * X - 3) * (X * X - 6) * (X - Fraction(1, 3))) ** 2,
         [(Fraction(1, 3), 2)]),
        # |f_0| = 2 and |f_n| near 10^12: the rebuild needs q^k > 2 |f_0| |f_n|.
        ((X - 2) * (X - Fraction(1, 10**12 + 39)),
         [(Fraction(2), 1), (Fraction(1, 10**12 + 39), 1)]),
    ], ids=["denominator-100019", "roots-meet-mod-3", "square-of-irrationals",
            "square-with-one-third", "denominator-near-1e12"])
    def test_every_root_found(self, p, roots):
        assert rational_roots(p) == roots
        product = RatPoly.one()
        for root, mult in roots:
            product = product * (X - root) ** mult
        assert product * charpoly._split_rational_roots(p)[1] == p

    @given(planted_matrix())
    @settings(max_examples=40, deadline=None)
    def test_planted_roots_found(self, case):
        m, planted, k = case
        p = char_poly(m)
        roots = rational_roots(p)
        assert roots == sorted(planted.items(), reverse=True)
        product = X * X - k
        for root, mult in roots:
            product = product * (X - root) ** mult
        assert product == p

    def test_matches_sympy_on_audit_graphs(self):
        for g in audit_exact_polynomial_graphs():
            p = graph_char_poly(g)
            assert rational_roots(p) == _sympy_rational_roots(p)

    def test_matches_sympy_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 12), rng.choice((0.2, 0.5, 0.8)))
            p = graph_char_poly(g)
            assert rational_roots(p) == _sympy_rational_roots(p)


class TestDivisorReference:
    """The display is byte-identical to the one built on the divisor
    search kept in conftest, on the graphs whose polynomials the audit and
    the census produce."""

    @staticmethod
    def _assert_same_display(graphs, monkeypatch):
        polys = [graph_char_poly(g) for g in graphs]
        got = [factored_display(p) for p in polys]

        def divisor_split(p):
            roots = divisor_rational_roots(p)
            for root, mult in roots:
                for _ in range(mult):
                    p = fraction_deflate(p, root)
            return roots, p

        monkeypatch.setattr(charpoly, "_split_rational_roots", divisor_split)
        assert got == [factored_display(p) for p in polys]

    def test_audit_graphs(self, monkeypatch):
        self._assert_same_display(audit_exact_polynomial_graphs(), monkeypatch)

    def test_cubic_census_graphs(self, monkeypatch, cubic10):
        graphs = enumerate_regular(8, 3) + [decode_graph6(r.graph6) for r in cubic10[0]]
        self._assert_same_display(graphs, monkeypatch)


@st.composite
def rational_matrix(draw):
    """A square, generally non-symmetric rational matrix of order at most 6
    whose entries are zero or fractions with numerators up to 10^25 in
    absolute value and denominators up to 10^15."""
    n = draw(st.integers(min_value=1, max_value=6))
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-10**25, 10**25), st.integers(1, 10**15)),
    )
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


def _sympy_char_poly(m) -> RatPoly:
    import sympy

    x = sympy.Symbol("x")
    rows = [[sympy.Rational(v.numerator, v.denominator) for v in map(Fraction, row)] for row in m]
    coeffs = sympy.Matrix(rows).charpoly(x).all_coeffs()
    return RatPoly([Fraction(int(c.p), int(c.q)) for c in reversed(coeffs)])


class TestCharPolyReference:
    """char_poly equals the Faddeev-LeVerrier reference kept in conftest."""

    @staticmethod
    def _assert_reference(m):
        assert char_poly(m) == faddeev_leverrier_char_poly(m)

    def test_audit_graphs(self):
        for g in audit_exact_polynomial_graphs():
            self._assert_reference(harmonic_matrix(g))

    def test_cubic_census_graphs(self, cubic10):
        for record in cubic10[0]:
            self._assert_reference(harmonic_matrix(decode_graph6(record.graph6)))

    def test_random_graphs(self):
        rng = random.Random(29)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 30), rng.choice((0.1, 0.3, 0.5, 0.9)))
            self._assert_reference(harmonic_matrix(g))

    @given(rational_matrix())
    @settings(max_examples=60, deadline=None)
    def test_rational_matrices(self, m):
        self._assert_reference(m)

    @pytest.mark.parametrize("case", range(4))
    def test_sympy_and_determinant(self, case):
        rng = random.Random(case)
        if case < 2:
            m = harmonic_matrix(random_graph(rng, 9 + case, 0.5))
        else:
            m = [[Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**9))
                  for _ in range(5)] for _ in range(5)]
        p = char_poly(m)
        assert p == _sympy_char_poly(m)
        for t in (Fraction(0), Fraction(-2, 3), Fraction(7, 5)):
            shifted = [[(t if i == j else 0) - m[i][j] for j in range(len(m))]
                       for i in range(len(m))]
            assert p.evaluate(t) == exact_det(shifted)

    @pytest.mark.slow
    def test_order64(self):
        self._assert_reference(harmonic_matrix(random_graph(random.Random(64), 64, 0.5)))


# The largest prime below 2^31 and the next one down: the first two primes
# of the modular reduction.
_P1 = 2**31 - 1
_P2 = 2**31 - 19


class TestModularCharPoly:
    """Inputs that each break one part of the modular algorithm: the pivot
    choice, the coefficient bound, the residue table, the zero columns."""

    def test_pivot_vanishing_modulo_one_prime(self):
        # Column 0 has the subdiagonal pivot 2^31 - 1, zero modulo the
        # first prime only, which must pivot on the row below instead.
        m = [[1, 2, 3, 4], [_P1, 5, 6, 7], [8, 9, 10, 11], [12, _P1, 13, 14]]
        assert char_poly(m) == faddeev_leverrier_char_poly(m)
        assert char_poly(m) == _sympy_char_poly(m)

    def test_entries_and_denominators_beyond_int64(self):
        m = [[Fraction(3**50, 2**64 + 13), Fraction(-(2**70) - 1, 7), 0],
             [Fraction(5, 3**41), Fraction(2**65 + 1), Fraction(-1, 2**66 + 1)],
             [Fraction(-(10**30)), Fraction(1, 2**64 + 13), Fraction(11, 13)]]
        assert char_poly(m) == faddeev_leverrier_char_poly(m)
        assert char_poly(m) == _sympy_char_poly(m)

    def test_large_diagonal(self):
        # Constant term -N^5 against the bound (N + 2)^5.
        n, big = 5, 10**40 + 1
        m = [[big if i == j else 0 for j in range(n)] for i in range(n)]
        assert char_poly(m) == (X - big) ** n

    def test_constant_term_needs_the_factor_two(self):
        # The product of the first two primes exceeds the bound N + 2 on
        # the constant term -N but not twice it, so the reconstruction
        # needs a third prime to recover the sign.
        import sympy

        assert sympy.prevprime(_P1) == _P2 and sympy.isprime(_P1)
        big = _P1 * _P2 // 2 + 1
        assert big + 2 < _P1 * _P2 < 2 * (big + 2)
        assert char_poly([[big]]) == X - big

    def test_hadamard_rows_reach_the_norm_bound(self):
        # N times a 4x4 Hadamard matrix has determinant 16 N^4, which the
        # row norms bound and the largest entries, (N + 1)^4, do not. N is
        # chosen so that three primes cover twice the latter but not the
        # determinant.
        import sympy

        primes = [_P1, _P2, sympy.prevprime(_P2)]
        product = math.prod(primes)
        big = math.isqrt(math.isqrt(product // 8))
        assert 2 * (big + 1) ** 4 < product < 2 * 16 * big**4
        signs = [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
        m = [[big * s for s in row] for row in signs]
        assert char_poly(m).coefficient(0) == 16 * big**4
        assert char_poly(m) == faddeev_leverrier_char_poly(m)

    def test_block_diagonal(self):
        blocks = [[[Fraction(3, 2)]], [[1, 2], [3, 4]], [[0, 1, 1], [1, 0, 1], [1, 1, 0]],
                  [[Fraction(-1, 3)]]]
        n = sum(len(b) for b in blocks)
        m = [[0] * n for _ in range(n)]
        at = 0
        for b in blocks:
            for i, row in enumerate(b):
                m[at + i][at:at + len(b)] = row
            at += len(b)
        expected = RatPoly.one()
        for b in blocks:
            expected = expected * faddeev_leverrier_char_poly(b)
        assert char_poly(m) == expected == faddeev_leverrier_char_poly(m)

    def test_order_one(self):
        assert char_poly([[Fraction(-3, 7)]]) == X + Fraction(3, 7)
        assert char_poly([[0]]) == X

    @pytest.mark.parametrize("lane", [0, -1], ids=["reconstruction-prime", "check-prime"])
    def test_corrupted_residues_raise(self, monkeypatch, lane):
        # The Petersen matrix needs fewer primes than one chunk holds, so a
        # single call returns the residues of every prime, the check last.
        reduce = charpoly._hessenberg_char_poly

        def corrupt(h, primes):
            out = reduce(h, primes)
            out[lane, 0] = (out[lane, 0] + 1) % primes[lane]
            return out

        monkeypatch.setattr(charpoly, "_hessenberg_char_poly", corrupt)
        with pytest.raises(ArithmeticError, match="lost exactness"):
            graph_char_poly(petersen())

    @pytest.mark.parametrize("lane", [0, -1], ids=["reconstruction-prime", "check-prime"])
    def test_corrupted_residues_of_a_stacked_matrix_raise(self, monkeypatch, lane):
        # Petersen and C10 share one kernel call; corrupt a lane of C10, the
        # second matrix of the call.
        matrices = [harmonic_matrix(petersen()), harmonic_matrix(cycle(10))]
        first, second = (len(charpoly._modular_plan(m).moduli) for m in matrices)
        assert first + second <= charpoly.PRIME_CHUNK
        target = first if lane == 0 else first + second - 1
        reduce = charpoly._hessenberg_char_poly
        calls = []

        def corrupt(h, primes):
            calls.append(len(primes))
            out = reduce(h, primes)
            out[target, 0] = (out[target, 0] + 1) % primes[target]
            return out

        monkeypatch.setattr(charpoly, "_hessenberg_char_poly", corrupt)
        with pytest.raises(ArithmeticError, match="lost exactness"):
            char_polys(matrices)
        assert calls == [first + second]

    @pytest.mark.parametrize("lane", [0, -1], ids=["reconstruction-prime", "check-prime"])
    def test_corrupted_residues_of_a_padded_matrix_raise(self, monkeypatch, lane):
        # C5 and Petersen share one kernel call of order 10, C5's lanes
        # first and zero-padded from order 5; corrupt a lane of C5 in the
        # constant term of its own polynomial.
        matrices = [harmonic_matrix(petersen()), harmonic_matrix(cycle(5))]
        first, second = (len(charpoly._modular_plan(m).moduli) for m in matrices)
        assert first + second <= charpoly.PRIME_CHUNK
        target = 0 if lane == 0 else second - 1
        reduce = charpoly._hessenberg_char_poly
        calls = []

        def corrupt(h, primes):
            calls.append(h.shape)
            out = reduce(h, primes)
            # det(xI - diag(M, 0)) = x^5 det(xI - M) on C5's lanes.
            assert not out[:second, :5].any()
            out[target, 5] = (out[target, 5] + 1) % primes[target]
            return out

        monkeypatch.setattr(charpoly, "_hessenberg_char_poly", corrupt)
        with pytest.raises(ArithmeticError, match="lost exactness"):
            char_polys(matrices)
        assert calls == [(first + second, 10, 10)]

    @pytest.mark.parametrize("lane", [0, -1], ids=["reconstruction-prime", "check-prime"])
    def test_corrupted_residues_of_a_row_scaled_plan_raise(self, monkeypatch, lane):
        # A non-regular graph whose rows have different denominators, so
        # its plan scales by t = gcd(s_i) rather than lcm(s_i), with det U
        # > 1; it too needs fewer primes than one chunk holds.
        m = harmonic_matrix(random_graph(random.Random(1), 20, 0.15))
        plan = charpoly._modular_plan(m)
        row_lcms = [math.lcm(*(x.denominator for x in row)) for row in m]
        assert plan.scale == math.gcd(*row_lcms) < math.lcm(*row_lcms)
        assert plan.det_u > 1 and len(plan.moduli) <= charpoly.PRIME_CHUNK
        reduce = charpoly._hessenberg_char_poly

        def corrupt(h, primes):
            out = reduce(h, primes)
            out[lane, 0] = (out[lane, 0] + 1) % primes[lane]
            return out

        monkeypatch.setattr(charpoly, "_hessenberg_char_poly", corrupt)
        with pytest.raises(ArithmeticError, match="lost exactness"):
            char_poly(m)


def _spy_kernel(monkeypatch) -> list[tuple[tuple[int, int, int], list[int], list[int]]]:
    """Record every kernel call: the shape of its residue stack, its primes,
    and each lane's order, read as the number of nonzero rows of the lane's
    padded matrix."""
    reduce = charpoly._hessenberg_char_poly
    calls = []

    def spy(h, primes):
        calls.append((h.shape, list(primes), np.count_nonzero(h.any(axis=2), axis=1).tolist()))
        return reduce(h, primes)

    monkeypatch.setattr(charpoly, "_hessenberg_char_poly", spy)
    return calls


def _matrices_in(primes: list[int]) -> int:
    """How many matrices' lanes a call holds: each matrix takes its primes
    in descending order, so a prime no smaller than the one before starts
    the next matrix."""
    return 1 + sum(b >= a for a, b in zip(primes, primes[1:]))


def _within_budget(shape: tuple[int, int, int]) -> bool:
    lanes, n, _ = shape
    return lanes <= charpoly.PRIME_CHUNK or lanes * n * n <= BATCH_ENTRIES


class TestStackedCharPolys:
    """char_polys sorts the lanes of all matrices by order and fills each
    kernel call with consecutive lanes, zero-padded to the call's largest
    order."""

    def test_mixed_orders_match_reference(self, monkeypatch):
        rng = random.Random(41)
        large = [harmonic_matrix(random_graph(rng, 40, 0.5)) for _ in range(2)]
        small = [harmonic_matrix(random_graph(rng, 20, 0.15)) for _ in range(3)]
        matrices = [harmonic_matrix(g) for g in audit_exact_polynomial_graphs()]
        matrices[3:3] = [large[0], small[0], [], small[1], [[Fraction(-5, 3)]], large[1], small[2]]
        calls = _spy_kernel(monkeypatch)
        assert char_polys(matrices) == [faddeev_leverrier_char_poly(m) for m in matrices]
        # Some kernel call holds the lanes of several matrices, and some
        # matrix's lanes run across two calls.
        assert any(_matrices_in(primes) > 1 for _, primes, _ in calls)
        assert any(primes[0] != _P1 for _, primes, _ in calls)
        assert all(_within_budget(shape) for shape, _, _ in calls)

    def test_one_call_holds_several_orders(self, monkeypatch):
        # Orders 0 to 25, every entry nonzero, so that a lane's order is the
        # number of nonzero rows of its padded matrix.
        rng = random.Random(43)
        matrices = [[[Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                      for _ in range(n)] for _ in range(n)] for n in range(26)]
        rng.shuffle(matrices)
        calls = _spy_kernel(monkeypatch)
        assert char_polys(matrices) == [faddeev_leverrier_char_poly(m) for m in matrices]
        assert {0, 1} < set(calls[0][2])
        for shape, primes, orders in calls:
            assert shape[0] == len(primes) == len(orders)
            assert shape[1] == max(orders)
            assert _within_budget(shape)
        lanes = sorted(order for _, _, orders in calls for order in orders)
        assert lanes == sorted(len(m) for m in matrices
                               for _ in charpoly._modular_plan(m).moduli)

    def test_audit_batch_takes_two_calls(self, monkeypatch):
        # Grouped by order, the audit's 201 lanes of orders 2 to 25 took 23
        # kernel calls.
        graphs = audit_exact_polynomial_graphs()
        calls = _spy_kernel(monkeypatch)
        graph_char_polys(graphs)
        assert [shape[1] for shape, _, _ in calls] == [12, 25]
        assert all(_within_budget(shape) for shape, _, _ in calls)
        assert sum(len(primes) for _, primes, _ in calls) == sum(
            len(charpoly._modular_plan(harmonic_matrix(g)).moduli) for g in graphs)

    def test_order_40_calls_hold_prime_chunk_lanes(self, monkeypatch):
        m = harmonic_matrix(random_graph(random.Random(1), 40, 0.5))
        full, rest = divmod(len(charpoly._modular_plan(m).moduli), charpoly.PRIME_CHUNK)
        calls = _spy_kernel(monkeypatch)
        char_poly(m)
        assert [shape for shape, _, _ in calls] == (
            [(charpoly.PRIME_CHUNK, 40, 40)] * full + [(rest, 40, 40)] * bool(rest))

    def test_batch_equals_one_at_a_time(self):
        matrices = [harmonic_matrix(g) for g in audit_exact_polynomial_graphs()]
        assert char_polys(matrices) == [char_poly(m) for m in matrices]
        assert char_polys([]) == []

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_non_square_anywhere_raises_before_reducing(self, monkeypatch, at):
        def unreachable(h, primes):
            raise AssertionError("kernel reached")

        monkeypatch.setattr(charpoly, "_hessenberg_char_poly", unreachable)
        matrices = [harmonic_matrix(petersen()), harmonic_matrix(cycle(5))]
        matrices.insert(at, [[1, 2], [3, 4], [5, 6]])
        with pytest.raises(ValueError, match="square"):
            char_polys(matrices)


def _row_scaled_matrix(rng: random.Random, exponents, factors) -> list[list[Fraction]]:
    """A random rational matrix whose row i has numerators up to 10^6 and
    denominators factors[i] times a number up to 10^exponents[i]."""
    n = len(exponents)
    return [[Fraction(rng.randint(-10**6, 10**6), f * rng.randint(1, 10**e)) for _ in range(n)]
            for e, f in zip(exponents, factors)]


@st.composite
def row_scaled_matrix(draw):
    """A square rational matrix of order at most 6 whose rows draw their
    denominators from ranges up to 10^0 .. 10^15, some of them multiples of
    the first two kernel primes."""
    n = draw(st.integers(min_value=1, max_value=6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    exponents = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))
    factors = draw(st.lists(st.sampled_from((1, 1, _P1, _P2, _P1 * _P2)), min_size=n, max_size=n))
    return _row_scaled_matrix(rng, exponents, factors)


# Rows whose denominators differ by orders of magnitude; the later cases
# put multiples of the first two kernel primes into some rows' denominators.
_HOSTILE = {
    "magnitudes": ((0, 3, 6, 9, 12, 15), (1,) * 6),
    "one-wide-row": ((0, 0, 0, 0, 15), (1,) * 5),
    "first-prime": ((0, 2, 4, 6), (_P1, 1, 1, 1)),
    "both-primes": ((1, 9, 0, 5, 3), (_P1, _P2, 1, _P1 * _P2, 1)),
    "every-row-prime": ((0, 0, 0), (_P1, _P2, _P1)),
}


def _hostile(name: str) -> list[list[Fraction]]:
    return _row_scaled_matrix(random.Random(name), *_HOSTILE[name])


def _integer_coefficients(m, plan) -> list[Fraction]:
    """Coefficients of P(y) = det(yU - S*M) = det(U) * t^n * det(y/t I - M),
    the integer polynomial the plan reconstructs, read off char_poly(M)."""
    n = len(m)
    p = char_poly(m)
    return [p.coefficient(k) * plan.det_u * plan.scale ** (n - k) for k in range(n + 1)]


class TestRowScaledPlan:
    """The plan scales each row by its own denominators: its bound holds on
    the integer polynomial it reconstructs, it never needs more moduli than
    the single global scale, and it skips kernel primes that divide a
    denominator."""

    @staticmethod
    def _assert_plans(matrices):
        for m in matrices:
            plan = charpoly._modular_plan(m)
            assert len(plan.moduli) <= global_scale_modulus_count(m)
            coeffs = _integer_coefficients(m, plan)
            assert all(c.denominator == 1 for c in coeffs)
            assert max(abs(c) for c in coeffs) <= plan.bound
            assert 2 * plan.bound < math.prod(plan.moduli[:-1])

    def test_audit_graphs(self):
        self._assert_plans(harmonic_matrix(g) for g in audit_exact_polynomial_graphs())

    def test_cubic_census_graphs(self, cubic10):
        self._assert_plans(harmonic_matrix(decode_graph6(r.graph6)) for r in cubic10[0])

    def test_cubic12_census_graphs(self):
        path = Path(__file__).parent / "data" / "census_12_3.g6"
        lines = path.read_text().split()
        assert len(lines) == 94
        self._assert_plans(harmonic_matrix(decode_graph6(line)) for line in lines)

    def test_random_graphs(self):
        rng = random.Random(13)
        self._assert_plans(harmonic_matrix(random_graph(rng, n, p))
                           for n in (1, 2, 3, 5, 8, 10, 15, 20, 30, 40)
                           for p in (0.15, 0.5, 0.85))

    @pytest.mark.parametrize("p, pinned", [(0.15, 17), (0.5, 49)])
    def test_fewer_moduli_at_order_40(self, p, pinned):
        # Seed-1 G(40, p) needs 34 and 85 moduli under one global scale;
        # the pinned counts may fall but not rise.
        m = harmonic_matrix(random_graph(random.Random(1), 40, p))
        assert len(charpoly._modular_plan(m).moduli) <= pinned < global_scale_modulus_count(m)

    @pytest.mark.parametrize("name", list(_HOSTILE))
    def test_hostile_denominators(self, name):
        m = _hostile(name)
        plan = charpoly._modular_plan(m)
        dens = {x.denominator for row in m for x in row}
        assert all(d % q for q in plan.moduli for d in dens)
        for q in (_P1, _P2):
            assert (q in plan.moduli) == all(f % q for f in _HOSTILE[name][1])
        coeffs = _integer_coefficients(m, plan)
        assert all(c.denominator == 1 for c in coeffs)
        assert max(abs(c) for c in coeffs) <= plan.bound
        assert char_poly(m) == faddeev_leverrier_char_poly(m) == _sympy_char_poly(m)

    def test_row_scale_chosen_for_wide_rows(self):
        # One row with denominators near 10^15 makes every other row pay
        # for them under one global scale; scaling by the gcd of the row
        # denominators does not.
        m = _hostile("one-wide-row")
        plan = charpoly._modular_plan(m)
        assert plan.scale == 1 and plan.det_u > 1
        assert len(plan.moduli) < global_scale_modulus_count(m)

    @given(row_scaled_matrix())
    @settings(max_examples=60, deadline=None)
    def test_row_scaled_matrices(self, m):
        plan = charpoly._modular_plan(m)
        assert max(abs(c) for c in _integer_coefficients(m, plan)) <= plan.bound
        assert char_poly(m) == faddeev_leverrier_char_poly(m)


@pytest.mark.slow
@pytest.mark.parametrize("p", [0.15, 0.5])
def test_order100_against_determinant(p):
    g = random_graph(random.Random(1), 100, p)
    m = harmonic_matrix(g)
    cp = graph_char_poly(g)
    assert cp.degree == 100 and cp.leading == 1
    assert cp.coefficient(99) == -sum(m[i][i] for i in range(100)) == 0
    for t in (Fraction(2), Fraction(-1, 3)):
        shifted = [[(t if i == j else 0) - m[i][j] for j in range(100)] for i in range(100)]
        assert cp.evaluate(t) == exact_det(shifted)
