import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings

from harmspec.families import (
    complete,
    complete_bipartite,
    cycle,
    path,
    petersen,
    star,
)
from harmspec.graphs import build_graph, disjoint_union, relabel
from harmspec.harmonic import harmonic_matrix
from harmspec.spectrum import (
    JacobiConvergenceError,
    Spectrum,
    eigenvalues_symmetric,
    harmonic_energy,
    jacobi_eigenvalues,
    spectrum_json,
)

from conftest import graph_strategy, random_graph


class TestEigensolver:
    def test_petersen_spectrum(self):
        spec = eigenvalues_symmetric(harmonic_matrix(petersen()))
        expected = [1.0] + [1 / 3] * 5 + [-2 / 3] * 4
        assert np.allclose(spec.eigenvalues, expected, atol=1e-10)

    def test_zero_matrix(self):
        spec = eigenvalues_symmetric([[Fraction(0)] * 4 for _ in range(4)])
        assert spec.eigenvalues == (0.0,) * 4
        assert spec.sweeps == 0

    def test_two_path(self):
        spec = eigenvalues_symmetric(harmonic_matrix(path(2)))
        assert np.allclose(spec.eigenvalues, [1.0, -1.0], atol=1e-12)

    def test_sorted_non_increasing(self):
        spec = eigenvalues_symmetric(harmonic_matrix(cycle(7)))
        assert list(spec.eigenvalues) == sorted(spec.eigenvalues, reverse=True)

    def test_agrees_with_lapack(self):
        rng = random.Random(7)
        for n in (2, 5, 9, 16):
            a = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)])
            a = (a + a.T) / 2
            mine, off, sweeps = jacobi_eigenvalues(a.copy())
            ref = np.sort(np.linalg.eigvalsh(a))[::-1]
            assert np.allclose(mine, ref, atol=1e-10)
            assert sweeps < 100

    def test_convergence_error_carries_residual(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(JacobiConvergenceError) as err:
            jacobi_eigenvalues(a, max_sweeps=0)
        assert err.value.residual > 0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigenvalues_symmetric([[0, 1], [2, 0]])

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError, match="tolerance"):
            eigenvalues_symmetric([[0]], tol=0)


class TestHarmonicEnergy:
    @pytest.mark.parametrize("n", range(2, 13))
    def test_complete(self, n):
        assert abs(harmonic_energy(complete(n)).he - 2.0) < 1e-9

    @pytest.mark.parametrize("n", range(2, 13))
    def test_star(self, n):
        expected = 4.0 * math.sqrt(n - 1) / n
        assert abs(harmonic_energy(star(n)).he - expected) < 1e-9

    def test_complete_bipartite(self):
        for m in range(1, 7):
            for n in range(m, 8):
                expected = 4.0 * math.sqrt(m * n) / (m + n)
                assert abs(harmonic_energy(complete_bipartite(m, n)).he - expected) < 1e-9

    def test_petersen(self):
        rep = harmonic_energy(petersen())
        assert abs(rep.he - 16.0 / 3.0) < 1e-9
        assert spectrum_json(rep)["method"] == "jacobi"

    def test_edgeless_is_zero(self):
        assert harmonic_energy(build_graph(5, [])).he == 0.0

    def test_report_fingerprint(self):
        from harmspec.graphs import encode_graph6

        g = cycle(5)
        assert harmonic_energy(g).graph6 == encode_graph6(g)


class TestSpectralProperties:
    @given(graph_strategy(max_n=10))
    @settings(max_examples=40, deadline=None)
    def test_trace_zero(self, g):
        spec = eigenvalues_symmetric(harmonic_matrix(g))
        assert abs(sum(spec.eigenvalues)) < 1e-10 * max(g.n, 1)

    @given(graph_strategy(max_n=10))
    @settings(max_examples=40, deadline=None)
    def test_frobenius_identity(self, g):
        from harmspec.graphs import degrees

        deg = degrees(g)
        exact = 2 * sum(
            Fraction(2, deg[u] + deg[v]) ** 2 for u, v in g.edges()
        )
        spec = eigenvalues_symmetric(harmonic_matrix(g))
        assert abs(sum(x * x for x in spec.eigenvalues) - float(exact)) < 1e-9

    def test_relabeling_invariance(self):
        rng = random.Random(11)
        for _ in range(10):
            g = random_graph(rng, rng.randint(2, 9))
            perm = list(range(g.n))
            rng.shuffle(perm)
            assert abs(harmonic_energy(g).he - harmonic_energy(relabel(g, perm)).he) < 1e-10

    def test_union_energy_additive(self):
        rng = random.Random(13)
        for _ in range(10):
            a = random_graph(rng, rng.randint(1, 7))
            b = random_graph(rng, rng.randint(1, 7))
            combined = harmonic_energy(disjoint_union([a, b])).he
            assert abs(combined - harmonic_energy(a).he - harmonic_energy(b).he) < 1e-9

    @given(graph_strategy(max_n=9))
    @settings(max_examples=40, deadline=None)
    def test_energy_zero_iff_edgeless(self, g):
        he = harmonic_energy(g).he
        assert he >= 0
        if g.edge_count == 0:
            assert he == 0.0
        else:
            assert he > 1e-6
