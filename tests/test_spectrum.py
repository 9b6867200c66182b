import json
import math
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from harmspec import spectrum as spectrum_mod
from harmspec.cli import main
from harmspec.families import (
    complete,
    complete_bipartite,
    cycle,
    path,
    petersen,
    star,
)
from harmspec.graphs import (
    build_graph,
    decode_graph6,
    disjoint_union,
    encode_graph6,
    read_graph6_file,
    relabel,
)
from harmspec.harmonic import harmonic_matrix
from harmspec.spectrum import (
    UNIT_ROUNDOFF,
    JacobiConvergenceError,
    Spectrum,
    _round_robin,
    error_bounds,
    eigenvalues_symmetric,
    harmonic_energies,
    harmonic_energy,
    jacobi_eigenvalues,
    jacobi_eigenvalues_stack,
    order_batches,
)

from conftest import (
    audit_exact_polynomial_graphs,
    audit_spectrum_graphs,
    cyclic_jacobi_eigenvalues,
    graph_strategy,
    mp_spectrum_errors,
    random_graph,
    ring_schedule,
    round_robin_jacobi_eigenvalues,
)

DATA = Path(__file__).parent / "data"


def _bytes(eigenvalues) -> bytes:
    """The bytes of a spectrum's eigenvalues as float64s, so that the sign
    of a zero counts too."""
    return np.array(eigenvalues, dtype=float).tobytes()


def harmonic_floats(g) -> np.ndarray:
    """The harmonic matrix of g as correctly rounded floats, from its
    Fractions."""
    return np.array(harmonic_matrix(g), dtype=float).reshape(g.n, g.n)


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

    def test_convergence_error_carries_residual(self, monkeypatch):
        monkeypatch.setattr(spectrum_mod, "MAX_SWEEPS", 0)
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(JacobiConvergenceError) as err:
            jacobi_eigenvalues(a)
        assert err.value.residual > 0

    def test_spectrum_unpacks_as_solver_triple(self):
        # perfbench's tracer reads jacobi_eigenvalues' sweep count as result[2].
        spec = jacobi_eigenvalues(harmonic_floats(petersen()))
        eig, off, sweeps = spec
        assert (eig, off, sweeps) == (spec.eigenvalues, spec.off_norm, spec.sweeps)
        assert spec[2] == spec.sweeps > 0
        assert all(type(x) is float for x in spec.eigenvalues)
        assert spec.he == float(sum(abs(x) for x in spec.eigenvalues))

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigenvalues_symmetric([[0, 1], [2, 0]])

    def test_empty_shapes(self):
        # [] is the matrix of order 0; an empty grid of another shape is
        # not square.
        assert eigenvalues_symmetric([]) == Spectrum((), 0.0, 0)
        with pytest.raises(ValueError, match=r"square, got shape \(1, 0\)"):
            eigenvalues_symmetric([[]])


def _eigvalsh_error(a: np.ndarray) -> float:
    eig, _, _ = jacobi_eigenvalues(a)
    return float(np.max(np.abs(eig - np.sort(np.linalg.eigvalsh(a))[::-1]), initial=0.0))


class TestRoundRobin:
    @pytest.mark.parametrize("n", range(1, 14))
    def test_schedule(self, n):
        r, p, q = table = _round_robin(n)
        assert not table.flags.writeable  # shared by every caller
        assert list(r) == sorted(r)
        if n > 1:
            assert list(np.unique(r)) == list(range(n - 1 if n % 2 == 0 else n))
        rounds = []
        for k in np.unique(r):
            pk, qk = p[r == k], q[r == k]
            assert len(pk) == len(qk) == n // 2
            assert len(set(pk) | set(qk)) == 2 * len(pk)  # disjoint pairs
            assert all(pk < qk)
            rounds.append((pk.tolist(), qk.tolist()))
        assert sorted(zip(p.tolist(), q.tolist())) == list(combinations(range(n), 2))
        assert rounds == ring_schedule(n)

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 31, 50, 64, 99, 100])
    def test_agrees_with_eigvalsh(self, n):
        rng = np.random.default_rng(n)
        a = rng.uniform(-1, 1, (n, n))
        a = (a + a.T) / 2
        assert _eigvalsh_error(a) < 1e-13 * max(1.0, np.linalg.norm(a))

    def test_bit_identical_repeats(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, (33, 33))
        a = a + a.T
        before = a.copy()
        runs = [jacobi_eigenvalues(a) for _ in range(3)]
        assert np.array_equal(a, before)
        for run in runs[1:]:
            assert _bytes(run.eigenvalues) == _bytes(runs[0].eigenvalues)
            assert (run.off_norm, run.sweeps) == (runs[0].off_norm, runs[0].sweeps)

    @pytest.mark.parametrize(
        "name, a",
        [
            ("K16", harmonic_floats(complete(16))),
            ("K17", harmonic_floats(complete(17))),
            ("petersen", harmonic_floats(petersen())),
            ("4 x petersen", harmonic_floats(disjoint_union([petersen()] * 4))),
            ("5 x C7", harmonic_floats(disjoint_union([cycle(7)] * 5))),
            ("3 x dense 6", np.kron(np.eye(3), np.full((6, 6), 0.25) + np.diag([0.5] * 6))),
        ],
    )
    def test_repeated_eigenvalues(self, name, a):
        eig, off, sweeps = jacobi_eigenvalues(a)
        # Both orderings take 4 to 10 sweeps on relabelings of these.
        assert off <= 1e-12 * np.linalg.norm(a) and sweeps <= 12
        assert np.max(np.abs(eig - np.sort(np.linalg.eigvalsh(a))[::-1])) < 1e-14

    def test_clustered_eigenvalues(self):
        rng = np.random.default_rng(3)
        values = np.repeat([1.0, 1.0 + 1e-10, -0.5, -0.5 - 1e-9], 6)
        basis, _ = np.linalg.qr(rng.standard_normal((24, 24)))
        a = basis @ np.diag(values) @ basis.T
        a = (a + a.T) / 2
        eig, _, sweeps = jacobi_eigenvalues(a)
        assert sweeps <= 20  # 14 here, and 13 for the cyclic ordering
        assert np.max(np.abs(eig - np.sort(np.linalg.eigvalsh(a))[::-1])) < 1e-13

    def test_zero_entries_with_equal_diagonal(self):
        # theta = 0/0 for every pair but (0, 1); those pairs must be skipped.
        a = np.eye(6)
        a[0, 1] = a[1, 0] = 0.5
        eig, off, sweeps = jacobi_eigenvalues(a)
        assert off == 0.0 and sweeps == 1
        assert np.max(np.abs(np.subtract(eig, [1.5, 1.0, 1.0, 1.0, 1.0, 0.5]))) < 1e-15

    @pytest.mark.parametrize(
        "a",
        [
            [[0.0, 1e-310], [1e-310, 1.0]],  # |apq| < 1e-36 |diff|: theta overflows
            [[0.0, 1e-300], [1e-300, -3.0]],
            [[1.0, 0.5], [0.5, 1.0]],  # theta = 0
            [[0.2, -0.7], [-0.7, -0.4]],
        ],
    )
    def test_order_two_matches_cyclic(self, a):
        # One pair: both orderings do the same single rotation, bit for bit.
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = jacobi_eigenvalues(np.array(a))
        want = cyclic_jacobi_eigenvalues(np.array(a))
        assert _bytes(got.eigenvalues) == want[0].tobytes()
        assert (got.off_norm, got.sweeps) == want[1:]

    def test_overflow_guard_in_a_round(self):
        a = harmonic_floats(cycle(9))
        a[0, 4] = a[4, 0] = 1e-310
        a[2, 2] = 1.0
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            assert _eigvalsh_error(a) < 1e-14

    def test_agrees_with_cyclic_on_audit_grid(self):
        for g in audit_exact_polynomial_graphs():
            a = harmonic_floats(g)
            got = jacobi_eigenvalues(a)[0]
            want = cyclic_jacobi_eigenvalues(a)[0]
            assert np.max(np.abs(got - want), initial=0.0) < 1e-13, g


def _equal_diagonal(n: int) -> np.ndarray:
    # The matrix of TestRoundRobin.test_zero_entries_with_equal_diagonal.
    a = np.eye(n)
    a[0, 1] = a[1, 0] = 0.5
    return a


def _overflow_guard(n: int) -> np.ndarray:
    # The matrix of TestRoundRobin.test_overflow_guard_in_a_round.
    a = harmonic_floats(cycle(n))
    a[0, 4] = a[4, 0] = 1e-310
    a[2, 2] = 1.0
    return a


def _stopping_rule(monkeypatch, tol: float, max_sweeps: int) -> dict:
    """Set the solver's stopping rule; returns it as the reference solver's
    keyword arguments."""
    monkeypatch.setattr(spectrum_mod, "DEFAULT_TOL", tol)
    monkeypatch.setattr(spectrum_mod, "MAX_SWEEPS", max_sweeps)
    return {"tol": tol, "max_sweeps": max_sweeps}


def _assert_stack_matches_reference(stack, **rule):
    # rule: the stopping rule set by _stopping_rule, if any.
    got = jacobi_eigenvalues_stack(stack)
    assert len(got) == len(stack)
    for a, spectrum in zip(stack, got):
        want = round_robin_jacobi_eigenvalues(a, **rule)
        assert _bytes(spectrum.eigenvalues) == want[0].tobytes()
        assert np.float64(spectrum.off_norm).tobytes() == np.float64(want[1]).tobytes()
        assert spectrum.sweeps == want[2]
    return got


class TestStackedJacobi:
    """Every member of a stack gets the bits the single-matrix round-robin
    solver (the reference in conftest) gives it alone."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 10, 20, 40])
    def test_seeded_random_graphs(self, n):
        rng = random.Random(n)
        stack = [
            harmonic_floats(random_graph(rng, n, p))
            for p in (0.05, 0.15, 0.3, 0.5, 0.7, 0.9)
            for _ in range(2)
        ]
        _assert_stack_matches_reference(stack)

    @pytest.mark.parametrize("n, special", [(6, _equal_diagonal), (9, _overflow_guard)])
    def test_mixed_members(self, n, special):
        rng = random.Random(n)
        isolated = disjoint_union([random_graph(rng, n - 2, 0.6), build_graph(2, [])])
        stack = [
            harmonic_floats(random_graph(rng, n, 0.5)),
            np.zeros((n, n)),
            np.diag(np.arange(1.0, n + 1.0)),
            special(n),
            harmonic_floats(isolated),
            harmonic_floats(random_graph(rng, n, 0.2)),
        ]
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            got = _assert_stack_matches_reference(stack)
        assert [spectrum.sweeps for spectrum in got][1:3] == [0, 0]

    def test_tolerance_and_max_sweeps_per_member(self, monkeypatch):
        rng = random.Random(3)
        stack = [harmonic_floats(random_graph(rng, 12, 0.4)) for _ in range(6)]
        _assert_stack_matches_reference(stack, **_stopping_rule(monkeypatch, 1e-6, 7))

    def test_order_zero(self):
        assert jacobi_eigenvalues_stack(np.zeros((3, 0, 0))) == [Spectrum((), 0.0, 0)] * 3
        assert jacobi_eigenvalues_stack([]) == []
        spectra = harmonic_energies([build_graph(0, []), cycle(5), build_graph(0, [])])
        assert spectra[0] == spectra[2] == Spectrum((), 0.0, 0) and spectra[0].he == 0.0
        assert spectra[1] == harmonic_energy(cycle(5))

    def test_input_unmodified(self):
        rng = random.Random(5)
        stack = np.array([harmonic_floats(random_graph(rng, 10, 0.5)) for _ in range(4)])
        before = stack.copy()
        jacobi_eigenvalues_stack(stack)
        assert stack.tobytes() == before.tobytes()

    def test_only_one_member_fails_to_converge(self, monkeypatch):
        # Entries (0, 3) and (1, 2) form the first round, so that member
        # converges in one sweep; the dense one needs more.
        one_round = np.zeros((4, 4))
        one_round[0, 3] = one_round[3, 0] = 0.5
        one_round[1, 2] = one_round[2, 1] = -0.25
        dense = harmonic_floats(complete(4)) + np.diag([0.1, 0.2, 0.3, 0.4])
        with pytest.raises(JacobiConvergenceError) as want:
            round_robin_jacobi_eigenvalues(dense, max_sweeps=1)
        monkeypatch.setattr(spectrum_mod, "MAX_SWEEPS", 1)
        with pytest.raises(JacobiConvergenceError) as err:
            jacobi_eigenvalues_stack([np.zeros((4, 4)), one_round, dense, one_round])
        assert (err.value.residual, err.value.sweeps) == (want.value.residual, 1)
        # With two members stuck, the error is the first one's; doubling
        # the matrix doubles its residual exactly.
        with pytest.raises(JacobiConvergenceError) as err:
            jacobi_eigenvalues_stack([one_round, 2.0 * dense, dense])
        assert err.value.residual == 2.0 * want.value.residual
        assert jacobi_eigenvalues_stack([one_round])[0][2] == 1

    @staticmethod
    def _mixed_order_stack():
        # A seeded graph of every order from 0 to 40, then the special
        # members of test_mixed_members, each at an order of its own, and a
        # graph with an isolated vertex pair; shuffled, so orders come in
        # no particular sequence.
        rng = random.Random(41)
        stack = [harmonic_floats(random_graph(rng, n, rng.choice((0.15, 0.5, 0.9)))) for n in range(41)]
        stack += [
            np.zeros((7, 7)),
            np.diag(np.arange(1.0, 12.0)),
            _equal_diagonal(6),
            _overflow_guard(9),
            harmonic_floats(disjoint_union([random_graph(rng, 13, 0.6), build_graph(2, [])])),
        ]
        rng.shuffle(stack)
        return stack

    def test_mixed_orders(self):
        stack = self._mixed_order_stack()
        before = [a.copy() for a in stack]
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            _assert_stack_matches_reference(stack)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(stack, before))

    def test_mixed_orders_tolerance_and_max_sweeps(self, monkeypatch):
        stack = self._mixed_order_stack()
        _assert_stack_matches_reference(stack, **_stopping_rule(monkeypatch, 1e-6, 7))

    def test_mixed_orders_convergence_error(self, monkeypatch):
        # The first member still above its threshold after one sweep names
        # the residual, whatever the orders around it.
        stack = self._mixed_order_stack()
        stuck = []
        for a in stack:
            try:
                round_robin_jacobi_eigenvalues(a, max_sweeps=1)
            except JacobiConvergenceError as exc:
                stuck.append(exc)
        assert stuck
        monkeypatch.setattr(spectrum_mod, "MAX_SWEEPS", 1)
        with pytest.raises(JacobiConvergenceError) as err:
            jacobi_eigenvalues_stack(stack)
        assert (err.value.residual, err.value.sweeps) == (stuck[0].residual, 1)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            jacobi_eigenvalues_stack([np.eye(3), np.zeros((2, 3))])

    @pytest.mark.parametrize("member, message", [
        (np.zeros((0, 5)), r"square, got shape \(0, 5\)"),
        ([[]], r"square, got shape \(1, 0\)"),
        ([[0.0, 1.0], [0.0, 0.0]], "must be symmetric"),
    ], ids=["no_rows", "no_columns", "asymmetric"])
    def test_bad_member_rejected(self, member, message):
        # Each member is checked where the stack is built; [[0, 1], [0, 0]]
        # has eigenvalues 0 and 0, which a symmetric solve cannot give.
        with pytest.raises(ValueError, match=message):
            jacobi_eigenvalues_stack([np.eye(3), member])
        with pytest.raises(ValueError, match=message):
            jacobi_eigenvalues(member)

    def test_round_tables_built_once_per_solve(self, monkeypatch):
        # The members converge at many different sweeps; each leaves the
        # rounds of the one table set built for the solve.
        calls = []
        build = spectrum_mod._stacked_rounds

        def spy(orders):
            calls.append(list(orders))
            return build(orders)

        monkeypatch.setattr(spectrum_mod, "_stacked_rounds", spy)
        stack = self._mixed_order_stack()
        got = _assert_stack_matches_reference(stack)
        assert len({spectrum.sweeps for spectrum in got}) > 3
        assert calls == [[len(a) for a in stack]]

    def test_chunks_in_input_order(self, monkeypatch):
        # Sorted by order, 7 graphs of order 5 and then 21 of order 40 fill
        # stacks of at most BATCH_ENTRIES padded entries: 16 matrices once
        # order 40 is in, then the 12 left. Spectra come back in input order.
        calls = []

        def spy(stack):
            calls.append([len(a) for a in stack])
            return jacobi_eigenvalues_stack(stack)

        monkeypatch.setattr(spectrum_mod, "jacobi_eigenvalues_stack", spy)
        rng = random.Random(40)
        graphs = [random_graph(rng, 5 if k % 4 == 1 else 40, 0.3) for k in range(28)]
        spectra = harmonic_energies(graphs)
        chunk = spectrum_mod.BATCH_ENTRIES // (40 * 40)
        assert calls == [[5] * 7 + [40] * (chunk - 7), [40] * (28 - chunk)]
        for g, spectrum in zip(graphs, spectra):
            eig, off, sweeps = round_robin_jacobi_eigenvalues(harmonic_floats(g))
            assert _bytes(spectrum.eigenvalues) == eig.tobytes()
            assert (spectrum.off_norm, spectrum.sweeps) == (off, sweeps)
            assert spectrum.he == float(sum(abs(x) for x in eig.tolist()))


class TestOrderBatches:
    """order_batches cuts orders sorted ascending into consecutive slices:
    ``least`` items, then more while count * (largest order)^2 stays within
    BATCH_ENTRIES = 16 * 40^2."""

    def test_empty(self):
        assert order_batches([]) == order_batches([], least=16) == []

    def test_least_larger_than_the_list(self):
        assert order_batches([3, 5], least=16) == [slice(0, 2)]

    def test_matrix_alone_over_budget(self):
        # 161^2 > BATCH_ENTRIES: every such matrix is a batch of its own,
        # and an order-2 matrix before it does not join its batch.
        assert 161 ** 2 > spectrum_mod.BATCH_ENTRIES
        assert order_batches([2, 161, 161, 200]) == [slice(i, i + 1) for i in range(4)]

    def test_exact_fit_included(self):
        assert 16 * 40 ** 2 == spectrum_mod.BATCH_ENTRIES
        assert order_batches([40] * 16) == [slice(0, 16)]
        assert order_batches([40] * 17) == [slice(0, 16), slice(16, 17)]
        assert order_batches([5] * 7 + [40] * 10) == [slice(0, 16), slice(16, 17)]

    def test_least_honoured_above_order_40(self):
        # 15 matrices of order 41 fit the budget and 16 do not.
        assert order_batches([41] * 40) == [slice(0, 15), slice(15, 30), slice(30, 40)]
        assert order_batches([41] * 40, least=16) == [slice(0, 16), slice(16, 32), slice(32, 40)]
        assert order_batches([100] * 20, least=16) == [slice(0, 16), slice(16, 20)]

    def test_budget_fills_from_least(self):
        # The first 16 take the batch to 16 * 12^2; it grows to 177 items,
        # the most whose padded entries at order 12 stay within budget.
        assert order_batches([12] * 200, least=16) == [slice(0, 177), slice(177, 200)]


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
        spectrum = harmonic_energy(petersen())
        assert abs(spectrum.he - 16.0 / 3.0) < 1e-9
        assert spectrum == eigenvalues_symmetric(harmonic_matrix(petersen()))

    def test_edgeless_is_zero(self):
        assert harmonic_energy(build_graph(5, [])).he == 0.0

    def test_report_fingerprint(self, capsys):
        # The energy command labels each spectrum with its graph's graph6.
        assert main(["energy", "--family", "cycle", "--n", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["graph6"] == encode_graph6(cycle(5))
        assert payload["he"] == harmonic_energy(cycle(5)).he

    @given(graph_strategy(max_n=12))
    @settings(max_examples=60, deadline=None)
    def test_same_spectrum_as_exact_matrix(self, g):
        # Built from the degrees or converted from Fractions, the solver
        # sees the same doubles and returns the same bits.
        got = harmonic_energy(g)
        want = eigenvalues_symmetric(harmonic_matrix(g))
        assert _bytes(got.eigenvalues) == _bytes(want.eigenvalues)
        assert (got.off_norm, got.sweeps) == (want.off_norm, want.sweeps)


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


class TestErrorBounds:
    def test_formula(self):
        # ||A||_F = 5, HE = 7, n = 2, 3 sweeps.
        e, energy = error_bounds(Spectrum((3.0, -4.0), 1e-13, 3))
        # abs=0: pytest.approx's default abs=1e-12 would accept any e below
        # it, even 0.0.
        assert e == pytest.approx(1e-13 + 12 * 2 * 3 * UNIT_ROUNDOFF * 5, rel=1e-15, abs=0)
        assert energy == pytest.approx(math.sqrt(2) * e + 2 * UNIT_ROUNDOFF * 7, rel=1e-15, abs=0)
        assert error_bounds(Spectrum((), 0.0, 0)) == (0.0, 0.0)

    @pytest.mark.parametrize("source, count", [
        ("census-10-3", 21), ("census_12_3.g6", 94), ("audit", 77), ("energy_mixed.g6", 21)])
    def test_within_bounds_of_30_digit_eigenvalues(self, source, count, cubic10):
        if source == "census-10-3":
            solved = [(decode_graph6(r.graph6), r.spectrum, r.he) for r in cubic10[0]]
        else:
            graphs = audit_spectrum_graphs() if source == "audit" else read_graph6_file(str(DATA / source))
            solved = [(g, spec, spec.he) for g, spec in zip(graphs, harmonic_energies(graphs))]
        assert len(solved) == count
        for g, spec, he in solved:
            e, energy = error_bounds(spec)
            eig_error, he_error = mp_spectrum_errors(g, spec.eigenvalues, he)
            assert eig_error <= e, encode_graph6(g)
            assert he_error <= energy, encode_graph6(g)
