"""Spline core: knot vectors, basis evaluation, curve operations."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from igarad.bspline import (
    KnotVector,
    TensorProductSpace,
    basis_matrix,
    design,
    elevate_order,
    eval_basis,
    evaluate_spline,
    find_span,
    insert_knots,
    make_uniform_open_knots,
    tabulate,
)


def naive_cox_de_boor(knots, order, i, t):
    """Textbook recursive B-spline evaluation (independent oracle)."""
    if order == 1:
        last = knots[-1]
        if knots[i] <= t < knots[i + 1]:
            return 1.0
        if t == last and knots[i] < t <= knots[i + 1]:
            return 1.0
        return 0.0
    left = 0.0
    den = knots[i + order - 1] - knots[i]
    if den > 0:
        left = (t - knots[i]) / den * naive_cox_de_boor(knots, order - 1, i, t)
    right = 0.0
    den = knots[i + order] - knots[i + 1]
    if den > 0:
        right = (knots[i + order] - t) / den * naive_cox_de_boor(knots, order - 1, i + 1, t)
    return left + right


class TestMakeUniformOpenKnots:
    def test_linear_bezier(self):
        kv = make_uniform_open_knots(2, 2)
        assert np.array_equal(kv.knots, [0, 0, 1, 1])
        assert kv.num_basis == 2

    def test_quadratic_bezier(self):
        kv = make_uniform_open_knots(3, 3)
        assert np.array_equal(kv.knots, [0, 0, 0, 1, 1, 1])

    def test_cubic_six_functions(self):
        kv = make_uniform_open_knots(4, 6)
        assert np.allclose(kv.knots[4:6], [1 / 3, 2 / 3])
        assert kv.num_basis == 6

    @pytest.mark.parametrize("order,num", [(2, 4), (3, 5), (4, 6), (5, 9)])
    def test_count_against_recursion_oracle(self, order, num):
        kv = make_uniform_open_knots(order, num)
        assert kv.num_basis == num
        # the oracle recursion admits exactly len(knots) - order functions,
        # and each matches the production evaluation on a sample grid
        ts = np.linspace(0, 1, 23)
        dm = basis_matrix(kv, ts)
        assert dm.shape == (ts.size, num)
        oracle = np.array(
            [[naive_cox_de_boor(kv.knots, order, i, t) for i in range(num)] for t in ts]
        )
        assert np.max(np.abs(dm - oracle)) < 1e-13

    def test_rejects_too_few_basis(self):
        with pytest.raises(ValueError):
            make_uniform_open_knots(4, 3)

    def test_rejects_order_one(self):
        with pytest.raises(ValueError):
            make_uniform_open_knots(1, 5)


class TestKnotVectorValidation:
    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            KnotVector(2, [0, 0, 0.6, 0.4, 1, 1])

    def test_rejects_unclamped(self):
        with pytest.raises(ValueError):
            KnotVector(3, [0, 0, 0.2, 0.5, 1, 1, 1])

    def test_rejects_over_multiplicity_interior(self):
        with pytest.raises(ValueError):
            KnotVector(3, [0, 0, 0, 0.5, 0.5, 0.5, 1, 1, 1])

    def test_accepts_repeated_interior(self):
        kv = KnotVector(3, [0, 0, 0, 0.5, 0.5, 1, 1, 1])
        assert kv.num_basis == 5


class TestFindSpan:
    def test_mid_span_cubic(self):
        kv = make_uniform_open_knots(4, 6)  # breakpoints 0, 1/3, 2/3, 1
        s = find_span(kv, 0.5)
        assert kv.knots[s] <= 0.5 < kv.knots[s + 1]
        assert kv.knots[s] == pytest.approx(1 / 3)

    def test_right_end_is_last_nonempty_span(self):
        kv = make_uniform_open_knots(4, 9)
        s = find_span(kv, 1.0)
        assert s == kv.num_basis - 1
        assert kv.knots[s] < kv.knots[s + 1]

    def test_random_against_linear_scan(self):
        kv = KnotVector(3, [0, 0, 0, 0.2, 0.5, 0.5, 0.8, 1, 1, 1])
        rng = np.random.default_rng(7)
        for t in rng.uniform(0, 1, 200):
            s = find_span(kv, t)
            brute = max(
                i for i in range(len(kv.knots) - 1) if kv.knots[i] <= t and kv.knots[i] < kv.knots[i + 1]
            )
            brute = min(brute, kv.num_basis - 1)
            assert s == brute

    def test_domain_error(self):
        kv = make_uniform_open_knots(3, 5)
        with pytest.raises(ValueError):
            find_span(kv, -0.1)
        with pytest.raises(ValueError):
            find_span(kv, 1.0001)


@st.composite
def clamped_knot_vectors(draw, min_span=1e-300):
    """Clamped knot vectors of order 2-6, interior knots repeated up to the degree.

    Nonempty spans are at least ``min_span`` wide: derivatives over spans
    near the smallest normal float overflow in both evaluators.
    """
    order = draw(st.integers(2, 6))
    interior = draw(st.lists(st.floats(min_span, 1.0 - min_span), max_size=8, unique=True))
    assume(np.all(np.diff(np.concatenate([[0.0], np.sort(interior), [1.0]])) >= min_span))
    mult = [draw(st.integers(1, order - 1)) for _ in interior]
    knots = [0.0] * order + sorted(np.repeat(interior, mult).tolist()) + [1.0] * order
    return KnotVector(order, knots)


class TestTabulate:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        kv=clamped_knot_vectors(),
        ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
    )
    def test_matches_eval_basis_on_random_knots(self, kv, ts):
        self.check_against_eval_basis(kv, np.concatenate([ts, kv.knots]))

    @pytest.mark.parametrize(
        "kv",
        [
            make_uniform_open_knots(4, 12),
            KnotVector(3, [0, 0, 0, 0.3, 0.3, 0.7, 1, 1, 1]),
            KnotVector(11, [0] * 11 + [0.5] * 10 + [1] * 11),
        ],
        ids=["cubic", "repeated-knot", "order-11-c0"],
    )
    def test_matches_eval_basis(self, kv):
        ts = np.concatenate([np.random.default_rng(3).uniform(0, 1, 50), [0.0, 0.3, 0.5, 1.0]])
        self.check_against_eval_basis(kv, ts)

    @staticmethod
    def check_against_eval_basis(kv, ts):
        first, values, derivs = tabulate(kv, ts)
        for p, t in enumerate(ts):
            be = eval_basis(kv, t, 1)
            assert first[p] == be.first_index
            assert np.max(np.abs(values[p] - be.values)) <= 1e-14
            assert np.max(np.abs(derivs[p] - be.derivatives[0])) <= 1e-12 * max(1.0, np.abs(be.derivatives[0]).max())
        dense_values, dense_derivs = design(kv, ts)
        assert np.array_equal(dense_values, basis_matrix(kv, ts))
        ref = basis_matrix(kv, ts, deriv=1)
        scale = np.maximum(1.0, np.abs(ref).max(axis=1))
        assert np.all(np.abs(dense_derivs - ref).max(axis=1) <= 1e-12 * scale)


class TestEvalBasis:
    def test_quadratic_bernstein_midpoint(self):
        kv = make_uniform_open_knots(3, 3)
        be = eval_basis(kv, 0.5)
        assert np.allclose(be.values, [0.25, 0.5, 0.25], atol=1e-15)

    def test_partition_of_unity_and_derivative_sum(self):
        kv = make_uniform_open_knots(4, 8)
        rng = np.random.default_rng(0)
        for t in rng.uniform(0, 1, 300):
            be = eval_basis(kv, t, 1)
            assert abs(be.values.sum() - 1.0) < 1e-13
            assert abs(be.derivatives[0].sum()) < 1e-10

    def test_derivative_against_finite_differences(self):
        kv = KnotVector(4, [0, 0, 0, 0, 0.3, 0.55, 0.55, 0.8, 1, 1, 1, 1])
        rng = np.random.default_rng(3)
        h = 1e-6
        for t in rng.uniform(2 * h, 1 - 2 * h, 60):
            be = eval_basis(kv, t, 1)
            up = basis_matrix(kv, [t + h])[0]
            dn = basis_matrix(kv, [t - h])[0]
            fd = (up - dn) / (2 * h)
            sl = slice(be.first_index, be.first_index + kv.order)
            scale = max(1.0, np.max(np.abs(be.derivatives[0])))
            assert np.max(np.abs(fd[sl] - be.derivatives[0])) / scale < 1e-6

    def test_second_derivative_of_bernstein(self):
        kv = make_uniform_open_knots(3, 3)
        be = eval_basis(kv, 0.5, 2)
        assert np.allclose(be.derivatives[1], [2.0, -4.0, 2.0])

    def test_derivatives_beyond_degree_are_zero(self):
        kv = make_uniform_open_knots(3, 5)
        be = eval_basis(kv, 0.37, 5)
        assert np.allclose(be.derivatives[2:], 0.0)

    def test_clamped_right_end(self):
        kv = make_uniform_open_knots(4, 7)
        be = eval_basis(kv, 1.0)
        assert be.values[-1] == pytest.approx(1.0)
        assert np.allclose(be.values[:-1], 0.0)


class TestBasisInvariants:
    @pytest.mark.parametrize("order,num", [(2, 5), (3, 7), (4, 9), (5, 8)])
    def test_partition_nonnegativity_support(self, order, num):
        kv = make_uniform_open_knots(order, num)
        rng = np.random.default_rng(order * 100 + num)
        ts = rng.uniform(0, 1, 1000)
        dm = basis_matrix(kv, ts)
        assert np.max(np.abs(dm.sum(axis=1) - 1.0)) <= 1e-13
        assert dm.min() >= -1e-14
        # local support: B_i vanishes outside [t_i, t_{i+order}]
        for i in range(num):
            lo, hi = kv.knots[i], kv.knots[i + order]
            outside = (ts < lo) | (ts > hi)
            assert np.max(np.abs(dm[outside, i]), initial=0.0) <= 1e-14

    def test_polynomial_reproduction(self):
        # dimension check: the space of order k contains all monomials t^j, j < k
        kv = make_uniform_open_knots(4, 9)
        g = kv.greville()
        ts = np.linspace(0, 1, 40)
        dm_g = basis_matrix(kv, g)
        dm_t = basis_matrix(kv, ts)
        for j in range(4):
            coeff = np.linalg.solve(dm_g, g**j)
            assert np.max(np.abs(dm_t @ coeff - ts**j)) < 1e-11


class TestCurveOperations:
    def _bezier_quadratic(self):
        kv = make_uniform_open_knots(3, 3)
        coeffs = np.array([[0.0, 0.0, 1.0], [0.5, 1.0, 1.0], [1.0, 0.0, 1.0]])
        return coeffs, kv

    def test_elevate_line_midpoint(self):
        kv = make_uniform_open_knots(2, 2)
        coeffs = np.array([[-3.0, 0.0, 1.0], [3.0, 0.0, 1.0]])
        out, kv2 = elevate_order(coeffs, kv)
        assert np.array_equal(kv2.knots, [0, 0, 0, 1, 1, 1])
        assert np.allclose(out, [[-3, 0, 1], [0, 0, 1], [3, 0, 1]], atol=1e-13)

    def test_elevation_preserves_curve(self):
        coeffs, kv = self._bezier_quadratic()
        out, kv2 = elevate_order(coeffs, kv)
        ts = np.linspace(0, 1, 50)
        before = evaluate_spline(coeffs, kv, ts)
        after = evaluate_spline(out, kv2, ts)
        assert np.max(np.abs(before - after)) <= 1e-12

    def test_insert_preserves_curve_and_derivatives(self):
        coeffs, kv = self._bezier_quadratic()
        out, kv2 = insert_knots(coeffs, kv, [0.5])
        ts = np.linspace(0, 1, 50)
        assert np.max(np.abs(evaluate_spline(coeffs, kv, ts) - evaluate_spline(out, kv2, ts))) <= 1e-12
        d_before = evaluate_spline(coeffs, kv, ts, deriv=1)
        d_after = evaluate_spline(out, kv2, ts, deriv=1)
        assert np.max(np.abs(d_before - d_after)) <= 1e-10

    def test_insert_nothing_is_identity(self):
        coeffs, kv = self._bezier_quadratic()
        out, kv2 = insert_knots(coeffs, kv, [])
        assert np.array_equal(out, coeffs)
        assert kv2 == kv

    def test_insert_beyond_multiplicity_rejected(self):
        coeffs, kv = self._bezier_quadratic()
        out, kv2 = insert_knots(coeffs, kv, [0.5, 0.5])  # multiplicity 2 == degree: ok
        with pytest.raises(ValueError):
            insert_knots(out, kv2, [0.5])

    def test_insert_at_ends_rejected(self):
        coeffs, kv = self._bezier_quadratic()
        with pytest.raises(ValueError):
            insert_knots(coeffs, kv, [0.0])

    def test_geometric_invariance_random_curve(self):
        rng = np.random.default_rng(11)
        kv = make_uniform_open_knots(4, 8)
        coeffs = rng.standard_normal((8, 3))
        coeffs[:, 2] = rng.uniform(0.5, 2.0, 8)  # weight-like positive column
        ts = np.linspace(0, 1, 100)
        base = evaluate_spline(coeffs, kv, ts)
        c1, kv1 = elevate_order(coeffs, kv)
        c2, kv2 = insert_knots(c1, kv1, [0.21, 0.84])
        assert np.max(np.abs(evaluate_spline(c2, kv2, ts) - base)) <= 1e-12


def _random_coefficients(kv, seed):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (kv.num_basis, 3))


class TestCurveOperationsOnRandomKnots:
    """Knot insertion and order elevation keep the curve on random clamped
    knot vectors, spans at least ``1e-3`` wide."""

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        kv=clamped_knot_vectors(min_span=1e-3),
        fresh=st.lists(st.floats(1e-3, 1.0 - 1e-3), max_size=4),
        repeats=st.lists(st.integers(0, 7), max_size=4),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_insert_preserves_curve(self, kv, fresh, repeats, seed):
        """New knots, fresh ones at least ``1e-3`` from every knot and
        repeats of interior ones, up to multiplicity ``degree``."""
        values, counts = np.unique(kv.knots, return_counts=True)
        interior = values[1:-1].tolist()
        multiplicity = dict(zip(values.tolist(), counts.tolist()))
        new = []
        for u in [interior[i % len(interior)] for i in repeats if interior] + fresh:
            gap = min(abs(v - u) for v in multiplicity)
            if (gap == 0 or gap >= 1e-3) and multiplicity.get(u, 0) < kv.degree:
                multiplicity[u] = multiplicity.get(u, 0) + 1
                new.append(u)
        coeffs = _random_coefficients(kv, seed)
        out, kv2 = insert_knots(coeffs, kv, new)
        assert kv2.num_basis == kv.num_basis + len(new)
        assert np.array_equal(kv2.knots, np.sort(np.concatenate([kv.knots, new])))
        ts = np.concatenate([np.linspace(0.0, 1.0, 101), kv2.knots])
        assert np.max(np.abs(evaluate_spline(out, kv2, ts) - evaluate_spline(coeffs, kv, ts))) <= 1e-12

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(kv=clamped_knot_vectors(min_span=1e-3), seed=st.integers(0, 2**32 - 1))
    def test_elevation_preserves_curve(self, kv, seed):
        coeffs = _random_coefficients(kv, seed)
        out, kv2 = elevate_order(coeffs, kv)
        values, counts = np.unique(kv.knots, return_counts=True)
        assert kv2.order == kv.order + 1
        assert np.array_equal(kv2.knots, np.repeat(values, counts + 1))
        ts = np.concatenate([np.linspace(0.0, 1.0, 101), kv.knots])
        assert np.max(np.abs(evaluate_spline(out, kv2, ts) - evaluate_spline(coeffs, kv, ts))) <= 1e-12


class TestTensorProductSpace:
    def test_flat_index_bijection(self):
        space = TensorProductSpace(make_uniform_open_knots(3, 5), make_uniform_open_knots(2, 4))
        seen = set()
        for j in range(space.m):
            for i in range(space.n):
                q = space.flat_index(i, j)
                assert 0 <= q < space.size
                assert space.unflatten(q) == (i, j)
                seen.add(int(q))
        assert len(seen) == space.size

    def test_partition_of_unity_2d(self):
        space = TensorProductSpace(make_uniform_open_knots(4, 7), make_uniform_open_knots(3, 6))
        vals = space.evaluate(np.ones(space.size), np.linspace(0, 1, 9), np.linspace(0, 1, 9))
        assert np.max(np.abs(vals - 1.0)) < 1e-13
