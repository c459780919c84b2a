import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsweep import (ConstraintFunction, ConstraintSystem, InfeasibleConeError,
                       VelocityPolyhedron, active_set, affine_constraint, extract_multipliers,
                       geometry, project_point, project_velocity, velocity_polyhedron)
from proxsweep.geometry import least_distance
from proxsweep.projection import MAX_ITER
from proxsweep.scenarios import lookup

from conftest import disc_complement, half_space_1d, sample_boundary
from oracles import enumerate_qp, grid_project, hypomonotonicity_residual, membership


def kkt_ok(sys, t, x, res, tol=1e-9):
    """Feasibility, sign, complementarity and stationarity of a projection."""
    scale = 1.0 + np.linalg.norm(x)
    if not np.all(sys.values(t, res.point) >= -tol * scale):
        return False
    if res.multipliers.shape != (sys.p,) or np.min(res.multipliers, initial=0.0) < -tol:
        return False
    combo = np.zeros_like(x)
    for lam, con in zip(res.multipliers, sys.constraints):
        if lam * abs(con.value(t, res.point)) > tol * scale:
            return False
        combo = combo + lam * con.gradient_q(t, res.point)
    return np.linalg.norm((x - res.point) + combo) <= tol * scale


class TestProjectPoint:
    def test_interior_identity(self):
        sys = half_space_1d()
        res = project_point(sys, 0.0, np.array([0.5]))
        np.testing.assert_array_equal(res.point, [0.5])
        assert res.distance == 0.0
        np.testing.assert_array_equal(res.multipliers, [0.0])
        assert res.converged and res.iterations == 0

    def test_half_line(self):
        sys = half_space_1d()
        res = project_point(sys, 0.0, np.array([-0.3]))
        assert res.point[0] == pytest.approx(0.0, abs=1e-12)
        assert res.distance == pytest.approx(0.3, abs=1e-12)
        assert res.multipliers == pytest.approx([0.3], abs=1e-12)
        assert kkt_ok(sys, 0.0, np.array([-0.3]), res)

    def test_disc_complement_radial(self):
        sys = disc_complement()
        res = project_point(sys, 0.0, np.array([0.5, 0.0]))
        np.testing.assert_allclose(res.point, [1.0, 0.0], atol=1e-10)
        assert res.distance == pytest.approx(0.5, abs=1e-10)
        assert res.converged and res.diagnostic == ""

    def test_outside_tube_left_to_step(self):
        # eta does not enter the projection: step() alone refuses distance >= eta
        x = np.array([0.5, 0.0])
        inside, outside = (project_point(disc_complement(eta), 0.0, x) for eta in (1.0, 0.3))
        np.testing.assert_array_equal(outside.point, inside.point)
        assert (outside.distance, outside.converged, outside.diagnostic) == (
            inside.distance, True, "")

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        for sys in (half_space_1d(), disc_complement(), lookup("pocket").system):
            for _ in range(25):
                x = rng.uniform(-2, 2, size=sys.dim)
                once = project_point(sys, 0.0, x)
                twice = project_point(sys, 0.0, once.point)
                assert np.linalg.norm(twice.point - once.point) <= 1e-10

    @pytest.mark.parametrize("name", ["floor", "wedge", "piston", "pocket"])
    def test_kkt_random(self, name):
        sys = lookup(name).system
        rng = np.random.default_rng(23)
        for _ in range(40):
            t = float(rng.uniform(0, 1.5)) if name == "piston" else 0.0
            x = rng.uniform(-2, 2, size=sys.dim)
            res = project_point(sys, t, x)
            assert res.converged
            assert kkt_ok(sys, t, x, res)

    def test_radial_formula_inside_disc(self):
        sys = disc_complement()
        rng = np.random.default_rng(29)
        for _ in range(60):
            x = rng.uniform(-0.9, 0.9, size=2)
            if not 0.05 < np.linalg.norm(x) < 0.95:
                continue
            res = project_point(sys, 0.0, x)
            np.testing.assert_allclose(res.point, x / np.linalg.norm(x), atol=1e-9)

    def test_normal_cone_membership_of_residual(self):
        # the residual x - P(x) must behave like a proximal normal at P(x):
        # <x - P(x), z - P(x)> <= |x - P(x)| |z - P(x)|^2 / (2 eta) for z in C
        sys = lookup("pocket").system
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            res = project_point(sys, 0.0, x)
            if res.distance == 0.0 or res.distance >= sys.eta:
                continue
            v = x - res.point
            for _ in range(50):
                z = res.point + res.distance * rng.normal(size=2)
                if not np.all(sys.values(0.0, z) >= 0.0):
                    continue
                assert hypomonotonicity_residual(sys, 0.0, res.point, z, v) <= 1e-9

    @pytest.mark.parametrize("name, x", [("floor", [-0.37]), ("wedge", [-0.3, -0.7]),
                                         ("wedge", [0.4, -0.9])])
    def test_affine_faces_exact(self, name, x):
        # an affine set is its own linearisation, so the one projection lands
        # on the face to the last bit and is returned without a second solve
        res = project_point(lookup(name).system, 0.0, np.array(x))
        expected = np.maximum(x, 0.0)
        np.testing.assert_array_equal(res.point, expected)
        assert res.converged and res.iterations == 1

    def test_affine_one_solve_matches_enumeration(self):
        # random nonempty moving polyhedra: offsets from a feasible anchor at t
        rng = np.random.default_rng(61)
        solved = 0
        while solved < 60:
            d, m = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            t = float(rng.uniform(0.0, 2.0))
            normals, anchor = rng.normal(size=(m, d)), rng.normal(size=d)
            rates = rng.choice([-1.0, 1.0], size=m) * rng.uniform(0.1, 2.0, size=m)
            offsets = -(normals @ anchor) - rates * t + np.abs(rng.normal(size=m)) * 0.5
            sys = ConstraintSystem(dim=d, constraints=tuple(
                affine_constraint(i + 1, a, b, r)
                for i, (a, b, r) in enumerate(zip(normals, offsets, rates))))
            x = anchor + rng.normal(size=d) * 1.5
            res = project_point(sys, t, x)
            if res.iterations == 0:
                continue
            solved += 1
            assert res.converged and res.iterations == 1
            expected = enumerate_qp(make_poly(normals, offsets + rates * t), x).value
            assert np.linalg.norm(res.point - expected) <= 1e-12 * (1.0 + np.linalg.norm(x))

    def test_mixed_system_keeps_confirming_solve(self):
        # only the pocket's affine floor is active at (2, 0), but the wall is a
        # callable, so the loop still linearises again to see the iterate stop
        res = project_point(lookup("pocket").system, 0.0, np.array([2.0, -0.5]))
        np.testing.assert_array_equal(res.point, [2.0, 0.0])
        assert res.multipliers[0] == 0.0 and res.multipliers[1] > 0.0
        assert res.converged and res.iterations >= 2

    def test_infeasible_linearisation_not_converged(self):
        sys = lookup("pocket").system
        res = project_point(sys, 0.0, np.array([0.0, -0.5]))
        assert not res.converged
        assert res.diagnostic == "linearised constraints infeasible"
        assert res.iterations == 1

    def test_iteration_cap_not_converged(self):
        # atan(q) >= 0: from x = -2 the linearised projection jumps to 3.54,
        # whose linearisation admits x again, a two-cycle that never settles
        con = ConstraintFunction(id=1, value=lambda t, q: math.atan(q[0]),
                                 gradient_q=lambda t, q: np.array([1.0 / (1.0 + q[0] ** 2)]),
                                 dt=lambda t, q: 0.0)
        res = project_point(ConstraintSystem(dim=1, constraints=(con,)), 0.0,
                            np.array([-2.0]))
        assert not res.converged
        assert res.iterations == MAX_ITER
        assert res.diagnostic == f"no convergence in {MAX_ITER} projections"

    def test_values_once_per_iterate(self):
        # the feasibility test's values seed the first linearisation and each
        # iterate's values the next one; the converged iterate needs none
        calls = []

        def value(t, q):
            calls.append(q.copy())
            return float(q @ q) - 1.0

        con = ConstraintFunction(id=1, value=value, gradient_q=lambda t, q: 2.0 * q,
                                 dt=lambda t, q: 0.0, hessian_bound=2.0)
        sys = ConstraintSystem(dim=2, constraints=(con,), alpha=2.0, beta=2.0,
                               hess_bound=2.0)
        res = project_point(sys, 0.0, np.array([0.3, 0.4]))
        assert res.converged and res.iterations > 2
        np.testing.assert_allclose(res.point, [0.6, 0.8], atol=1e-12)
        assert len(calls) == res.iterations
        assert active_set(sys, 0.0, res.point) == (1,)

    @pytest.mark.parametrize("offset, active", [(0.5e-8, True), (3e-8, False)])
    def test_one_activity_rule(self, offset, active):
        # (1, -1) projects onto (1, 0), where the wall q1 >= 1 - offset has
        # value offset against the activity tolerance 1e-8 (1 + |q|) = 2e-8;
        # the projection pushes on the floor alone either way
        floor = ConstraintFunction(id=1, value=lambda t, q: float(q[1]),
                                   gradient_q=lambda t, q: np.array([0.0, 1.0]),
                                   dt=lambda t, q: 0.0)
        wall = ConstraintFunction(id=2, value=lambda t, q: float(q[0]) - (1.0 - offset),
                                  gradient_q=lambda t, q: np.array([1.0, 0.0]),
                                  dt=lambda t, q: 0.0)
        sys = ConstraintSystem(dim=2, constraints=(floor, wall))
        res = project_point(sys, 0.0, np.array([1.0, -1.0]))
        np.testing.assert_array_equal(res.point, [1.0, 0.0])
        expected = (1, 2) if active else (1,)
        assert res.multipliers[0] == pytest.approx(1.0, abs=1e-12) and res.multipliers[1] == 0.0
        assert active_set(sys, 0.0, res.point) == expected
        ext = extract_multipliers(np.array([0.0, -1.0]), sys, 0.0, res.point)
        assert ext.active_ids == expected

    def test_grid_oracle_agreement(self):
        rng = np.random.default_rng(37)
        resolution = 1e-4
        sys = half_space_1d()
        res = project_point(sys, 0.0, np.array([-0.3]))
        orc = grid_project(sys, 0.0, np.array([-0.3]), resolution,
                           (np.array([-3.0]), np.array([3.0])))
        assert abs(res.point[0] - orc.value[0]) <= 2 * resolution
        sys = disc_complement()
        for _ in range(10):
            x = rng.uniform(-2, 2, size=2)
            res = project_point(sys, 0.0, x)
            orc = grid_project(sys, 0.0, x, resolution,
                               (np.array([-3.0, -3.0]), np.array([3.0, 3.0])))
            assert np.linalg.norm(res.point - orc.value) <= 3 * resolution


class TestLeastDistance:
    def test_closed_form_with_multipliers(self):
        rows = np.array([[1.0, 0.0], [0.0, 2.0], [-1.0, -1.0]])
        rhs = np.array([0.5, 3.0, -10.0])
        x, mu = least_distance(rows, rhs)
        np.testing.assert_array_equal(x, [0.5, 1.5])
        np.testing.assert_allclose(mu, [0.5, 0.75, 0.0], atol=1e-15)
        np.testing.assert_allclose(rows.T @ mu, x, atol=1e-15)

    @pytest.mark.parametrize("rhs", [-1.0, 0.0])
    def test_origin_already_feasible(self, rhs, monkeypatch):
        calls = self.counted_loop(monkeypatch)
        x, mu = least_distance(np.array([[1.0, 1.0]]), np.array([rhs]))
        np.testing.assert_array_equal(x, [0.0, 0.0])
        np.testing.assert_array_equal(mu, [0.0])
        assert calls == []

    def test_no_violated_row_needs_no_nnls(self, monkeypatch):
        # no rows at all, and rows that x = 0 already meets: neither reaches the loop
        calls = self.counted_loop(monkeypatch)
        for rows, rhs in (([], []), ([[1.0, 0.0], [0.0, 1.0]], [-1.0, 0.0])):
            x, mu = least_distance(np.reshape(rows, (-1, 2)), np.array(rhs, dtype=float))
            np.testing.assert_array_equal(x, [0.0, 0.0])
            np.testing.assert_array_equal(mu, np.zeros(len(rhs)))
        assert calls == []

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleConeError, match="^the least-distance rows admit no point$"):
            least_distance(np.array([[1.0], [-1.0]]), np.array([1.0, 1.0]))

    def test_scale_invariant(self):
        rows = np.array([[1.0, 0.2], [-0.3, 1.0]])
        x1, mu1 = least_distance(rows, np.array([1.0, 2.0]))
        x2, mu2 = least_distance(rows, np.array([1e9, 2e9]))
        np.testing.assert_allclose(x2, 1e9 * x1, rtol=1e-14)
        np.testing.assert_allclose(mu2, 1e9 * mu1, rtol=1e-12)

    def test_zero_row_falls_through_to_nnls(self, monkeypatch):
        # rr = 0 is a singular 1 x 1 Gram matrix: no division, one loop call,
        # and 0 . x >= 1 has no solution
        calls = self.counted_loop(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InfeasibleConeError):
                least_distance(np.array([[0.0, 0.0]]), np.array([1.0]))
        assert len(calls) == 1

    def test_one_row_face_in_closed_form(self, monkeypatch):
        # x = 5 (3, 4) / 25 on the line 3 x1 + 4 x2 = 5, mu = 5 / 25
        calls = self.counted_loop(monkeypatch)
        x, mu = least_distance(np.array([[3.0, 4.0]]), np.array([5.0]))
        np.testing.assert_allclose(x, [0.6, 0.8], rtol=1e-15)
        np.testing.assert_allclose(mu, [0.2], rtol=1e-15)
        assert calls == []

    @pytest.mark.parametrize("rows, rhs, x_ref, mu_ref", [
        # |row|^2 = 1e-400 underflows to 0, a singular Gram matrix: q <= 0
        # from 1e-3 with mu = 1e-3 / 1e-200
        ([[-1e-200]], [1e-203], [-1e-3], [1e197]),
        # the Gram matrix of rows of size 1e160 overflows
        ([[1e160, 0.0], [0.0, 1e160]], [1e160, 1e160], [1.0, 1.0], [1e-160, 1e-160]),
    ])
    def test_rows_are_scaled(self, rows, rhs, x_ref, mu_ref, monkeypatch):
        # the face solve leaves both to the loop without a warning, and the
        # loop, which scales each row by its largest entry, solves them
        calls = self.counted_loop(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, mu = least_distance(np.array(rows), np.array(rhs))
        np.testing.assert_allclose(x, x_ref, rtol=1e-15)
        np.testing.assert_allclose(mu, mu_ref, rtol=1e-15)
        assert len(calls) == 1

    @staticmethod
    def counted_loop(monkeypatch):
        """Calls of geometry._dual_active_set from here on, one entry of its
        arguments per call: (rows, rhs) from x = 0, (rows, rhs, face, y, x)
        from the face solve."""
        calls, loop = [], geometry._dual_active_set
        monkeypatch.setattr(geometry, "_dual_active_set",
                            lambda *a: calls.append(a) or loop(*a))
        return calls

    @staticmethod
    def oracle(rows, rhs):
        """The enumeration oracle's x, and multipliers fitted on the rows it holds
        with equality: min |x| s.t. rows x >= rhs is the projection of 0 onto
        {-rhs + rows x >= 0}."""
        x = enumerate_qp(make_poly(rows, -rhs), np.zeros(rows.shape[1])).value
        on = np.abs(rows @ x - rhs) <= 1e-9 * (1.0 + np.max(np.abs(rhs)))
        mu = np.zeros(len(rhs))
        mu[on] = np.linalg.lstsq(rows[on].T, x, rcond=None)[0]
        return x, mu

    # each instance violates the face guess {i : rhs_i > 0} in one way
    FALLBACKS = {
        # duplicated violated rows: the Gram matrix is exactly singular
        "singular-gram": ([[1.0, 0.0], [1.0, 0.0]], [1.0, 1.0]),
        # both rows violated at 0, but (1, 0) already satisfies the second: y_2 < 0
        "violated-row-inactive": ([[1.0, 0.0], [1.0, 1.0]], [1.0, 0.5]),
        # the face {0} gives x = (1, 0), which breaks the row -x1 + x2 >= 0
        "off-face-row-broken": ([[1.0, 0.0], [-1.0, 1.0]], [1.0, 0.0]),
        # nearly opposed rows: y > 0, but R x misses rhs by 2e-5 relative
        "residual-guard": ([[1.0, 0.0], [-1.0, 3e-6]], [1.0, 1.0]),
    }

    @pytest.mark.parametrize("case", sorted(FALLBACKS))
    def test_rejected_face_falls_back_to_nnls(self, case, monkeypatch):
        rows, rhs = (np.array(a) for a in self.FALLBACKS[case])
        face = rhs > 0.0
        if case == "singular-gram":
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(rows[face] @ rows[face].T, rhs[face])
        if case == "residual-guard":
            y = np.linalg.solve(rows @ rows.T, rhs)
            assert np.all(y > 0.0)
            assert np.max(np.abs(rows @ (y @ rows) - rhs) / rhs) > 1e-12
        calls = self.counted_loop(monkeypatch)
        x, mu = least_distance(rows, rhs)
        assert len(calls) == 1
        # only a face that holds its own rows with y > 0 is a warm start
        assert (len(calls[0]) > 2) == (case == "off-face-row-broken")
        if case == "residual-guard":
            # too ill-conditioned for the oracle's 1e-9 tolerances: x = (1, 2/e)
            # and rows^T mu = x give mu = (1 + 2/e^2, 2/e^2)
            x_ref, mu_ref = np.array([1.0, 2 / 3e-6]), 2 / 9e-12 + np.array([1.0, 0.0])
            mu_rtol = 1e-12
        else:
            (x_ref, mu_ref), mu_rtol = self.oracle(rows, rhs), 1e-9
        atol = 1e-12 * (1.0 + np.linalg.norm(x_ref))
        np.testing.assert_allclose(x, x_ref, rtol=1e-9, atol=atol)
        assert np.all(mu >= 0.0)
        if case == "singular-gram":
            # mu is not unique on duplicated rows; rows^T mu = x is
            np.testing.assert_allclose(rows.T @ mu, x, rtol=1e-9, atol=atol)
        else:
            np.testing.assert_allclose(mu, mu_ref, rtol=mu_rtol, atol=atol)

    # one instance per branch of _dual_active_set, each reaching it by the
    # property checked in test_loop_branch
    BRANCHES = {
        # y > 0 and the face {0} holds, but x = (1, 0) breaks -x1 + x2 >= 0
        "warm-start": ([[1.0, 0.0], [-1.0, 1.0]], [1.0, 0.0]),
        # y = (1.5, -0.5) on the violated rows: the loop starts from x = 0
        "cold-start": ([[1.0, 0.0], [1.0, 1.0]], [1.0, 0.5]),
        # a singular Gram matrix, and two rows end with mu > 0, each added
        "add": ([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [1.0, 1.0, 1.0]),
        # the face {1, 2} gives x = (1.5, 0.75), breaking -2 x2 >= -1; once
        # row 0 is added, row 1's multiplier falls to 0 and it leaves the face
        "drop": ([[0.0, -2.0], [2.0, 0.0], [1.0, 2.0]], [-1.0, 3.0, 3.0]),
        # the face {0, 1} gives x = (1, 2), breaking x1 - x2 >= -0.5; that row is
        # spanned by the face, so row 0 is dropped before x moves to (1.5, 2)
        "dependent-drop": ([[1.0, 0.0], [0.0, 1.0], [1.0, -1.0]], [1.0, 2.0, -0.5]),
        # after x1 >= 1, the row -x1 >= 1 is spanned by it with r = -1 < 0
        "infeasible-add": ([[1.0, 0.0], [-1.0, 0.0]], [1.0, 1.0]),
        # -x2 >= 2/3 is -(row 0 + row 2) / 4, whose z is 0 only up to rounding
        "infeasible-add-rounded": ([[1.0, 2.0, 2.0], [0.0, -1.0, 0.0], [-1.0, 2.0, -2.0]],
                                   [1 / 3, 2 / 3, 1 / 3]),
        # 0 . x >= 1 beside a feasible row: its z is 0, and x1 >= 1 has r = 0
        "infeasible-zero-row": ([[1.0, 0.0], [0.0, 0.0]], [1.0, 1.0]),
        # a multiplier that the step takes to 0 only up to rounding is held at 0
        "clamp": ([[0.0, -1.0, -1.0], [1.0, 0.0, 1.0], [0.0, -1.0, 0.0]], [1 / 3, 0.0, 1 / 3]),
        # x2 >= 1/3 twice and x2 <= 1/3, each 1/3 rounded its own way: a row
        # that only rounding leaves violated is not added
        "rounding": ([[0.0, 3.0], [0.0, 0.7], [0.0, -0.1]], [1.0, 0.7 / 3, -0.1 / 3]),
        # 0 . x >= 0 holds everywhere and is never added
        "zero-row-absent": ([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]], [0.0, 1.0, 1.0]),
    }

    # the instances whose face solve holds its own rows with y > 0
    WARM = ("warm-start", "drop", "dependent-drop", "rounding")

    @pytest.mark.parametrize("case", sorted(BRANCHES))
    def test_loop_branch(self, case, monkeypatch):
        rows, rhs = (np.array(a) for a in self.BRANCHES[case])
        calls = self.counted_loop(monkeypatch)
        if case.startswith("infeasible"):
            with pytest.raises(InfeasibleConeError):
                least_distance(rows, rhs)
            assert len(calls) == 1
            return
        x, mu = least_distance(rows, rhs)
        assert len(calls) == 1
        start = calls[0][2:]
        assert bool(start) == (case in self.WARM)
        x_ref, mu_ref = self.oracle(rows, rhs)
        np.testing.assert_allclose(x, x_ref, rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(rows.T @ mu, x, rtol=1e-14, atol=1e-15)
        assert np.all(mu >= 0.0)
        if case == "add":  # a cold start adds every row that ends with mu > 0
            assert not start and np.count_nonzero(mu) == 2
        if case == "drop":  # a start row, y > 0, that ends with mu = 0 was dropped
            np.testing.assert_array_equal(start[0], [1, 2])
            assert mu[1] == 0.0 and np.all(start[1] > 0.0)
            np.testing.assert_allclose(mu, [1.75, 0.0, 2.0], rtol=1e-14)
        if case == "dependent-drop":  # the same, with x fixed while row 0 leaves
            np.testing.assert_array_equal(start[0], [0, 1])
            assert mu[0] == 0.0
            np.testing.assert_allclose(mu, [0.0, 3.5, 1.5], rtol=1e-14)
        if case == "zero-row-absent":
            assert mu[0] == 0.0

    def test_face_solve_matches_oracle(self, monkeypatch):
        # well-posed instances (independent rows, condition number <= 10):
        # both the face solve and the loop give the oracle's optimum to 1e-12
        # relative, and each answers many of them
        rng = np.random.default_rng(7)
        calls = self.counted_loop(monkeypatch)
        checked = {False: 0, True: 0}  # by whether the loop answered
        for _ in range(400):
            d = int(rng.integers(1, 7))
            rows = rng.normal(size=(int(rng.integers(1, d + 1)), d))
            rhs = rng.normal(size=len(rows))
            if np.linalg.cond(rows) > 10.0 or not np.any(rhs > 0.0):
                continue
            before = len(calls)
            x, mu = least_distance(rows, rhs)
            x_ref, mu_ref = self.oracle(rows, rhs)
            np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=1e-12 * np.linalg.norm(x_ref))
            np.testing.assert_allclose(mu, mu_ref, rtol=1e-12, atol=1e-12 * np.max(mu_ref))
            if len(calls) == before:
                assert np.all(mu[rhs <= 0.0] == 0.0)
            checked[len(calls) > before] += 1
        assert checked[False] >= 100 and checked[True] >= 30


def make_poly(normals, offsets):
    return VelocityPolyhedron(np.asarray(normals, dtype=float), np.asarray(offsets, dtype=float))


def random_polyhedron_instance(rng, max_rows=10, max_dim=6):
    """Well-posed random instance: offsets derived from a feasible anchor.

    Fully random (N, b) pairs routinely produce feasible regions thousands of
    units away where absolute comparison tolerances are meaningless; anchored
    instances keep the optimum at O(1) scale while exercising every active-set
    size.
    """
    m = int(rng.integers(1, max_rows + 1))
    d = int(rng.integers(1, max_dim + 1))
    normals = rng.normal(size=(m, d))
    anchor = rng.normal(size=d)
    slack = np.abs(rng.normal(size=m)) * 0.5
    offsets = -(normals @ anchor) + slack
    u = anchor + rng.normal(size=d) * 1.5
    return make_poly(normals, offsets), u


class TestProjectVelocity:
    def test_feasible_unchanged(self):
        poly = make_poly([[1.0]], [0.0])
        res = project_velocity(poly, np.array([2.0]))
        np.testing.assert_array_equal(res.point, [2.0])
        assert res.distance == 0.0

    def test_floor_clamp(self):
        poly = make_poly([[1.0]], [0.0])
        res = project_velocity(poly, np.array([-2.0]))
        assert res.point[0] == pytest.approx(0.0, abs=1e-12)
        assert res.multipliers[0] == pytest.approx(2.0, abs=1e-10)

    def test_wedge_corner(self):
        poly = make_poly([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        res = project_velocity(poly, np.array([-1.0, -2.0]))
        np.testing.assert_allclose(res.point, [0.0, 0.0], atol=1e-12)

    def test_moving_wall_speed_pickup(self):
        poly = make_poly([[1.0]], [-1.0])  # membership: u >= 1
        res = project_velocity(poly, np.array([0.0]))
        assert res.point[0] == pytest.approx(1.0, abs=1e-12)

    def test_input_a_hair_outside_is_projected(self):
        # the kernel alone decides membership: u = 1 - 1e-13 is outside
        # {u >= 1} and lands on it, with the multiplier that closes the gap
        poly = make_poly([[1.0]], [-1.0])
        u = 1.0 - 1e-13
        res = project_velocity(poly, np.array([u]))
        assert (res.point[0], res.multipliers[0], res.distance) == (1.0, 1.0 - u, 1.0 - u)
        assert res.iterations == 1

    def test_infeasible_polyhedron(self):
        poly = make_poly([[1.0], [-1.0]], [-1.0, -1.0])  # u >= 1 and u <= -1
        with pytest.raises(InfeasibleConeError):
            project_velocity(poly, np.array([0.0]))

    def test_multiplier_reconstruction(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            poly, u = random_polyhedron_instance(rng, max_rows=5, max_dim=4)
            res = project_velocity(poly, u)
            assert np.min(res.multipliers) >= -1e-10
            rebuilt = u + res.multipliers @ poly.normals
            np.testing.assert_allclose(rebuilt, res.point, atol=1e-8)

    @given(u=st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
           w=st.tuples(st.floats(-5, 5), st.floats(-5, 5)))
    @settings(max_examples=60, deadline=None)
    def test_nonexpansive(self, u, w):
        poly = make_poly([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], [0.0, 0.5, -0.2])
        pu = project_velocity(poly, np.array(u)).point
        pw = project_velocity(poly, np.array(w)).point
        assert np.linalg.norm(pu - pw) <= np.linalg.norm(np.array(u) - np.array(w)) + 1e-9

    @given(u=st.tuples(st.floats(-5, 5), st.floats(-5, 5)))
    @settings(max_examples=60, deadline=None)
    def test_zero_offset_norm_shrinks(self, u):
        poly = make_poly([[1.0, 0.2], [-0.3, 1.0]], [0.0, 0.0])
        res = project_velocity(poly, np.array(u))
        assert np.linalg.norm(res.point) <= np.linalg.norm(np.array(u)) + 1e-9

    def test_enumeration_oracle_agreement(self):
        rng = np.random.default_rng(43)
        for _ in range(60):
            poly, u = random_polyhedron_instance(rng)
            expected = enumerate_qp(poly, u)
            got = project_velocity(poly, u)
            np.testing.assert_allclose(got.point, expected.value, atol=1e-9)

    def test_oracle_flags_infeasible_too(self):
        from oracles import OracleInfeasibleError
        poly = make_poly([[1.0, 0.0], [-1.0, 0.0]], [-1.0, -1.0])
        with pytest.raises(OracleInfeasibleError):
            enumerate_qp(poly, np.zeros(2))
        with pytest.raises(InfeasibleConeError):
            project_velocity(poly, np.zeros(2))


class TestSchemeProjectionStep:
    """The correction step seen through the velocity polyhedron (static sets)."""

    def test_projected_velocity_is_admissible(self):
        sys = lookup("wedge").system
        rng = np.random.default_rng(47)
        for _ in range(20):
            t, x = sample_boundary("wedge", rng)
            poly = velocity_polyhedron(sys, t, x)
            u = rng.normal(size=2) * 3
            res = project_velocity(poly, u)
            assert membership(poly, res.point, tol=1e-9)
