import math

import numpy as np
import pytest

from proxsweep import VelocityPolyhedron

from conftest import disc_complement, half_space_1d
from oracles import (OracleEmptyError, OracleInfeasibleError, analytic_reference,
                     enumerate_qp, grid_project)


class TestGridProject:
    def test_half_line(self):
        res = grid_project(half_space_1d(), 0.0, np.array([-0.3]), 1e-4,
                           (np.array([-3.0]), np.array([3.0])))
        assert abs(res.value[0] - 0.0) <= 2e-4
        assert res.method == "grid" and res.resolution == 1e-4

    def test_disc_complement_radial(self):
        res = grid_project(disc_complement(), 0.0, np.array([0.5, 0.0]), 1e-4,
                           (np.array([-3.0, -3.0]), np.array([3.0, 3.0])))
        np.testing.assert_allclose(res.value, [1.0, 0.0], atol=2e-4)

    def test_interior_point_identity(self):
        x = np.array([0.7])
        res = grid_project(half_space_1d(), 0.0, x, 1e-4,
                           (np.array([-3.0]), np.array([3.0])))
        np.testing.assert_array_equal(res.value, x)

    def test_empty_box(self):
        with pytest.raises(OracleEmptyError):
            grid_project(half_space_1d(), 0.0, np.array([-0.5]), 1e-3,
                         (np.array([-3.0]), np.array([-1.0])))


class TestEnumerateQp:
    def test_wedge(self):
        poly = VelocityPolyhedron(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
        res = enumerate_qp(poly, np.array([-1.0, -2.0]))
        np.testing.assert_allclose(res.value, [0.0, 0.0], atol=1e-12)
        assert res.method == "active-set-enumeration"

    def test_feasible_identity(self):
        poly = VelocityPolyhedron(np.array([[1.0, 0.0]]), np.zeros(1))
        res = enumerate_qp(poly, np.array([2.0, -1.0]))
        np.testing.assert_allclose(res.value, [2.0, -1.0])

    def test_single_row_shift(self):
        poly = VelocityPolyhedron(np.array([[1.0]]), np.array([-1.0]))
        res = enumerate_qp(poly, np.array([0.0]))
        assert res.value[0] == pytest.approx(1.0, abs=1e-12)

    def test_infeasible(self):
        poly = VelocityPolyhedron(np.array([[1.0], [-1.0]]), np.array([-1.0, -1.0]))
        with pytest.raises(OracleInfeasibleError):
            enumerate_qp(poly, np.array([0.0]))


class TestAnalyticReference:
    def test_floor_bounce_break_time(self):
        # impact at sqrt(2 q0 / g) with speed sqrt(2 q0 g)
        q0, g = 1.0, 10.0
        t_star = math.sqrt(2 * q0 / g)
        q_before, u_before = analytic_reference("floor-bounce",
                                                {"q0": q0, "g_grav": g},
                                                t_star * (1 - 1e-9))
        assert u_before == pytest.approx(-math.sqrt(20.0), rel=1e-6)
        assert q_before == pytest.approx(0.0, abs=1e-8)
        q_after, u_after = analytic_reference("floor-bounce",
                                              {"q0": q0, "g_grav": g}, t_star + 0.1)
        assert (q_after, u_after) == (0.0, 0.0)

    def test_free(self):
        q, u = analytic_reference("free", {"q0": 1.0, "u0": -1.0}, 0.5)
        assert (q, u) == (0.5, -1.0)

    def test_piston_carries_wall_speed(self):
        q, u = analytic_reference("piston-pursuit", {"q0": 1.0, "v_w": 1.0}, 2.0)
        assert (q, u) == (2.0, 1.0)

    def test_piston_before_contact(self):
        q, u = analytic_reference("piston-pursuit", {"q0": 1.0, "v_w": 1.0}, 0.5)
        assert (q, u) == (1.0, 0.0)

    def test_resting_contact(self):
        assert analytic_reference("resting-contact", {}, 1.0) == (0.0, 0.0)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            analytic_reference("warp-drive", {}, 0.0)
