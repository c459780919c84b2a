import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsweep import (ConstraintEvaluationError, ForceField, SimulationAbort, active_set,
                       diagnose, extract_multipliers, good_direction, initialize, geometry,
                       integrator, max_feasibility_gap, projection, run, step,
                       verify_impact_law)
from proxsweep.diagnostics import law_bound
from proxsweep.geometry import (ConstraintFunction, ConstraintSystem, affine_constraint,
                                least_distance)
from proxsweep.integrator import SchemeState
from proxsweep.scenarios import lookup

from conftest import H_SWEEP, disc_complement, half_space_1d, zero_force
from oracles import analytic_reference
from test_run_golden import CASES as RUN_CASES

GRAV = ForceField(f=lambda t, q: np.array([-10.0]), bound_F=lambda t: 10.0, sup_F=10.0)


class TestForceField:
    @pytest.mark.parametrize("name", ["floor", "wedge", "piston", "pocket", "free"])
    def test_lipschitz_and_envelope(self, name):
        scn = lookup(name)
        field = scn.force
        rng = np.random.default_rng(113)
        for _ in range(50):
            t = float(rng.uniform(0.0, scn.T))
            q = rng.uniform(-2.0, 3.0, size=scn.dim)
            q2 = rng.uniform(-2.0, 3.0, size=scn.dim)
            # every scenario force is independent of q (Lipschitz constant 0)
            assert np.linalg.norm(field(t, q) - field(t, q2)) <= 1e-12
            assert np.linalg.norm(field(t, q)) <= field.bound_F(t) + 1e-9
            assert field.bound_F(t) <= field.sup_F + 1e-12

    def test_zero_force_on_list_input(self):
        # a constant given as an integer list comes back as float zeros
        f = ForceField(f=[0, 0])(0.0, [1, 2])
        assert f.dtype == np.float64 and f.shape == (2,)
        np.testing.assert_array_equal(f, [0.0, 0.0])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_zero_force_average_follows_q(self, d):
        # a zero constant averages to +0.0 in each of its d coordinates
        avg = zero_force(d).step_average(0.0, 0.1, np.ones(d))
        assert avg.dtype == np.float64 and avg.shape == (d,)
        np.testing.assert_array_equal(avg, np.zeros(d))
        assert not np.signbit(avg).any()

    def test_step_average_exact_for_linear_t(self):
        field = ForceField(f=lambda t, q: np.array([2.0 * t + 1.0]),
                           bound_F=lambda t: abs(2.0 * t + 1.0), sup_F=3.0)
        avg = field.step_average(0.0, 1.0, np.zeros(1))
        assert avg[0] == pytest.approx(2.0, abs=1e-13)  # mean of 2t+1 on [0,1]


class TestInitialize:
    def test_rest_state(self):
        st = initialize(half_space_1d(), zero_force(1), np.array([1.0]), np.array([0.0]), 0.1)
        np.testing.assert_allclose(st.q_curr, [1.0])
        np.testing.assert_allclose(st.u_curr, [0.0])

    def test_linear_motion(self):
        st = initialize(half_space_1d(), zero_force(1), np.array([1.0]), np.array([-1.0]), 0.1)
        np.testing.assert_allclose(st.q_curr, [0.9])

    def test_constant_force(self):
        st = initialize(half_space_1d(), GRAV, np.array([1.0]), np.array([0.0]), 0.1)
        # q1 = q0 + h^2 * (-10) = 1 - 0.1
        np.testing.assert_allclose(st.q_curr, [0.9], atol=1e-13)
        assert st.n == 1 and st.t_n == 0.1

    def test_velocity_consistency_by_construction(self):
        st = initialize(half_space_1d(), GRAV, np.array([1.0]), np.array([-0.3]), 0.05)
        np.testing.assert_array_equal(st.u_curr, (st.q_curr - 1.0) / 0.05)

    def test_first_step_leaving_set_projected(self):
        # the prediction 0.05 - 0.1 leaves q >= 0 and is projected onto the wall
        sys, q0, u0 = half_space_1d(), np.array([0.05]), np.array([-1.0])
        st = initialize(sys, zero_force(1), q0, u0, 0.1)
        np.testing.assert_array_equal(st.q_curr, [0.0])
        np.testing.assert_array_equal(st.u_curr, [-0.5])
        traj, contact = run(sys, zero_force(1), q0, u0, 0.1, 0.5)
        assert contact.multipliers[0, 0] == 0.5 and contact.increments[0, 0] == -0.5
        (event,) = verify_impact_law(traj, sys, sup_force=0.0)
        assert (event.u_minus[0], event.u_plus[0], event.law_residual) == (-1.0, 0.0, 0.0)

    def test_boundary_start_accepted(self):
        # a start on the wall leaving it flies; one at rest under gravity stays
        # on it, each step projecting -h^2 g back to 0 with multiplier
        # h g / |grad g| = 0.1
        st = initialize(half_space_1d(), zero_force(1), np.array([0.0]), np.array([1.0]), 0.1)
        np.testing.assert_array_equal(st.q_curr, [0.1])
        scn = lookup("floor")
        traj, contact = run(scn.system, scn.force, np.array([0.0]), np.array([0.0]), 0.01, 1.0)
        assert max_feasibility_gap(traj, scn.system) == 0.0
        assert not traj.positions.any() and not traj.velocities.any()
        np.testing.assert_allclose(contact.multipliers[:, 0], 0.1, rtol=1e-12)

    def test_start_below_boundary_rejected(self):
        with pytest.raises(ValueError, match=r"infeasible: g_1\(0, q0\) = -0.5 < 0"):
            initialize(half_space_1d(), zero_force(1), np.array([-0.5]), np.array([1.0]), 0.1)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError, match="h must be > 0, got 0.0"):
            initialize(half_space_1d(), zero_force(1), np.array([1.0]), np.array([0.0]), 0.0)

    def test_short_velocity_rejected(self):
        # a length-1 u0 used to broadcast to (-2, -2)
        scn = lookup("wedge")
        with pytest.raises(ValueError, match="u0 must have length 2, got 1"):
            initialize(scn.system, scn.force, np.array([1.0, 1.0]), np.array([-2.0]), 0.01)


class TestStep:
    def test_free_flight_is_linear_extrapolation(self):
        sys = half_space_1d()
        st = SchemeState(n=1, t_n=0.1, q_curr=np.array([0.9]), u_curr=np.array([-1.0]))
        out = step(st, sys, zero_force(1), 0.1)
        np.testing.assert_allclose(out.state.q_curr, [0.8], atol=1e-15)
        np.testing.assert_allclose(out.increment, [0.0], atol=1e-13)

    def test_floor_impact_tabulated(self):
        # q_curr=0.1, u_curr=-1, h=0.1, f=-10: predicted -0.1, projected 0,
        # u_next = -1, increment = u + h f - u_next = -1, lambda = 1
        sys = half_space_1d()
        st = SchemeState(n=1, t_n=0.1, q_curr=np.array([0.1]), u_curr=np.array([-1.0]))
        out = step(st, sys, GRAV, 0.1)
        np.testing.assert_allclose(out.state.q_curr, [0.0], atol=1e-13)
        np.testing.assert_allclose(out.state.u_curr, [-1.0], atol=1e-12)
        np.testing.assert_allclose(out.increment, [-1.0], atol=1e-12)
        np.testing.assert_allclose(out.multipliers, [1.0], atol=1e-12)
        assert out.multiplier_residual <= 1e-8 * (1.0 + np.linalg.norm(out.increment))

    def test_resting_contact_multiplier(self):
        sys = half_space_1d()
        st = SchemeState(n=3, t_n=0.3, q_curr=np.array([0.0]), u_curr=np.array([0.0]))
        out = step(st, sys, GRAV, 0.1)
        np.testing.assert_allclose(out.state.q_curr, [0.0], atol=1e-15)
        np.testing.assert_allclose(out.increment, [-1.0], atol=1e-12)  # -h*g
        np.testing.assert_allclose(out.multipliers, [0.1 * 10.0], atol=1e-12)

    def test_tube_exit_aborts(self):
        sys = disc_complement(eta=0.05)
        st = SchemeState(n=1, t_n=0.0, q_curr=np.array([0.0, 1.3]),
                         u_curr=np.array([0.0, -6.0]))
        with pytest.raises(SimulationAbort) as err:
            step(st, sys, zero_force(2), 0.1)
        assert "tube" in err.value.reason
        assert err.value.step_index == 1

    def test_infeasible_linearisation_aborts(self):
        # the prediction (0, -0.5) sits below the pocket's floor inside the
        # disc: wall and floor linearised there ask for q2 <= -1.25 and q2 >= 0
        sys = lookup("pocket").system
        st = SchemeState(n=4, t_n=0.0, q_curr=np.array([0.0, 1.0]),
                         u_curr=np.array([0.0, -15.0]))
        with pytest.raises(SimulationAbort) as err:
            step(st, sys, zero_force(2), 0.1)
        assert "did not converge" in err.value.reason
        assert err.value.step_index == 4

    # a NaN force used to abort the floor as a tube exit at distance nan, the
    # pocket, whose wall is a callable, as a projection that did not converge
    # after 50 solves, and not at all on the free set, which has no constraint
    # to fail; NaN, not inf, which would raise a RuntimeWarning in the prediction
    @pytest.mark.parametrize("name, nans", [("floor", "[nan]"), ("pocket", "[nan nan]"),
                                            ("free", "[nan]")])
    def test_non_finite_prediction_aborts(self, name, nans):
        scn = lookup(name)
        field = dataclasses.replace(scn.force, f=lambda t, q: scn.force(t, q) if t < 0.5
                                    else np.full(scn.dim, math.nan))
        with pytest.raises(SimulationAbort) as err:
            run(scn.system, field, scn.q0, scn.u0, 0.01, scn.T)
        assert err.value.step_index == 50 and err.value.state.t_n == pytest.approx(0.5)
        assert err.value.reason == f"prediction is not finite: {nans} (f^n = {nans})"

    # h u0 = 2e308 overflows; the floor's and the piston's rows read the
    # prediction inf as feasible, and both runs used to return positions
    # [1, inf, inf] with no error
    @pytest.mark.parametrize("name", ["floor", "piston"])
    def test_overflowing_prediction_aborts(self, name):
        scn = lookup(name)
        with pytest.raises(SimulationAbort) as err:  # the suite makes a warning an error
            run(scn.system, scn.force, np.array([1.0]), np.array([1e308]), 2.0, 4.0)
        assert err.value.step_index == 0
        assert err.value.reason.startswith("prediction is not finite: [inf]")

    def test_nan_gradient_aborts_run(self):
        # a gradient that is NaN below q = 0.45 used to let the particle fly
        # through the wall g = q - 0.5 to q = 2.2e-16 with zero multipliers
        wall = ConstraintFunction(
            id=1, value=lambda t, q: float(q[0]) - 0.5, dt=lambda t, q: 0.0,
            gradient_q=lambda t, q: np.array([math.nan if q[0] < 0.45 else 1.0]))
        sys = ConstraintSystem(dim=1, constraints=(wall,))
        with pytest.raises(ConstraintEvaluationError) as err:
            run(sys, zero_force(1), np.array([1.0]), np.array([-1.0]), 0.1, 1.0)
        assert (err.value.constraint_id, err.value.what) == (1, "gradient")


class TestExtractMultipliers:
    def test_zero_increment(self):
        sys = half_space_1d()
        ext = extract_multipliers(np.array([0.0]), sys, 0.0, np.array([0.0]))
        np.testing.assert_allclose(ext.values, [0.0])
        assert ext.in_cone

    def test_floor_landing(self):
        sys = half_space_1d()
        ext = extract_multipliers(np.array([-2.0]), sys, 0.0, np.array([0.0]))
        np.testing.assert_allclose(ext.values, [2.0], atol=1e-14)

    def test_wedge_corner(self):
        sys = lookup("wedge").system
        ext = extract_multipliers(np.array([-1.0, -1.0]), sys, 0.0, np.array([0.0, 0.0]))
        np.testing.assert_allclose(ext.values, [1.0, 1.0], atol=1e-14)
        assert ext.active_ids == (1, 2)

    def test_outside_cone_flagged(self):
        sys = half_space_1d()
        ext = extract_multipliers(np.array([2.0]), sys, 0.0, np.array([0.0]))
        assert not ext.in_cone
        assert ext.residual == pytest.approx(2.0)

    def test_inactive_point_no_support(self):
        sys = half_space_1d()
        ext = extract_multipliers(np.array([-2.0]), sys, 0.0, np.array([0.5]))
        assert ext.values.size == 0
        assert not ext.in_cone


class TestRun:
    def test_free_flight_exact(self):
        scn = lookup("free")
        for h in H_SWEEP:
            traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, h, scn.T)
            for n, t in enumerate(traj.times):
                q_ref, u_ref = analytic_reference("free", {"q0": 1.0, "u0": -1.0}, t)
                assert abs(traj.positions[n][0] - q_ref) <= 1e-12

    def test_bouncing_ball_matches_reference(self):
        scn = lookup("floor")
        traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, 0.005, scn.T)
        for n, t in enumerate(traj.times):
            q_ref, _ = analytic_reference("floor-bounce", {"q0": 1.25, "g_grav": 10.0}, t)
            assert abs(traj.positions[n][0] - q_ref) <= 0.05
        # settled on the floor, motionless
        np.testing.assert_allclose(traj.positions[-1], [0.0], atol=1e-12)
        np.testing.assert_allclose(traj.velocities[-1], [0.0], atol=1e-12)

    def test_piston_pursuit_tail(self):
        scn = lookup("piston")
        traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, 0.01, scn.T)
        q_ref, u_ref = analytic_reference("piston-pursuit",
                                          {"q0": 1.0, "v_w": 1.0, "u0": -0.5}, 2.0)
        assert traj.positions[-1][0] == pytest.approx(q_ref, abs=1e-10)
        assert traj.velocities[-1][0] == pytest.approx(u_ref, abs=1e-10)

    def test_determinism_bit_identical(self):
        scn = lookup("pocket")
        a1, c1 = run(scn.system, scn.force, scn.q0, scn.u0, 0.02, scn.T)
        a2, c2 = run(scn.system, scn.force, scn.q0, scn.u0, 0.02, scn.T)
        assert a1.positions.tobytes() == a2.positions.tobytes()
        assert a1.velocities.tobytes() == a2.velocities.tobytes()
        assert c1.increments.tobytes() == c2.increments.tobytes()
        assert c1.multipliers.tobytes() == c2.multipliers.tobytes()

    @pytest.mark.parametrize("name", ["floor", "wedge", "piston", "pocket", "free"])
    def test_grid_feasibility(self, name):
        scn = lookup(name)
        traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, 0.02, scn.T)
        for t, q in zip(traj.times, traj.positions):
            assert np.all(scn.system.values(float(t), q) >= -1e-8)

    @pytest.mark.parametrize("name", ["floor", "wedge", "piston", "pocket"])
    def test_per_step_velocity_bound(self, name):
        # |u^{n+1}| <= 2 |u^n + h f^n| + c0
        scn = lookup(name)
        traj, contact = run(scn.system, scn.force, scn.q0, scn.u0, 0.02, scn.T)
        c0 = scn.system.lipschitz_c0
        for n in range(traj.nsteps):
            h = traj.times[n + 1] - traj.times[n]
            lhs = np.linalg.norm(traj.velocities[n + 1])
            rhs = 2 * np.linalg.norm(traj.velocities[n] + h * contact.force_averages[n])
            assert lhs <= rhs + c0 + 1e-9

    @pytest.mark.parametrize("name", ["floor", "wedge", "piston", "pocket", "free"])
    def test_multiplier_contract(self, name):
        scn = lookup(name)
        sys = scn.system
        traj, contact = run(scn.system, scn.force, scn.q0, scn.u0, 0.01, scn.T)
        for j in range(traj.nsteps):
            lam = contact.multipliers[j]
            inc = contact.increments[j]
            assert lam.size == 0 or np.min(lam) >= 0.0
            scale = 1e-8 * (1.0 + np.linalg.norm(inc))
            if np.linalg.norm(inc) > scale:
                # contact steps only, and the increment is resolved by the
                # active gradients
                t1, q1 = float(traj.times[j + 1]), traj.positions[j + 1]
                from proxsweep import active_set
                assert len(active_set(sys, t1, q1)) > 0
                grads = sys.gradients(t1, q1)
                np.testing.assert_allclose(lam @ grads, -inc, atol=scale)
            if lam.size and np.max(lam) > 1e-10:
                t1, q1 = float(traj.times[j + 1]), traj.positions[j + 1]
                from proxsweep import active_set
                act = active_set(sys, t1, q1)
                for i, con in enumerate(sys.constraints):
                    if lam[i] > 1e-10:
                        assert con.id in act

    @pytest.mark.parametrize("name", ["wedge", "pocket", "floor"])
    def test_step_multipliers_need_no_nnls(self, name, monkeypatch):
        # step() reads the multipliers off the projection's certificate: no
        # recovery by extract_multipliers on the way, and every projection of
        # these runs is a certified face solve, so the kernel's loop never runs
        def refused(*args, **kwargs):
            raise AssertionError("step() recovered multipliers by another solve")

        monkeypatch.setattr(integrator, "extract_multipliers", refused)
        monkeypatch.setattr(geometry, "_dual_active_set", refused)
        scn = lookup(name)
        sys = scn.system
        traj, contact = run(sys, scn.force, scn.q0, scn.u0, 0.01, scn.T)
        assert np.min(contact.multipliers) >= 0.0
        assert np.max(contact.multipliers) > 0.0
        for j in range(traj.nsteps):
            t1, q1 = float(traj.times[j + 1]), traj.positions[j + 1]
            lam, inc = contact.multipliers[j], contact.increments[j]
            tol = 1e-8 * (1.0 + np.linalg.norm(inc))
            np.testing.assert_allclose(lam @ sys.gradients(t1, q1), -inc, atol=tol)
            assert contact.residuals[j] <= tol
            act = active_set(sys, t1, q1)
            assert all(c.id in act for c, lam_i in zip(sys.constraints, lam) if lam_i > 0.0)

    @pytest.mark.parametrize("name", ["floor", "wedge", "piston"])
    def test_affine_runs_take_the_face_solve(self, name, monkeypatch):
        # on these affine sets the violated rows are always the optimal face,
        # so the kernel's certified face solve answers every projection
        def no_loop(*args, **kwargs):
            raise AssertionError("least_distance fell back to its active-set loop")

        monkeypatch.setattr(geometry, "_dual_active_set", no_loop)
        scn = lookup(name)
        _, contact = run(scn.system, scn.force, scn.q0, scn.u0, 0.01, scn.T)
        assert np.max(contact.multipliers) > 0.0

    def test_tiny_row_projects(self):
        # q <= 0 written as -1e-200 q >= 0: the face Gram matrix 1e-400
        # underflows to 0, and the kernel's loop, scaling the row by its
        # largest entry, still projects each prediction 1e-3 back to 0 with
        # mu = 1e-3 / 1e-200 and lambda = mu / h; warnings are errors here
        sys = ConstraintSystem(dim=1, constraints=(affine_constraint(1, [-1e-200]),))
        field = ForceField(f=np.array([10.0]), bound_F=lambda t: 10.0, sup_F=10.0)
        traj, contact = run(sys, field, np.zeros(1), np.zeros(1), 0.01, 0.05)
        np.testing.assert_array_equal(traj.positions, np.zeros((6, 1)))
        np.testing.assert_array_equal(traj.velocities, np.zeros((6, 1)))
        np.testing.assert_allclose(contact.multipliers, np.full((5, 1), 1e199), rtol=1e-12)
        assert np.all(contact.residuals <= 1e-12)

    def test_force_averaged_once_per_step(self):
        # step 0 averages f^0 like every other step
        calls = []
        field = ForceField(f=lambda t, q: calls.append(t) or np.zeros_like(q))
        scn = lookup("free")
        _, contact = run(scn.system, field, scn.q0, scn.u0, 0.5, 1.0)
        assert len(calls) == 6  # three Gauss nodes for each of the two steps
        np.testing.assert_array_equal(contact.force_averages, np.zeros((2, 1)))

    @pytest.mark.parametrize("name", ["floor", "wedge", "piston", "pocket", "free"])
    def test_constant_force_is_never_called(self, name, monkeypatch):
        # every scenario's force is a constant, averaged once when it was built
        def called(self, t, q):
            raise AssertionError(f"force called at t = {t}")

        monkeypatch.setattr(ForceField, "__call__", called)
        scn = lookup(name)
        run(scn.system, scn.force, scn.q0, scn.u0, 0.01, scn.T)

    def test_feasible_steps_evaluate_no_gradient(self):
        # a feasible prediction has every multiplier 0 and residual |increment|,
        # so the pocket's free fall makes no gradient call before impact
        scn = lookup("pocket")
        wall, floor = scn.system.constraints
        times = []
        counted = dataclasses.replace(
            wall, gradient_q=lambda t, q: times.append(t) or wall.gradient_q(t, q))
        sys = dataclasses.replace(scn.system, constraints=(counted, floor))
        traj, contact = run(sys, scn.force, scn.q0, scn.u0, 0.01, scn.T)
        impact = int(np.flatnonzero(contact.multipliers.any(axis=1))[0])
        assert impact > 40 and min(times) == traj.times[impact + 1]
        free_fall = contact.increments[:impact]
        np.testing.assert_array_equal(contact.residuals[:impact],
                                      [np.linalg.norm(inc) for inc in free_fall])

    @pytest.mark.parametrize("name, solves", [("floor", 3), ("pocket", 1505)])
    def test_kernel_solves_per_run(self, name, solves, monkeypatch):
        # an affine contact step is one least-distance solve, and the floor's
        # resting steps reuse the first that returned its input; the pocket's
        # callable wall keeps the solve that confirms the iterate stopped
        calls = []

        def counted(*args):
            calls.append(args)
            return least_distance(*args)

        monkeypatch.setattr(projection, "least_distance", counted)
        scn = lookup(name)
        _, contact = run(scn.system, scn.force, scn.q0, scn.u0, 0.001, scn.T)
        assert len(calls) == solves
        if name == "floor":
            assert np.count_nonzero(contact.multipliers.any(axis=1)) == 1501

    def test_momentum_balance(self):
        from proxsweep import momentum_residual
        for name in ("floor", "wedge", "piston", "pocket"):
            scn = lookup(name)
            traj, contact = run(scn.system, scn.force, scn.q0, scn.u0, 0.01, scn.T)
            assert momentum_residual(traj, contact) <= 1e-8

    def test_partial_final_step(self):
        # T / h farther than 1e-9 from an integer takes a partial step, however
        # short, and of its own size when h is an int
        scn = lookup("free")
        for h, T, nsteps, last in [(0.01, 0.205, 21, 0.005),
                                   (1.0 / (100 + 2e-7), 1.0, 101, 2e-9),
                                   (1.0 / (100 - 2e-7), 1.0, 100, 0.01), (1, 2.5, 3, 0.5)]:
            traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, h, T)
            assert traj.nsteps == nsteps
            assert traj.times[-1] - traj.times[-2] == pytest.approx(last, rel=1e-6)
            assert traj.times[-1] == pytest.approx(T, abs=1e-15)
            assert traj.positions[-1][0] == pytest.approx(1.0 - T, abs=1e-12)

    def test_uniform_grid_no_partial_flag(self):
        # within 1e-9 of an integer the grid stays uniform and ends off T by that much
        scn = lookup("free")
        for h, T, nsteps in [(0.01, 2.0, 200), (1.0 / (100 + 5e-8), 1.0, 100),
                             (0.1, 0.3, 3)]:
            traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, h, T)
            assert traj.nsteps == nsteps
            assert traj.times[-1] - traj.times[-2] == pytest.approx(h, rel=1e-6)

    @pytest.mark.parametrize("h, T, message", [
        (2.0, 1.0, r"need T > h and T finite, got T=1.0, h=2.0"),
        (0.0, 1.0, r"h must be > 0, got 0.0"),
        (0.01, math.inf, r"need T > h and T finite, got T=inf, h=0.01"),
    ], ids=["2.0-1.0", "0.0-1.0", "0.01-inf"])
    def test_h_not_less_than_T_rejected(self, h, T, message):
        # h = 0 would divide by zero in the grid, T = inf overflow it
        scn = lookup("free")
        with pytest.raises(ValueError, match=message):
            run(scn.system, scn.force, scn.q0, scn.u0, h, T)

    # a NaN q0 used to run to a NaN trajectory with no error
    @pytest.mark.parametrize("q0, u0, message", [
        ([math.nan], [-1.0], r"q0 must be finite, got \[nan\]"),
        ([1.0, 0.0], [-1.0], "q0 must have length 1, got 2"),
        ([1.0], [math.inf], r"u0 must be finite, got \[inf\]"),
        ([[1.0]], [-1.0], r"q0 must have length 1, got shape \(1, 1\)"),
    ], ids=["q0-nan", "q0-length", "u0-inf", "q0-2d"])
    def test_bad_start_rejected(self, q0, u0, message):
        scn = lookup("free")
        with pytest.raises(ValueError, match=message):
            run(scn.system, scn.force, np.array(q0), np.array(u0), 0.01, 1.0)

    # a length-1 constant used to pull both coordinates of the wedge, to
    # (0, 0), and a length-3 one failed inside numpy's broadcasting
    @pytest.mark.parametrize("length", [1, 3])
    def test_force_length_rejected(self, length):
        scn = lookup("wedge")
        force = ForceField(f=np.full(length, -10.0), bound_F=lambda t: 20.0, sup_F=20.0)
        message = f"a constant force must have length 2, got {length}"
        with pytest.raises(ValueError, match=message):
            run(scn.system, force, scn.q0, scn.u0, 0.01, 1.0)
        with pytest.raises(ValueError, match=message):
            initialize(scn.system, force, scn.q0, scn.u0, 0.01)

    # the exterior of the unit disc centred at (-2, 0) + w t, w = (1, 0): a
    # particle at rest at the origin is met by the disc at t = 1 and then
    # pushed along at its speed, q = max(t - 1, 0) w.  Up to t = 1 every step
    # returns its input on a set that moves, so that rest must not be filled
    @pytest.mark.parametrize("h", [0.01, 0.005, 0.0025])
    def test_moving_disc_pushes_resting_particle(self, h):
        centre, w = np.array([-2.0, 0.0]), np.array([1.0, 0.0])

        def unit(t, q):
            r = np.asarray(q, dtype=float) - centre - w * t
            return r / np.linalg.norm(r)

        wall = ConstraintFunction(
            id=1,
            value=lambda t, q: float(np.linalg.norm(np.asarray(q) - centre - w * t)) - 1.0,
            gradient_q=unit,
            dt=lambda t, q: -float(unit(t, q) @ w))
        sys, force = ConstraintSystem(2, (wall,), lipschitz_c0=1.0, eta=1.0), zero_force(2)
        traj, contact = run(sys, force, np.zeros(2), np.zeros(2), h, 2.0)
        exact = np.maximum(traj.times - 1.0, 0.0)[:, None] * w
        np.testing.assert_allclose(traj.positions, exact, rtol=0.0, atol=1e-12)
        report = diagnose(traj, contact, sys, force,
                          admiss=good_direction(sys, 1.0, np.zeros(2)))
        [event] = report.impacts
        assert max(event.law_residual, event.variational_max) <= law_bound(h, 0.0)
        assert report.constants.kappa0 == 2.0  # c0 / delta + 1 with delta = 1
        assert report.velocity_bound_ok
        assert report.max_feasibility_gap <= 1e-12

    def test_margin_flag(self):
        # the start margin is read off the run: q0, u0, its first step and T
        scn = lookup("floor")
        margins = [diagnose(*run(scn.system, scn.force, scn.q0, scn.u0, h, 2.0), scn.system,
                            scn.force).constants.margin_ok for h in (0.04, 0.08)]
        assert margins == [True, False]  # h (0 + 20) = 0.8 < 1.25, then 1.6

    def test_trajectory_interpolation_rules(self):
        scn = lookup("free")
        traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, 0.1, 1.0)
        # piecewise linear positions, evaluated on an array of times
        q = traj.position(np.array([0.05]))
        assert q.shape == (1, 1)
        assert q[0, 0] == pytest.approx(0.95, abs=1e-12)


class TestRunLoop:
    """run() against step() chained by hand from (q0, u0), bit for bit."""

    # (scenario, h, T): a uniform grid on three contact scenarios, a free
    # flight whose T / h = 20.5 ends in a half step, and one whose
    # T / h = 2.9999999999999996 takes three full steps; the piston flies,
    # computes its impact and flies on with its moving wall; the wedge at
    # h = 0.00025 flies a long stretch and comes to rest on a flown step; the
    # floor to T = 0.525 first rests on its last full step (51), then
    # computes a half step.  At run()'s block edges (integrator._BLOCK = 512
    # rows, test_block_edge_cases): the floor to T = 0.6 flies 512, 511 and
    # 513 rows before its impact; the wedge at h = 0.00025 ends q2's flight on
    # row 1333 of a block that q1 flies through; the piston at h = 0.001 flies
    # its moving row across the edge at row 512; the floor from 2^53, where
    # h u0 and h^2 g round away, rests in flight from row 1 and is filled
    # from its block's end; free flight to T = 0.6005 takes its half step
    # after 600 flown rows.  "wedge-wall" starts the wedge on its wall q2 = 0
    # at u0 = (-2, 0): q2 rests from row 1 while q1 flies across block edges
    # to its wall at t = 0.5
    CASES = [("floor", 0.01, None), ("wedge", 0.01, None), ("pocket", 0.01, None),
             ("free", 0.01, 0.205), ("free", 0.1, 0.3), ("piston", 0.01, None),
             ("wedge", 0.00025, None), ("floor", 0.01, 0.525),
             ("floor", 0.000975, 0.6), ("floor", 0.000977, 0.6), ("floor", 0.000973, 0.6),
             ("piston", 0.001, None), ("floor-far", 0.001, None), ("free", 0.001, 0.6005),
             ("wedge-wall", 0.00025, None)]

    @staticmethod
    def scenario(name):
        """lookup(name), "floor-far": the floor from q0 = 2^53 at u0 = -0.5, or
        "wedge-wall": the wedge from q0 = (1, 0) at u0 = (-2, 0)."""
        if name == "floor-far":
            return dataclasses.replace(lookup("floor"), q0=np.array([2.0 ** 53]),
                                       u0=np.array([-0.5]))
        if name == "wedge-wall":
            return dataclasses.replace(lookup("wedge"), q0=np.array([1.0, 0.0]),
                                       u0=np.array([-2.0, 0.0]))
        return lookup(name)

    @staticmethod
    def by_hand(scn, h, T):
        """The seven arrays of run(), from one step() per step."""
        sys, field = scn.system, scn.force
        state = SchemeState(n=0, t_n=0.0, q_curr=scn.q0, u_curr=scn.u0)
        n_full, partial = integrator._grid(h, T)
        sizes = [h] * n_full + ([T - n_full * h] if partial else [])
        times, positions, velocities = [0.0], [scn.q0], [scn.u0]
        increments, multipliers, residuals, force_averages = [], [], [], []
        for h_n in sizes:
            out = step(state, sys, field, h_n)
            state = out.state
            times.append(state.t_n)
            positions.append(state.q_curr)
            velocities.append(state.u_curr)
            increments.append(out.increment)
            multipliers.append(out.multipliers)
            residuals.append(out.multiplier_residual)
            force_averages.append(out.force_average)
        return (np.array(times), np.array(positions), np.array(velocities),
                np.array(increments), np.reshape(multipliers, (len(multipliers), sys.p)),
                np.array(residuals), np.array(force_averages))

    @staticmethod
    def arrays(traj, contact):
        return (traj.times, traj.positions, traj.velocities, contact.increments,
                contact.multipliers, contact.residuals, contact.force_averages)

    def assert_matches_by_hand(self, traj, contact, scn, h, T):
        # bytes, not values: -0.0 equals 0.0, and run()'s rest rule compares bytes
        for array, expected in zip(self.arrays(traj, contact), self.by_hand(scn, h, T)):
            assert array.shape == expected.shape and array.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name, h, T", CASES)
    def test_run_matches_chained_steps(self, name, h, T):
        scn = self.scenario(name)
        T = scn.T if T is None else T
        traj, contact = run(scn.system, scn.force, scn.q0, scn.u0, h, T)
        self.assert_matches_by_hand(traj, contact, scn, h, T)

    # the stored average of a constant is the bits a callable returning it
    # gives at every step, in all seven arrays
    @pytest.mark.parametrize("name, h, T", CASES)
    def test_constant_force_matches_callable(self, name, h, T):
        scn = self.scenario(name)
        T = scn.T if T is None else T
        c = scn.force(0.0, scn.q0)
        callable_force = ForceField(f=lambda t, q: c.copy(), bound_F=scn.force.bound_F,
                                    sup_F=scn.force.sup_F)
        runs = [run(scn.system, force, scn.q0, scn.u0, h, T)
                for force in (scn.force, callable_force)]
        for a, b in zip(*(self.arrays(*r) for r in runs)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @staticmethod
    def approaching_wall(kind):
        """A particle at rest at q = 1 under no force, met at t = 0.5 by the
        wall q >= 0.5 + t, affine or per-point."""
        if kind == "affine":
            wall = affine_constraint(1, [1.0], offset=-0.5, rate=-1.0)
        else:
            wall = ConstraintFunction(1, lambda t, q: float(q[0]) - 0.5 - t,
                                      lambda t, q: np.array([1.0]), lambda t, q: -1.0)
        return dataclasses.replace(lookup("piston"), system=ConstraintSystem(1, (wall,)),
                                   q0=np.array([1.0]), u0=np.array([0.0]))

    # each case breaks one condition of run()'s reuse of a resting step: the
    # set moves (by an affine rate or a callable), the force is a callable,
    # which is never reused, or the step size changes after the rest began
    @pytest.mark.parametrize("case", ["affine-wall", "callable-wall", "lift-off",
                                      "partial-final-step"])
    def test_resting_steps_match_chained_steps(self, case):
        h, T = 0.01, 1.0
        if case.endswith("wall"):
            scn, end = self.approaching_wall(case.split("-")[0]), 1.5
        elif case == "lift-off":
            scn, T, end = self.lift_off([]), 2.0, 5.0
        else:
            scn, T, end = lookup("floor"), 2.005, 0.0
        traj, contact = run(scn.system, scn.force, scn.q0, scn.u0, h, T)
        assert traj.positions[-1, 0] == pytest.approx(end, abs=0.05)
        self.assert_matches_by_hand(traj, contact, scn, h, T)

    @staticmethod
    def lift_off(calls):
        """The floor under a callable force, -10 until t = 1 and +10 after,
        which appends the time of each of its calls to calls."""
        push = ForceField(f=lambda t, q: calls.append(t) or np.array([-10.0 if t < 1.0 else 10.0]),
                          bound_F=lambda t: 10.0, sup_F=10.0)
        return dataclasses.replace(lookup("floor"), force=push)

    # dk^n = u^n + h_n f^n - u^{n+1} elementwise, as step() forms it, on every
    # row: flown, filled or computed, under a constant or a callable force;
    # h_n is the grid's step size, the partial last one included, not
    # np.diff(times), whose bits differ
    @pytest.mark.parametrize("name, h, T", [("floor", 0.01, 2.005), ("wedge", 0.00025, None),
                                            ("piston", 0.01, None), ("pocket", 0.01, 0.995),
                                            ("free", 0.01, 0.205), ("lift-off", 0.01, 2.0)])
    def test_increments_from_velocities_and_force(self, name, h, T):
        scn = self.lift_off([]) if name == "lift-off" else lookup(name)
        T = scn.T if T is None else T
        traj, contact = run(scn.system, scn.force, scn.q0, scn.u0, h, T)
        n_full, partial = integrator._grid(h, T)
        sizes = np.array([h] * n_full + ([T - n_full * h] if partial else []))
        expected = (traj.velocities[:-1] + sizes[:, None] * contact.force_averages
                    - traj.velocities[1:])
        assert contact.increments.tobytes() == expected.tobytes()

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        """Record each call of owner.name, which still runs."""
        calls, original = [], getattr(owner, name)

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    @pytest.mark.parametrize("name, h, T", [("piston", 0.01, None), ("pocket", 0.01, None),
                                            ("free", 0.01, 0.205), ("lift-off", 0.01, 2.0)])
    def test_one_step_call_per_step(self, name, h, T, monkeypatch):
        # run() calls step() through the module name once per step, the first
        # included, when the set has a callable constraint (pocket) or the
        # force is a callable (lift-off rests on the still floor until t = 1);
        # an axis-aligned affine set under a constant force flies every
        # feasible prediction: the piston computes only its impact at t = 0.66
        # and the step after, and free flight computes no step
        forces = []
        scn = self.lift_off(forces) if name == "lift-off" else lookup(name)
        steps = self.count_calls(monkeypatch, integrator, "step")
        traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, h, scn.T if T is None else T)
        assert len(steps) == {"piston": 2, "free": 0}.get(name, traj.nsteps)
        assert len(forces) == (3 * traj.nsteps if name == "lift-off" else 0)

    # the floor's block-edge CASES: its first step() call follows 512, 511
    # and 513 flown rows
    @pytest.mark.parametrize("h, flown", [(0.000975, 512), (0.000977, 511), (0.000973, 513)])
    def test_block_edge_cases(self, h, flown, monkeypatch):
        steps = self.count_calls(monkeypatch, integrator, "step")
        scn = lookup("floor")
        run(scn.system, scn.force, scn.q0, scn.u0, h, 0.6)
        assert integrator._BLOCK == 512 and steps[0][0].n == flown

    # run() writes every row into the arrays it returns and holds flown rows
    # as Python floats for one block at most, so a long flight's transient
    # memory stays near the bytes of those arrays: free flight over 200000
    # steps peaks at 1.52 times them, and at 3.3 when every flown row stayed
    # a Python float until the end of the run
    def test_flight_memory_bounded(self):
        scn = lookup("free")
        tracemalloc.start()
        try:
            traj, contact = run(scn.system, scn.force, scn.q0, scn.u0, 1e-5, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.8 * sum(a.nbytes for a in self.arrays(traj, contact))

    # every array of two or more dimensions that run() returns is stored column
    # by column, on every set, whether its rows are flown, filled or computed:
    # diagnostics and the CSV writer reduce them along the grid as they come
    @pytest.mark.parametrize("case", [f"{name}-h0.01" for name in
                                      ("floor", "wedge", "piston", "pocket", "free")]
                             + ["discs-n2"])
    def test_grid_arrays_column_major(self, case):
        traj, contact = run(*RUN_CASES[case]())
        for array in (traj.positions, traj.velocities, contact.increments,
                      contact.multipliers, contact.force_averages):
            assert array.ndim == 2 and array.flags.f_contiguous

    @pytest.mark.parametrize("name, h, calls", [("floor", 0.001, 3), ("wedge", 0.00025, 4)])
    def test_resting_steps_reused(self, name, h, calls, monkeypatch):
        # under a constant force on a still set, the steps after the first
        # that returned its input are filled and average no force, and
        # feasible predictions are flown, so f^n is averaged once per step()
        # call: the floor computes its impact at t = 0.499 and the two steps
        # after, then rests to t = 2; the wedge computes two steps at each
        # wall (t = 0.33325 and 0.5), then rests in its corner to t = 1
        steps = self.count_calls(monkeypatch, integrator, "step")
        averages = self.count_calls(monkeypatch, ForceField, "step_average")
        scn = lookup(name)
        traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, h, scn.T)
        assert (traj.nsteps, len(steps), len(averages)) == (round(scn.T / h), calls, calls)

    # random axis-aligned affine sets: every row a_j q_j + b + r t with one
    # nonzero coefficient (or none), a start inside or on some rows, a
    # constant force, and a horizon that may end in a partial step; rows are
    # flown, filled or computed, and all of them equal chained step() calls
    @given(data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_axis_aligned_runs_match_chained_steps(self, data):
        # no subnormals: the kernel's own handling of them is not under test
        def floats(lo, hi, size=None):
            one = st.floats(lo, hi, allow_subnormal=False)
            return one if size is None else np.array(
                data.draw(st.lists(one, min_size=size, max_size=size)))

        d = data.draw(st.integers(1, 3))
        # u0 or f times 0, per coordinate, starts it at rest or without force,
        # with some -0.0: one coordinate may rest on or off its row, at block
        # edges too, while another flies
        def some_zero(lo, hi):
            return floats(lo, hi, d) * np.array([data.draw(st.sampled_from([0, 1]))
                                                 for _ in range(d)])

        q0, u0, f = floats(-1.0, 1.0, d), some_zero(-3.0, 3.0), some_zero(-10.0, 10.0)
        still, rows = data.draw(st.booleans()), []
        for cid in range(1, data.draw(st.integers(1, 4)) + 1):
            # a = 0 or |a| >= 0.25: a tiny a squares to 0 in the projection
            j = data.draw(st.integers(0, d - 1))
            a = data.draw(st.sampled_from([0.0, 1.0, -1.0])) * data.draw(floats(0.25, 3.0))
            normal = np.zeros(d)
            normal[j] = a
            if cid == 1:  # the force pushes into the first row
                f[j] = math.copysign(f[j], -a)
            slack = data.draw(st.sampled_from([0.0, 0.02, 0.3]))  # 0: a start on the row
            rate = 0.0 if still else data.draw(st.sampled_from([0.0, 1.0]) | floats(-1.0, 1.0))
            rows.append(affine_constraint(cid, normal, offset=slack - a * q0[j], rate=rate))
        norm = float(np.linalg.norm(f))
        scn = dataclasses.replace(lookup("free"), system=ConstraintSystem(d, tuple(rows)),
                                  force=ForceField(f=f, bound_F=lambda t: norm, sup_F=norm),
                                  q0=q0, u0=u0)
        h = data.draw(st.sampled_from([0.01, 0.003, 0.02]))
        # about one horizon in ten is at run()'s block edges: 511, 512, 513 or 1027 steps
        block = integrator._BLOCK
        steps = data.draw(st.integers(2, 80) if data.draw(st.integers(0, 9))
                          else st.sampled_from([block - 1, block, block + 1, 2 * block + 3]))
        T = h * (steps + data.draw(st.sampled_from([0.0, 0.25, 0.5])))
        assert scn.system.axis_rows is not None
        try:
            expected = self.by_hand(scn, h, T)
        except SimulationAbort as exc:  # rows that close in on each other
            with pytest.raises(SimulationAbort) as err:
                run(scn.system, scn.force, q0, u0, h, T)
            assert (err.value.step_index, err.value.reason) == (exc.step_index, exc.reason)
            return
        traj, contact = run(scn.system, scn.force, q0, u0, h, T)
        for array, want in zip(self.arrays(traj, contact), expected):
            assert array.shape == want.shape and array.tobytes() == want.tobytes()

    # a coordinate is filled only from a row that returns its input bit for
    # bit: from q = -0.0 at rest the first row returns 0.0, and from q = 1 at
    # u = 1.5 2^-52 under f = -3 2^-52 it returns q = 1 at u = 0, from which
    # the force moves it
    @pytest.mark.parametrize("q0, u0, f", [(-0.0, 0.0, 0.0),
                                           (1.0, 1.5 * 2.0 ** -52, -3.0 * 2.0 ** -52)])
    def test_rest_begins_on_a_row_that_returns_its_input(self, q0, u0, f):
        force = ForceField(f=np.array([f]), bound_F=lambda t: abs(f), sup_F=abs(f))
        scn = dataclasses.replace(lookup("free"), force=force, q0=np.array([q0]),
                                  u0=np.array([u0]))
        traj, contact = run(scn.system, scn.force, scn.q0, scn.u0, 0.5, 4.0)
        assert traj.positions[1].tobytes() == np.array([abs(q0)]).tobytes()
        assert (traj.positions[-1, 0] == abs(q0)) == (f == 0.0)
        self.assert_matches_by_hand(traj, contact, scn, 0.5, 4.0)

    def test_oblique_row_computes_every_step(self, monkeypatch):
        # the row q1 + q2 >= 0 has two nonzero coefficients, so no prediction
        # is flown: the particle meets it at t = 1 and slides along it at (-1, 1)
        sys = ConstraintSystem(2, (affine_constraint(1, [1.0, 1.0]),
                                   affine_constraint(2, [0.0, 1.0])))
        scn = dataclasses.replace(lookup("wedge"), system=sys, q0=np.array([1.0, 1.0]),
                                  u0=np.array([-2.0, 0.0]))
        steps = self.count_calls(monkeypatch, integrator, "step")
        traj, contact = run(sys, scn.force, scn.q0, scn.u0, 0.01, 2.0)
        assert sys.axis_rows is None and len(steps) == traj.nsteps == 200
        assert traj.positions[-1] == pytest.approx([-2.0, 2.0], abs=0.05)
        self.assert_matches_by_hand(traj, contact, scn, 0.01, 2.0)

    # a run restarted at grid point k from (q^k, u^k) over T - t^k repeats the
    # original rows from k on, bit for bit, also one step before impact (floor
    # and pocket k = 49, wedge k = 33) and from a row on the boundary (floor
    # and pocket from k = 51, wedge from k = 50); the piston's wall moves with
    # t, so a restart at t = 0 is another problem.  At h = 0.00025 the wedge
    # restarts one row before, on and one row after the original's block edge
    # at row 512, so the tail's blocks start mid-block of the original's; the
    # wedge from its wall restarts at that edge, q2 at rest and q1 in flight
    RESTARTS = [(name, k, 0.01) for name, k in [
        ("floor", 10), ("floor", 40), ("floor", 49), ("floor", 51), ("floor", 60), ("floor", 150),
        ("wedge", 10), ("wedge", 30), ("wedge", 33), ("wedge", 50), ("wedge", 70),
        ("pocket", 10), ("pocket", 49), ("pocket", 51), ("pocket", 80), ("free", 7)]]
    RESTARTS += [("wedge", k, 0.00025) for k in (511, 512, 513)] + [("wedge-wall", 512, 0.00025)]

    @pytest.mark.parametrize("name, k, h", RESTARTS, ids=[
        f"{name}-{k}" if h == 0.01 else f"{name}-{h}-{k}" for name, k, h in RESTARTS])
    def test_restart_reproduces_tail(self, name, k, h):
        scn = self.scenario(name)
        traj, contact = run(scn.system, scn.force, scn.q0, scn.u0, h, scn.T)
        tail = run(scn.system, scn.force, traj.positions[k], traj.velocities[k], h,
                   scn.T - traj.times[k])
        whole = (traj.positions[k:], traj.velocities[k:], contact.increments[k:],
                 contact.multipliers[k:], contact.residuals[k:], contact.force_averages[k:])
        for a, b in zip(whole, self.arrays(*tail)[1:]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSweepBoundedness:
    """L-infinity and TV stay within a constant factor over the h sweep."""

    @pytest.mark.parametrize("name", ["floor", "wedge", "piston", "pocket", "free"])
    def test_sweep_stability(self, name):
        scn = lookup(name)
        sups, tvs = [], []
        for h in H_SWEEP:
            report = diagnose(*run(scn.system, scn.force, scn.q0, scn.u0, h, scn.T),
                              scn.system, scn.force)
            sups.append(report.sup_velocity)
            tvs.append(report.total_variation)
        assert max(sups) <= 2.0 * min(sups) + 1e-9
        assert max(tvs) <= 2.0 * min(tvs) + 1e-9
