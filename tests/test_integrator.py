import dataclasses
import math

import numpy as np
import pytest

from proxsweep import (ForceField, SimulationAbort, StepSizeTooLargeError,
                       ZERO_FORCE, active_set, extract_multipliers, initialize,
                       geometry, integrator, projection, run, step)
from proxsweep.geometry import least_distance
from proxsweep.integrator import SchemeState
from proxsweep.scenarios import lookup

from conftest import H_SWEEP, disc_complement, half_space_1d
from oracles import analytic_reference

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
        # float zeros of the input's shape, whatever its dtype
        f = ZERO_FORCE(0.0, [1, 2])
        assert f.dtype == np.float64 and f.shape == (2,)
        np.testing.assert_array_equal(f, [0.0, 0.0])

    def test_step_average_exact_for_linear_t(self):
        field = ForceField(f=lambda t, q: np.array([2.0 * t + 1.0]),
                           bound_F=lambda t: abs(2.0 * t + 1.0), sup_F=3.0)
        avg = field.step_average(0.0, 1.0, np.zeros(1))
        assert avg[0] == pytest.approx(2.0, abs=1e-13)  # mean of 2t+1 on [0,1]


class TestInitialize:
    def test_rest_state(self):
        st = initialize(half_space_1d(), ZERO_FORCE, np.array([1.0]), np.array([0.0]), 0.1)
        np.testing.assert_allclose(st.q_curr, [1.0])
        np.testing.assert_allclose(st.u_curr, [0.0])

    def test_linear_motion(self):
        st = initialize(half_space_1d(), ZERO_FORCE, np.array([1.0]), np.array([-1.0]), 0.1)
        np.testing.assert_allclose(st.q_curr, [0.9])

    def test_constant_force(self):
        st = initialize(half_space_1d(), GRAV, np.array([1.0]), np.array([0.0]), 0.1)
        # q1 = q0 + h^2 * (-10) = 1 - 0.1
        np.testing.assert_allclose(st.q_curr, [0.9], atol=1e-13)
        assert st.n == 1 and st.t_n == 0.1

    def test_velocity_consistency_by_construction(self):
        st = initialize(half_space_1d(), GRAV, np.array([1.0]), np.array([-0.3]), 0.05)
        np.testing.assert_array_equal(st.u_curr, (st.q_curr - 1.0) / 0.05)

    def test_first_step_leaving_set_rejected(self):
        with pytest.raises(StepSizeTooLargeError) as err:
            initialize(half_space_1d(), ZERO_FORCE, np.array([0.05]), np.array([-1.0]), 0.1)
        assert err.value.margin < 0.0

    def test_boundary_start_rejected(self):
        with pytest.raises(ValueError, match=r"initial position infeasible: g_1\(0, q0\) = 0"):
            initialize(half_space_1d(), ZERO_FORCE, np.array([0.0]), np.array([1.0]), 0.1)

    def test_zero_step_rejected(self):
        with pytest.raises(ValueError, match="h must be > 0, got 0.0"):
            initialize(half_space_1d(), ZERO_FORCE, np.array([1.0]), np.array([0.0]), 0.0)

    def test_short_velocity_rejected(self):
        # a length-1 u0 used to broadcast to (-2, -2)
        scn = lookup("wedge")
        with pytest.raises(ValueError, match="u0 must have length 2, got 1"):
            initialize(scn.system, scn.force, np.array([1.0, 1.0]), np.array([-2.0]), 0.01)


class TestStep:
    def test_free_flight_is_linear_extrapolation(self):
        sys = half_space_1d()
        st = SchemeState(n=1, t_n=0.1, q_curr=np.array([0.9]), u_curr=np.array([-1.0]))
        out = step(st, sys, ZERO_FORCE, 0.1)
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
            step(st, sys, ZERO_FORCE, 0.1)
        assert "tube" in err.value.reason
        assert err.value.step_index == 1

    def test_infeasible_linearisation_aborts(self):
        # the prediction (0, -0.5) sits below the pocket's floor inside the
        # disc: wall and floor linearised there ask for q2 <= -1.25 and q2 >= 0
        sys = lookup("pocket").system
        st = SchemeState(n=4, t_n=0.0, q_curr=np.array([0.0, 1.0]),
                         u_curr=np.array([0.0, -15.0]))
        with pytest.raises(SimulationAbort) as err:
            step(st, sys, ZERO_FORCE, 0.1)
        assert "did not converge" in err.value.reason
        assert err.value.step_index == 4


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
        # step() reads the multipliers off the projection's certificate; the
        # least-squares recovery is never needed on the way
        def no_nnls(*args, **kwargs):
            raise AssertionError("step() solved an NNLS problem")

        monkeypatch.setattr(integrator, "nnls", no_nnls)
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
        def no_nnls(*args, **kwargs):
            raise AssertionError("least_distance fell back to NNLS")

        monkeypatch.setattr(geometry, "nnls", no_nnls)
        scn = lookup(name)
        _, contact = run(scn.system, scn.force, scn.q0, scn.u0, 0.01, scn.T)
        assert np.max(contact.multipliers) > 0.0

    def test_force_averaged_once_per_step(self):
        # the first row's f^0 is the one initialize averaged for q^1
        calls = []
        field = ForceField(f=lambda t, q: calls.append(t) or np.zeros_like(q))
        scn = lookup("free")
        _, contact = run(scn.system, field, scn.q0, scn.u0, 0.5, 1.0)
        assert len(calls) == 6  # three Gauss nodes for each of the two steps
        np.testing.assert_array_equal(contact.force_averages, np.zeros((2, 1)))

    def test_feasible_steps_evaluate_no_gradient(self):
        # a feasible prediction has every multiplier 0 and residual |increment|,
        # so the pocket's free fall makes no gradient call before impact
        scn = lookup("pocket")
        wall, floor = scn.system.constraints
        times = []
        counted = dataclasses.replace(
            wall, gradient_q=lambda t, q: times.append(t) or wall.gradient_q(t, q))
        sys = dataclasses.replace(scn.system, constraints=(counted, floor))
        traj, contact = run(sys, scn.force, scn.q0, scn.u0, scn.h, scn.T)
        impact = int(np.flatnonzero(contact.multipliers.any(axis=1))[0])
        assert impact > 40 and min(times) == traj.times[impact + 1]
        free_fall = contact.increments[:impact]
        np.testing.assert_array_equal(contact.residuals[:impact],
                                      [np.linalg.norm(inc) for inc in free_fall])

    @pytest.mark.parametrize("name, solves", [("floor", 1501), ("pocket", 1505)])
    def test_kernel_solves_per_run(self, name, solves, monkeypatch):
        # an affine contact step is one least-distance solve; the pocket's
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
            assert solves == np.count_nonzero(contact.multipliers.any(axis=1))

    def test_momentum_balance(self):
        from proxsweep import momentum_residual
        for name in ("floor", "wedge", "piston", "pocket"):
            scn = lookup(name)
            traj, contact = run(scn.system, scn.force, scn.q0, scn.u0, 0.01, scn.T)
            assert momentum_residual(traj, contact) <= 1e-8

    def test_partial_final_step(self):
        # T / h farther than 1e-9 from an integer takes a partial step, however short
        scn = lookup("free")
        for h, T, nsteps, last in [(0.01, 0.205, 21, 0.005),
                                   (1.0 / (100 + 2e-7), 1.0, 101, 2e-9),
                                   (1.0 / (100 - 2e-7), 1.0, 100, 0.01)]:
            traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, h, T)
            assert traj.partial_final_step
            assert traj.nsteps == nsteps
            assert traj.times[-1] - traj.times[-2] == pytest.approx(last, rel=1e-6)
            assert traj.times[-1] == pytest.approx(T, abs=1e-15)
            assert traj.positions[-1][0] == pytest.approx(1.0 - T, abs=1e-12)

    def test_uniform_grid_no_partial_flag(self):
        # within 1e-9 of an integer the grid stays uniform and ends off T by that much
        scn = lookup("free")
        for h, T, nsteps in [(0.01, 2.0, 200), (1.0 / (100 + 5e-8), 1.0, 100)]:
            traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, h, T)
            assert not traj.partial_final_step
            assert traj.nsteps == nsteps

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
    ], ids=["q0-nan", "q0-length", "u0-inf"])
    def test_bad_start_rejected(self, q0, u0, message):
        scn = lookup("free")
        with pytest.raises(ValueError, match=message):
            run(scn.system, scn.force, np.array(q0), np.array(u0), 0.01, 1.0)

    def test_margin_flag(self):
        scn = lookup("floor")
        traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, 0.04, 2.0)
        assert traj.margin_ok  # 0.04 * (0 + 20) = 0.8 < 1.25
        traj2, _ = run(scn.system, scn.force, scn.q0, scn.u0, 0.08, 2.0)
        assert not traj2.margin_ok

    def test_trajectory_interpolation_rules(self):
        scn = lookup("free")
        traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, 0.1, 1.0)
        # piecewise linear positions, evaluated on an array of times
        q = traj.position(np.array([0.05]))
        assert q.shape == (1, 1)
        assert q[0, 0] == pytest.approx(0.95, abs=1e-12)


class TestRunLoop:
    """run() against initialize and step() chained by hand, bit for bit."""

    # (scenario, h, T): a uniform grid on three contact scenarios, and a free
    # flight whose T / h = 20.5 ends in a half step
    CASES = [("floor", 0.01, None), ("wedge", 0.01, None), ("pocket", 0.01, None),
             ("free", 0.01, 0.205)]

    @staticmethod
    def by_hand(scn, h, T):
        """The seven arrays of run(), from one initialize and one step() per step."""
        sys, field = scn.system, scn.force
        state = initialize(sys, field, scn.q0, scn.u0, h)
        n_full = int(T / h)
        sizes = [h] * (n_full - 1) + ([T - n_full * h] if T - n_full * h > 1e-9 * T else [])
        times, positions, velocities = [0.0, h], [scn.q0, state.q_curr], [scn.u0, state.u_curr]
        increments, multipliers = [np.zeros(sys.dim)], [np.zeros(sys.p)]
        residuals, force_averages = [0.0], [field.step_average(0.0, h, scn.q0)]
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

    @pytest.mark.parametrize("name, h, T", CASES)
    def test_run_matches_chained_steps(self, name, h, T):
        scn = lookup(name)
        T = scn.T if T is None else T
        traj, contact = run(scn.system, scn.force, scn.q0, scn.u0, h, T)
        assert traj.partial_final_step == (name == "free")
        got = (traj.times, traj.positions, traj.velocities, contact.increments,
               contact.multipliers, contact.residuals, contact.force_averages)
        for array, expected in zip(got, self.by_hand(scn, h, T)):
            assert array.shape == expected.shape
            np.testing.assert_array_equal(array, expected)

    @pytest.mark.parametrize("name, h, T", CASES)
    def test_one_step_call_per_step(self, name, h, T, monkeypatch):
        # run() calls step() through the module name once per step after the
        # first, which initialize takes; the traced per-step metrics rely on it
        calls = []

        def counted(*args):
            calls.append(args)
            return step(*args)

        monkeypatch.setattr(integrator, "step", counted)
        scn = lookup(name)
        traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, h, scn.T if T is None else T)
        assert len(calls) == traj.nsteps - 1


class TestSweepBoundedness:
    """L-infinity and TV stay within a constant factor over the h sweep."""

    @pytest.mark.parametrize("name", ["floor", "wedge", "piston", "pocket", "free"])
    def test_sweep_stability(self, name):
        from proxsweep import sup_velocity, total_variation
        scn = lookup(name)
        sups, tvs = [], []
        for h in H_SWEEP:
            traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, h, scn.T)
            sups.append(sup_velocity(traj))
            tvs.append(total_variation(traj))
        assert max(sups) <= 2.0 * min(sups) + 1e-9
        assert max(tvs) <= 2.0 * min(tvs) + 1e-9
