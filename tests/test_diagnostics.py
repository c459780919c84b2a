import dataclasses
import math

import numpy as np
import pytest

from proxsweep import (ConstraintEvaluationError, ConstraintFunction, ConstraintSystem,
                       ContactMeasure, DiagnosticsReport, SimulationAbort,
                       Trajectory, affine_constraint, cli, compute_constants,
                       convergence_study, detect_impacts, diagnose, diagnostics, good_direction,
                       interpolant_sup_error, max_feasibility_gap, max_intergrid_gap,
                       momentum_residual, project_point, registry, run, sup_velocity,
                       total_variation, velocity_bound_ok, verify_impact_law)
from proxsweep.diagnostics import law_bound
from proxsweep.scenarios import lookup

from conftest import H_SWEEP, floor_2d, half_space_1d, zero_force
from oracles import intergrid_gap_scan
from test_run_golden import CASES as RUN_CASES


def make_traj(times, positions, velocities):
    return Trajectory(times=np.asarray(times, dtype=float),
                      positions=np.asarray(positions, dtype=float).reshape(len(times), -1),
                      velocities=np.asarray(velocities, dtype=float).reshape(len(times), -1))


class TestTotalVariation:
    def test_constant_velocity(self):
        traj = make_traj([0, 1, 2], [0, 1, 2], [1, 1, 1])
        assert total_variation(traj) == 0.0
        assert total_variation(make_traj([0], [0], [1])) == 0.0

    def test_single_jump_then_reversal(self):
        traj = make_traj([0, 1, 2], [0, -2, -2], [-2, 0, 2])
        assert total_variation(traj) == 4.0

    def test_bouncing_ball_against_analytic(self):
        # fall variation |u-| plus the inelastic jump |u-|: TV -> 2 sqrt(2 g q0)
        scn = lookup("floor")
        traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, 0.005, scn.T)
        assert abs(total_variation(traj) - 2.0 * math.sqrt(2 * 10.0 * 1.25)) <= 0.2


class TestImpactLaw:
    def test_floor_bounce_residual_small(self):
        scn = lookup("floor")
        for h in H_SWEEP:
            traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, h, scn.T)
            events = verify_impact_law(traj, scn.system, sup_force=scn.force.sup_F)
            assert len(events) == 1
            ev = events[0]
            assert ev.law_residual <= law_bound(h, scn.force.sup_F)
            assert ev.variational_max <= law_bound(h, scn.force.sup_F)
            assert abs(ev.time - 0.5) <= 2 * h + 1e-12

    def test_piston_merged_event(self):
        scn = lookup("piston")
        traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, 0.01, scn.T)
        events = verify_impact_law(traj, scn.system, sup_force=0.0)
        assert len(events) == 1
        ev = events[0]
        assert ev.u_minus[0] == pytest.approx(-0.5, abs=1e-12)
        assert ev.u_plus[0] == pytest.approx(1.0, abs=1e-12)
        assert ev.law_residual <= 1e-9

    def test_no_jump_no_event(self):
        scn = lookup("free")
        traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, 0.02, scn.T)
        assert verify_impact_law(traj, scn.system, sup_force=0.0) == []

    def test_adversarial_injected_velocity_detected(self):
        # a floor impact rewritten to exit at u+ = 1 violates the law: the
        # residual is 1, and no row is active at u+, so the cone is {0} and
        # u- - u+ = -3 lies 3 from it
        traj = make_traj([0.0, 0.1, 0.2],
                         [[0.2], [0.0], [0.0]],
                         [[-2.0], [-2.0], [1.0]])
        events = verify_impact_law(traj, half_space_1d(), sup_force=0.0)
        assert len(events) == 1
        ev = events[0]
        assert ev.law_residual == pytest.approx(1.0, abs=1e-9)
        assert ev.variational_max == pytest.approx(3.0, abs=1e-12)
        assert ev.variational_max > law_bound(0.1, 0.0)

    @pytest.mark.parametrize("sys, times, positions, velocities", [
        # u+ = -1 leaves V = {u >= 0} by 1, while u- - u+ = -1 is in its cone
        (half_space_1d(), [0.0, 0.1, 0.2], [[0.2], [0.0], [0.0]], [[-2.0], [-2.0], [-1.0]]),
        # u- = (1, -5) onto the floor keeps its tangential part: P_V(u-) = (1, 0),
        # and u- - u+ = (1, -5) lies 1 from the cone {(0, -s) : s >= 0}
        (floor_2d(), [0.0, 0.01], [[0.0, 0.05], [0.01, 0.0]], [[1.0, -5.0], [0.0, 0.0]]),
    ], ids=["outside-V", "tangential"])
    def test_planted_wrong_exit_exceeds_bound(self, sys, times, positions, velocities):
        traj = make_traj(times, positions, velocities)
        events = verify_impact_law(traj, sys, sup_force=0.0)
        assert len(events) == 1
        ev = events[0]
        assert ev.law_residual == pytest.approx(1.0, abs=1e-12)
        assert ev.variational_max == pytest.approx(1.0, abs=1e-12)
        assert ev.variational_max > law_bound(times[1] - times[0], 0.0)

    @pytest.mark.parametrize("name", ["floor", "wedge", "piston", "pocket", "free"])
    def test_residual_bound_all_scenarios(self, name):
        scn = lookup(name)
        for h in (0.04, 0.01):
            traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, h, scn.T)
            bound = 5 * h * (1 + scn.force.sup_F)
            for ev in verify_impact_law(traj, scn.system, sup_force=scn.force.sup_F):
                assert not math.isnan(ev.law_residual)
                assert ev.law_residual <= bound

    def test_static_impacts_do_not_speed_up(self):
        for name in ("floor", "wedge", "pocket"):
            scn = lookup(name)
            traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, 0.01, scn.T)
            for ev in verify_impact_law(traj, scn.system, sup_force=scn.force.sup_F):
                assert np.linalg.norm(ev.u_plus) <= np.linalg.norm(ev.u_minus) + 1e-9

    @staticmethod
    def empty_polyhedron_jump():
        # velocity polyhedron u >= 1 and -u >= 1 is empty at the event point
        c1 = ConstraintFunction(id=1, value=lambda t, q: float(q[0]) - t,
                                gradient_q=lambda t, q: np.array([1.0]),
                                dt=lambda t, q: -1.0)
        c2 = ConstraintFunction(id=2, value=lambda t, q: -float(q[0]) - t,
                                gradient_q=lambda t, q: np.array([-1.0]),
                                dt=lambda t, q: -1.0)
        sys = ConstraintSystem(dim=1, constraints=(c1, c2))
        return sys, make_traj([0.0, 0.1], [[0.0], [0.0]], [[-2.0], [0.5]])

    def test_unverifiable_event_flagged(self):
        sys, traj = self.empty_polyhedron_jump()
        events = verify_impact_law(traj, sys, sup_force=0.0)
        assert len(events) == 1
        assert math.isnan(events[0].law_residual)
        assert math.isnan(events[0].variational_max)

    def test_verify_gate_fails_unverifiable_event(self):
        sys, traj = self.empty_polyhedron_jump()
        contact = ContactMeasure(increments=np.array([[-2.5]]), multipliers=np.zeros((1, 2)),
                                 residuals=np.zeros(1), force_averages=np.zeros((1, 1)))
        report = diagnose(traj, contact, sys, zero_force(1))
        problems = cli._verify_run(report, 0.1, 0.0)
        assert "impact at t=0.1 not verifiable (empty velocity polyhedron)" in problems
        assert not any(p.startswith(("impact residual", "variational")) for p in problems)

    def test_parallel_rows_skip_singular_vertex(self):
        # rows (0, 1) and (0, 2) are both active on the floor: the cone's face
        # Gram matrix is singular and the kernel's active-set loop decides
        sys = ConstraintSystem(dim=2, constraints=(affine_constraint(1, [0.0, 1.0]),
                                                   affine_constraint(2, [0.0, 2.0])))
        traj, _ = run(sys, zero_force(2), np.array([0.0, 1.0]), np.array([0.5, -2.0]), 0.01, 1.0)
        events = verify_impact_law(traj, sys, sup_force=0.0)
        assert [ev.time for ev in events] == [pytest.approx(0.51)]
        assert not math.isnan(events[0].law_residual)
        assert events[0].law_residual <= 1e-12
        assert events[0].variational_max <= 1e-12


class TestConstants:
    def test_floor_exact_values(self):
        scn = lookup("floor")
        est = good_direction(scn.system, 0.0, np.array([0.0]))
        rec = compute_constants(scn.system, est, scn.q0, scn.u0, scn.force, 0.01, scn.T)
        assert rec.kappa0 == 1.0
        assert rec.nu_min == 1.0 / 6.0  # r/(2 (c0 + delta + 2 kappa0)) with r=1

    def test_horizon_eighth(self):
        rec = compute_constants(lookup("free").system, None, np.array([1.0]), np.array([1.0]),
                                zero_force(1), 0.01, 1.0)
        assert rec.T0 == 0.125

    def test_unavailable_without_certificate(self):
        rec = compute_constants(lookup("floor").system, None, np.array([1.0]), np.array([0.0]),
                                zero_force(1), 0.01, 1.0)
        assert rec.kappa0 is None and rec.nu_min is None

    def test_velocity_bound_record(self):
        scn = lookup("floor")
        est = good_direction(scn.system, 0.0, np.array([0.0]))
        rec = compute_constants(scn.system, est, scn.q0, scn.u0, scn.force, 0.01, 2.0)
        # A(1) = |u0| + 2 kappa0 + integral F = 0 + 2 + 20
        assert rec.A_k == pytest.approx(22.0, rel=1e-12)

    def test_infinite_horizon_when_still(self):
        rec = compute_constants(lookup("free").system, None, np.array([1.0]), np.array([0.0]),
                                zero_force(1), 0.01, 1.0)
        assert rec.T0 == math.inf

    def test_start_margin(self):
        # min g / beta > h (|u0| + integral of F): the pocket's 4.0625 / 2
        # against h (0 + 10); a start on the floor has no margin, and a set
        # with no constraint needs none
        def margin(name, q0, h):
            scn = lookup(name)
            return compute_constants(scn.system, None, np.array(q0), scn.u0, scn.force, h,
                                     1.0).margin_ok

        assert margin("pocket", [0.0, 2.25], 0.2) and not margin("pocket", [0.0, 2.25], 0.21)
        assert not margin("floor", [0.0], 0.01) and margin("free", [0.0], 0.5)


class TestConvergence:
    def test_free_flight_roundoff(self):
        scn = lookup("free")
        rows = convergence_study(scn.system, scn.force, scn.q0, scn.u0, scn.T,
                                 H_SWEEP, reference=scn.reference())
        assert all(row["err"] <= 1e-12 for row in rows)

    def test_bouncing_ball_order(self):
        scn = lookup("floor")
        rows = convergence_study(scn.system, scn.force, scn.q0, scn.u0, scn.T,
                                 H_SWEEP, reference=scn.reference())
        errs = [row["err"] for row in rows]
        assert all(e1 < e0 for e0, e1 in zip(errs, errs[1:]))
        orders = [row["order"] for row in rows if row["order"] is not None]
        assert orders and min(orders) >= 0.9

    def test_piston_decreasing(self):
        scn = lookup("piston")
        rows = convergence_study(scn.system, scn.force, scn.q0, scn.u0, scn.T,
                                 H_SWEEP, reference=scn.reference())
        errs = [row["err"] for row in rows]
        assert all(e1 < e0 for e0, e1 in zip(errs, errs[1:]))

    def test_finest_run_reference_fallback(self):
        scn = lookup("floor")
        rows = convergence_study(scn.system, scn.force, scn.q0, scn.u0, 1.0,
                                 [0.02, 0.01], reference=None)
        assert all(row["err"] is not None for row in rows)
        assert rows[1]["err"] < rows[0]["err"]

    def test_failed_run_raises(self):
        # at h = 1 the pocket's first prediction falls through the disc and the
        # floor, where the linearised constraints are infeasible
        scn = lookup("pocket")
        with pytest.raises(SimulationAbort) as err:
            convergence_study(scn.system, scn.force, scn.q0, scn.u0, 2.0,
                              [1.0, 0.01], reference=scn.reference())
        assert err.value.step_index == 0


class TestGaps:
    def test_piston_intergrid_bound(self):
        scn = lookup("piston")
        for h in (0.04, 0.01):
            traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, h, scn.T)
            gap = max_intergrid_gap(traj, scn.system)
            assert gap <= scn.system.lipschitz_c0 * h + 1e-8

    def test_only_last_three_quarter_sample_leaves_set(self):
        # C(t) = {q >= b(t)} rises to q >= 0.5 only around t = 2.75, the w = 3/4
        # sample of the last step, where the interpolant sits at 0.75 * 0.4
        wall = ConstraintFunction(
            id=1, value=lambda t, q: float(q[0]) - (0.5 if abs(t - 2.75) < 0.05 else -1.0),
            gradient_q=lambda t, q: np.array([1.0]), dt=lambda t, q: 0.0)
        sys = ConstraintSystem(dim=1, constraints=(wall,))
        traj = make_traj([0, 1, 2, 3], [0, 0, 0, 0.4], [0, 0, 0, 0.4])
        assert max_intergrid_gap(traj, sys) == pytest.approx(0.2, abs=1e-12)

    def test_unconverged_projection_counts_as_infinite(self):
        # Newton on atan(q) >= 0 two-cycles from -1.75 and -2.875 (1.75 and 2.875
        # outside) and converges only from -0.625; those two samples are no gap of 0
        wall = ConstraintFunction(id=1, value=lambda t, q: math.atan(q[0]),
                                  gradient_q=lambda t, q: np.array([1.0 / (1.0 + q[0] ** 2)]),
                                  dt=lambda t, q: 0.0, hessian_bound=0.65)
        sys = ConstraintSystem(dim=1, constraints=(wall,), hess_bound=0.65)
        traj = make_traj([0, 1, 2], [0.5, -4.0, 0.5], [0, 0, 0])
        assert not project_point(sys, 0.5, np.array([-1.75])).converged
        assert max_intergrid_gap(traj, sys) == math.inf

    def test_projects_each_outside_sample_once(self, monkeypatch):
        # the piston's wall q >= t passes a particle parked at 0.5 halfway through
        sys = lookup("piston").system
        traj = make_traj(np.linspace(0.0, 1.0, 11), np.full(11, 0.5), np.zeros(11))
        samples = [(1.0 - w) * t0 + w * t1 for t0, t1 in zip(traj.times[:-1], traj.times[1:])
                   for w in (0.25, 0.5, 0.75)]
        outside = [t for t in samples if t > 0.5]
        calls = []

        def counting(sys, t, x):
            calls.append(t)
            return project_point(sys, t, x)

        monkeypatch.setattr(diagnostics, "project_point", counting)
        gap = max_intergrid_gap(traj, sys)
        assert len(outside) == 15
        np.testing.assert_array_equal(calls, outside)
        assert gap == pytest.approx(max(outside) - 0.5, abs=1e-12)
        assert gap == intergrid_gap_scan(traj, sys)

    @pytest.mark.parametrize("check", [max_feasibility_gap, max_intergrid_gap, diagnose])
    def test_one_values_call_per_trajectory(self, monkeypatch, check):
        # every wedge grid point is feasible, and a chord of an affine set stays
        # in it between feasible ends: max_intergrid_gap builds no sample, and
        # diagnose evaluates the grid once for all of its checks
        scn = lookup("wedge")
        traj, contact = run(scn.system, scn.force, scn.q0, scn.u0, 0.01, scn.T)
        shapes, values = [], ConstraintSystem.values
        monkeypatch.setattr(ConstraintSystem, "values",
                            lambda self, t, q: shapes.append(np.shape(q)) or values(self, t, q))
        if check is diagnose:
            report = diagnose(traj, contact, scn.system, scn.force)
            assert report.max_feasibility_gap == report.max_intergrid_gap == 0.0
        else:
            assert check(traj, scn.system) == 0.0
        # single points (q0's start margin, an impact's velocity polyhedron) aside
        assert [s for s in shapes if len(s) == 2] == [(len(traj.times), 2)]

    @pytest.mark.parametrize("name, h", [("floor", 0.01), ("floor", 0.00025), ("wedge", 0.01),
                                         ("wedge", 0.00025), ("piston", 0.01),
                                         ("piston", 0.00025)])
    def test_matches_full_scan_on_runs(self, name, h):
        scn = lookup(name)
        traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, h, scn.T)
        assert max_intergrid_gap(traj, scn.system) == intergrid_gap_scan(traj, scn.system)

    def test_matches_full_scan_with_infeasible_end(self, monkeypatch):
        # one grid point of a wedge path pokes out through q1 >= 0 at q1 = -0.4:
        # only the two steps at it are sampled, and 3 of their 6 samples leave
        # the set, the farthest at q1 = -0.225 (w = 3/4, then w = 1/4)
        sys = lookup("wedge").system
        traj = make_traj([0.0, 0.1, 0.2, 0.3, 0.4], [[1.0, 1.0], [0.5, 0.8], [-0.4, 0.6],
                                                     [0.3, 0.4], [0.6, 0.2]], np.zeros((5, 2)))
        calls = []

        def counting(sys, t, x):
            calls.append(t)
            return project_point(sys, t, x)

        monkeypatch.setattr(diagnostics, "project_point", counting)
        gap = max_intergrid_gap(traj, sys)
        np.testing.assert_allclose(calls, [0.175, 0.225, 0.25], atol=1e-12)
        assert gap == pytest.approx(0.225, abs=1e-12)
        assert gap == intergrid_gap_scan(traj, sys)

    @pytest.mark.parametrize("check", [max_feasibility_gap, max_intergrid_gap])
    def test_failing_constraint_raises_with_its_id(self, check):
        def boom(t, q):
            raise FloatingPointError("nope")

        bad = ConstraintFunction(id=7, value=boom, gradient_q=lambda t, q: np.array([1.0]),
                                 dt=lambda t, q: 0.0)
        sys = ConstraintSystem(dim=1, constraints=(affine_constraint(1, [1.0]), bad))
        with pytest.raises(ConstraintEvaluationError) as err:
            check(make_traj([0, 1, 2], [1, 1, 1], [0, 0, 0]), sys)
        assert err.value.constraint_id == 7

    def test_sup_error_samples_final_time(self):
        times, positions = [0.0, 0.5, 1.0], [0.0, 1.0, 3.0]
        traj = make_traj(times, positions, [0, 2, 4])

        def reference(t):  # the interpolant itself, off by 0.25 at t = T only
            return (np.interp(t, times, positions) + np.where(t == 1.0, 0.25, 0.0))[:, None]

        assert interpolant_sup_error(traj, reference) == pytest.approx(0.25, abs=1e-12)

    def test_report_assembly(self):
        scn = lookup("floor")
        traj, contact = run(scn.system, scn.force, scn.q0, scn.u0, 0.02, scn.T)
        est = good_direction(scn.system, *scn.probe)
        report = diagnose(traj, contact, scn.system, scn.force, admiss=est)
        assert report.max_feasibility_gap <= 1e-8
        assert report.velocity_bound_ok
        assert report.momentum_residual <= 1e-8
        assert len(report.impacts) == 1
        assert report.constants.kappa0 is not None
        assert traj.nsteps == 100


def plain(x):
    """x with each array as (dtype, shape, list) and each dataclass as a dict:
    its repr then shows every float bit for bit."""
    if isinstance(x, np.ndarray):
        return x.dtype.str, x.shape, x.tolist()
    if dataclasses.is_dataclass(x):
        return {f.name: plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    return [plain(y) for y in x] if isinstance(x, list) else x


def report_from_public_functions(traj, contact, sys, force, admiss):
    return DiagnosticsReport(
        max_feasibility_gap=max_feasibility_gap(traj, sys),
        max_intergrid_gap=max_intergrid_gap(traj, sys),
        total_variation=total_variation(traj),
        sup_velocity=sup_velocity(traj),
        impacts=verify_impact_law(traj, sys, force.sup_F),
        constants=compute_constants(sys, admiss, traj.positions[0], traj.velocities[0], force,
                                    float(traj.times[1]), float(traj.times[-1])),
        velocity_bound_ok=velocity_bound_ok(traj, contact, sys),
        momentum_residual=momentum_residual(traj, contact),
    )


class TestDiagnoseSharesGridArrays:
    """diagnose builds each grid array once; its report is the public functions', bit for bit."""

    def assert_same_report(self, traj, contact, sys, force, admiss=None):
        report = diagnose(traj, contact, sys, force, admiss=admiss)
        expected = report_from_public_functions(traj, contact, sys, force, admiss)
        for field in dataclasses.fields(DiagnosticsReport):
            got, want = getattr(report, field.name), getattr(expected, field.name)
            assert repr(plain(got)) == repr(plain(want)), field.name

    @pytest.mark.parametrize("case", sorted(RUN_CASES))
    def test_golden_runs(self, case):
        sys, force, *_ = args = RUN_CASES[case]()
        traj, contact = run(*args)
        scn = registry().get(case.split("-")[0])  # None for the discs
        self.assert_same_report(traj, contact, sys, force,
                                scn and good_direction(sys, *scn.probe))

    @pytest.mark.parametrize("case", sorted(RUN_CASES))
    def test_momentum_sums_in_numpy_order(self, case):
        # the sums over the grid keep sum(axis=0)'s order: pairwise down one
        # column, row by row across several
        traj, contact = run(*RUN_CASES[case]())
        forcing = (np.diff(traj.times)[:, None] * contact.force_averages).sum(axis=0)
        lhs = (traj.velocities[-1] - traj.velocities[0] - forcing
               + contact.increments.sum(axis=0))
        assert repr(momentum_residual(traj, contact)) == repr(float(np.linalg.norm(lhs)))

    def test_infeasible_end(self):
        sys = lookup("wedge").system
        traj = make_traj([0.0, 0.1, 0.2, 0.3, 0.4], [[1.0, 1.0], [0.5, 0.8], [-0.4, 0.6],
                                                     [0.3, 0.4], [0.6, 0.2]], np.zeros((5, 2)))
        zeros = np.zeros((4, 2))
        contact = ContactMeasure(increments=zeros, multipliers=zeros, residuals=np.zeros(4),
                                 force_averages=zeros)
        assert diagnose(traj, contact, sys, zero_force(2)).max_intergrid_gap > 0.0
        self.assert_same_report(traj, contact, sys, zero_force(2))


class TestDetectImpacts:
    def test_windows_merge_adjacent_steps(self):
        scn = lookup("floor")
        traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, 0.02, scn.T)
        windows = detect_impacts(traj, scn.system, sup_force=10.0)
        assert len(windows) == 1
        a, b = windows[0]
        assert b - a <= 2

    def test_forced_slide_is_not_an_impact(self):
        # the pocket from (0.3, 2.25) hits the disc at t = 0.509, slides along
        # it under gravity to t = 0.741, then lands on the floor at t = 0.976;
        # the slide's jumps, about h g each, stay below the run's thresholds,
        # while sup_force = 0 merges them into one impact with residual 0.885
        scn = lookup("pocket")
        traj, _ = run(scn.system, scn.force, np.array([0.3, 2.25]), np.zeros(2), 0.001, 1.5)
        sup_f = scn.force.sup_F
        assert detect_impacts(traj, scn.system, sup_force=sup_f) == [(508, 509), (975, 976)]
        assert max(ev.law_residual for ev in verify_impact_law(traj, scn.system, sup_f)) < 0.005
        assert detect_impacts(traj, scn.system, sup_force=0.0)[0] == (508, 740)

    def test_wedge_two_separate_events(self):
        scn = lookup("wedge")
        traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, 0.01, scn.T)
        windows = detect_impacts(traj, scn.system, sup_force=0.0)
        assert len(windows) == 2

    @pytest.mark.parametrize("sup_force, expected", [
        (1.0, [(0, 1), (7, 9)]),
        (0.0, [(0, 1), (3, 5), (7, 9)]),
    ])
    def test_windows_exact(self, sup_force, expected):
        # h = 1: seed 5 h sup_force, extension 1.5 h sup_force.  Runs of jumps
        # above the extension level in contact: steps 0-1 (from step 0), 3-5
        # (no jump above 5) and 7-9 (to the last step); the jump of 6 at step
        # 6 is off contact and seeds nothing.
        jumps = [2, 6, 0, 2, 2, 2, 6, 2, 6, 2]
        contact = [1, 1, 0, 1, 1, 1, 0, 1, 1, 1]
        traj = make_traj(range(11), [1] + [1 - c for c in contact],
                         np.cumsum([0] + jumps))
        assert detect_impacts(traj, lookup("floor").system, sup_force=sup_force) == expected


def forces(*values):
    """A ContactMeasure carrying only the per-step forces f^n of a 1-D run."""
    f = np.asarray(values, dtype=float)[:, None]
    return ContactMeasure(increments=np.zeros_like(f), multipliers=np.zeros((len(f), 1)),
                          residuals=np.zeros(len(f)), force_averages=f)


class TestVelocityBound:
    """|u^{n+1}| <= 2 |u^n + h f^n| + c0 on hand-built runs with h = 1, c0 = 0."""

    @pytest.mark.parametrize("u_last, ok", [(8.0, True), (9.0, False)])
    def test_only_last_step_breaks_bound(self, u_last, ok):
        traj = make_traj([0, 1, 2, 3], [0, 0, 0, 0], [0, 2, 4, u_last])
        assert velocity_bound_ok(traj, forces(1, 0, 0), half_space_1d()) is ok

    @pytest.mark.parametrize("f, ok", [((1, 0), True), ((0, 1), False)])
    def test_step_uses_force_at_its_start(self, f, ok):
        # reading f^{n+1} in place of f^n flips the first step's verdict in both cases
        traj = make_traj([0, 1, 2], [0, 0, 0], [0, 2, 4])
        assert velocity_bound_ok(traj, forces(*f), half_space_1d()) is ok
