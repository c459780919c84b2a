import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxsweep import (ConstraintEvaluationError, ConstraintFunction, ConstraintSystem,
                       ForceField, InvalidConstantsError, active_set, affine_constraint,
                       compute_constants, good_direction, velocity_polyhedron)
from proxsweep.diagnostics import COVERING_RADIUS
from proxsweep.geometry import activity_tolerance
from proxsweep.scenarios import lookup

from conftest import (antipodal_pair, disc_complement, floor_2d, half_space_1d,
                      reverse_triangle_constant, sample_boundary, sample_feasible,
                      sample_normal)
from oracles import hypomonotonicity_residual, membership


class TestActiveSet:
    def test_boundary_point_is_active(self):
        sys = half_space_1d()
        assert active_set(sys, 0.0, np.array([0.0]), 0.0) == (1,)

    def test_interior_point_is_inactive(self):
        sys = half_space_1d()
        assert active_set(sys, 0.0, np.array([0.5]), 0.0) == ()

    def test_rho_threshold_includes_near_active(self):
        sys = lookup("wedge").system
        assert active_set(sys, 0.0, np.array([0.0, 0.05]), rho=0.1) == (1, 2)

    @given(rhos=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
           q=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)))
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_rho(self, rhos, q):
        sys = lookup("wedge").system
        r1, r2 = sorted(rhos)
        small = active_set(sys, 0.0, np.array(q), r1)
        large = active_set(sys, 0.0, np.array(q), r2)
        assert set(small) <= set(large)

    def test_rho_below_tolerance_keeps_numerically_active(self):
        sys = lookup("wedge").system
        q = np.array([0.0, 1e-116])
        assert active_set(sys, 0.0, q, 1e-301) == active_set(sys, 0.0, q)

    def test_indices_sorted_despite_declaration_order(self):
        from proxsweep import ConstraintFunction, ConstraintSystem
        c2 = ConstraintFunction(id=2, value=lambda t, q: float(q[1]),
                                gradient_q=lambda t, q: np.array([0.0, 1.0]),
                                dt=lambda t, q: 0.0)
        c1 = ConstraintFunction(id=1, value=lambda t, q: float(q[0]),
                                gradient_q=lambda t, q: np.array([1.0, 0.0]),
                                dt=lambda t, q: 0.0)
        sys = ConstraintSystem(dim=2, constraints=(c2, c1))
        assert active_set(sys, 0.0, np.array([0.0, 0.0])) == (1, 2)

    def test_evaluation_failure_carries_id(self):
        def boom(t, q):
            raise FloatingPointError("nope")

        q = np.array([0.0])
        # a raise, a result of the wrong shape (3 gradient entries in d = 1), a
        # NaN value at a finite q, which least_distance would drop as satisfied,
        # or a non-finite gradient or dt there
        for what, field, bad, call in [
                ("value", "value", boom, lambda sys: active_set(sys, 0.0, q)),
                ("value", "value", lambda t, q: math.nan, lambda sys: sys.values(0.0, q)),
                ("gradient", "gradient_q", boom, lambda sys: sys.gradients(0.0, q)),
                ("gradient", "gradient_q", lambda t, q: np.ones(3),
                 lambda sys: sys.gradients(0.0, q)),
                ("gradient", "gradient_q", lambda t, q: np.array([math.nan]),
                 lambda sys: sys.gradients(0.0, q)),
                ("gradient", "gradient_q", lambda t, q: np.array([-math.inf]),
                 lambda sys: sys.gradients(0.0, q)),
                ("dt", "dt", boom, lambda sys: sys.dts(0.0, q)),
                ("dt", "dt", lambda t, q: math.nan, lambda sys: sys.dts(0.0, q))]:
            callables = {"value": lambda t, q: float(q[0]),
                         "gradient_q": lambda t, q: np.array([1.0]),
                         "dt": lambda t, q: 0.0, field: bad}
            sys = ConstraintSystem(dim=1, constraints=(ConstraintFunction(id=7, **callables),))
            with pytest.raises(ConstraintEvaluationError) as err:
                call(sys)
            assert (err.value.constraint_id, err.value.what) == (7, what)

    def test_duplicate_ids_rejected(self):
        # two walls sharing id 1 would share one multiplier and one activity flag
        left = ConstraintFunction(id=1, value=lambda t, q: float(q[0]),
                                  gradient_q=lambda t, q: np.array([1.0, 0.0]),
                                  dt=lambda t, q: 0.0)
        right = ConstraintFunction(id=1, value=lambda t, q: 10.0 - float(q[0]),
                                   gradient_q=lambda t, q: np.array([-1.0, 0.0]),
                                   dt=lambda t, q: 0.0)
        with pytest.raises(InvalidConstantsError, match=r"distinct, got \[1, 1\]"):
            ConstraintSystem(dim=2, constraints=(left, right))

    @pytest.mark.parametrize("cid", [0, -1, 2.5])
    def test_non_positive_integer_id_rejected(self, cid):
        # the CSV writer sets bit id - 1 of the active mask for each active constraint
        with pytest.raises(InvalidConstantsError, match="positive integers"):
            ConstraintSystem(dim=1, constraints=(affine_constraint(cid, [1.0]),))


class TestVelocityPolyhedron:
    def test_floor_row(self):
        poly = velocity_polyhedron(half_space_1d(), 0.0, np.array([0.0]))
        assert len(poly.offsets) == 1
        np.testing.assert_allclose(poly.normals, [[1.0]])
        np.testing.assert_allclose(poly.offsets, [0.0])
        assert membership(poly, np.array([0.5]))
        assert not membership(poly, np.array([-0.5]))

    def test_moving_wall_offset(self):
        scn = lookup("piston")
        poly = velocity_polyhedron(scn.system, 0.3, np.array([0.3]))
        np.testing.assert_allclose(poly.normals, [[1.0]])
        np.testing.assert_allclose(poly.offsets, [-1.0])
        assert membership(poly, np.array([1.0]))      # wall speed admissible
        assert not membership(poly, np.array([0.5]))  # slower than the wall

    def test_interior_point_whole_space(self):
        poly = velocity_polyhedron(half_space_1d(), 0.0, np.array([0.7]))
        assert len(poly.offsets) == 0
        assert membership(poly, np.array([-100.0]))

    @given(u=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
           w=st.tuples(st.floats(-3, 3), st.floats(-3, 3)))
    @settings(max_examples=60, deadline=None)
    def test_membership_midpoint_convex(self, u, w):
        sys = lookup("wedge").system
        poly = velocity_polyhedron(sys, 0.0, np.array([0.0, 0.0]))
        u, w = np.array(u), np.array(w)
        if membership(poly, u) and membership(poly, w):
            assert membership(poly, 0.5 * (u + w), tol=1e-9)


def moving_disc_and_floor(nonlinear_first: bool) -> ConstraintSystem:
    """Outside the unit disc centred at (t, 0), above a floor with an offset and a rate."""
    wall = ConstraintFunction(id=1, value=lambda t, q: float((q[0] - t) ** 2 + q[1] ** 2) - 1.0,
                              gradient_q=lambda t, q: np.array([2.0 * (q[0] - t), 2.0 * q[1]]),
                              dt=lambda t, q: -2.0 * (q[0] - t), hessian_bound=2.0)
    floor = affine_constraint(2, [0.0, 2.0], offset=0.25, rate=-0.5)
    return ConstraintSystem(dim=2, constraints=(wall, floor) if nonlinear_first else (floor, wall),
                            alpha=2.0, beta=2.0, hess_bound=2.0)


BATCHED = {**{name: lookup(name).system for name in ("floor", "wedge", "piston", "pocket", "free")},
           "disc-then-floor": moving_disc_and_floor(True),
           "floor-then-disc": moving_disc_and_floor(False)}


class TestBatchedEvaluation:
    """values on arrays, gradients and dts equal the per-point callables bit for bit."""

    @pytest.mark.parametrize("name", sorted(BATCHED))
    def test_values_match_value_at(self, name):
        sys = BATCHED[name]
        rng = np.random.default_rng(11)
        times = rng.uniform(0.0, 2.0, 40)
        points = rng.uniform(-3.0, 3.0, (40, sys.dim))

        def per_point(ts):
            return np.array([[c.value(t, q) for c in sys.constraints]
                             for t, q in zip(ts, points)]).reshape(len(points), sys.p)

        expected = per_point(times)
        np.testing.assert_array_equal(sys.values(times, points), expected)
        np.testing.assert_array_equal(sys.values(times[0], points), per_point([times[0]] * 40))
        for t, q, row in zip(times, points, expected):
            np.testing.assert_array_equal(sys.values(t, q), row)

    @pytest.mark.parametrize("name", sorted(BATCHED))
    def test_gradients_and_dts_match_callables(self, name):
        sys = BATCHED[name]
        rng = np.random.default_rng(12)
        for t, q in zip(rng.uniform(0.0, 2.0, 10), rng.uniform(-3.0, 3.0, (10, sys.dim))):
            grads = sys.gradients(t, q)
            assert grads.shape == (sys.p, sys.dim)
            for row, c in zip(grads, sys.constraints):
                np.testing.assert_array_equal(row, c.gradient_q(t, q))
            np.testing.assert_array_equal(sys.dts(t, q), [c.dt(t, q) for c in sys.constraints])

    def test_affine_constraint_formula(self):
        con = affine_constraint(3, [2.0, -1.0], offset=0.5, rate=-4.0)
        q = np.array([1.5, 0.25])
        assert con.value(0.5, q) == 2.0 * 1.5 - 0.25 + 0.5 - 4.0 * 0.5
        np.testing.assert_array_equal(con.gradient_q(0.5, q), [2.0, -1.0])
        assert con.dt(0.5, q) == -4.0
        assert con.hessian_bound == 0.0

    def test_normal_length_must_match_dim(self):
        with pytest.raises(InvalidConstantsError, match="constraint 1: normal has length 1"):
            ConstraintSystem(dim=2, constraints=(affine_constraint(1, [1.0]),))

    def test_axis_rows(self):
        # (j, a_j, b, r) per row when no row has two nonzero coefficients; a
        # zero row reads a_0 = 0; None with an oblique row or a callable
        sys = ConstraintSystem(2, (affine_constraint(1, [0.0, -2.0], offset=0.5, rate=1.5),
                                   affine_constraint(2, [0.0, 0.0], offset=1.0)))
        assert sys.axis_rows == ((1, -2.0, 0.5, 1.5), (0, 0.0, 1.0, 0.0))
        assert lookup("free").system.axis_rows == ()
        assert lookup("pocket").system.axis_rows is None
        assert ConstraintSystem(2, (affine_constraint(1, [1.0, 1.0]),)).axis_rows is None

    def test_activity_tolerance_rows_are_one_dimensional_norms(self):
        rng = np.random.default_rng(13)
        points = rng.uniform(-3.0, 3.0, (2000, 3))
        expected = [1e-8 * (1.0 + np.linalg.norm(q)) for q in points]
        np.testing.assert_array_equal(activity_tolerance(points), expected)
        # the row norm that the axis=1 form computes differs on some of these rows
        assert np.any(1e-8 * (1.0 + np.linalg.norm(points, axis=1)) != expected)


class TestGridValues:
    """values on points (m, d) is (m, p) stored column by column, as run()
    stores its grid, and equals the point path bit for bit."""

    # a still set, a shifted one (piston), callables (pocket), p = 0 (free),
    # and points stored either way, at one time and at one time per point
    @pytest.mark.parametrize("name", ["floor", "wedge", "piston", "pocket", "free",
                                      "disc-then-floor"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_values_column_major(self, name, order):
        sys = BATCHED[name]
        rng = np.random.default_rng(14)
        times = rng.uniform(0.0, 2.0, 30)
        points = np.asarray(rng.uniform(-3.0, 3.0, (30, sys.dim)), order=order)
        for t in (times, times[0]):
            g = sys.values(t, points)
            assert g.shape == (30, sys.p) and g.flags.f_contiguous
            rows = [sys.values(s, q) for s, q in zip(np.broadcast_to(t, 30), points)]
            assert g.tobytes() == np.array(rows).reshape(30, sys.p).tobytes()


class TestConstraintDerivatives:
    """Analytic derivatives must match finite differences of the values."""

    @pytest.mark.parametrize("name", ["floor", "wedge", "piston", "pocket"])
    def test_gradient_matches_fd(self, name):
        scn = lookup(name)
        rng = np.random.default_rng(5)
        for _ in range(25):
            t, x = sample_boundary(name, rng)
            q = x + rng.normal(scale=0.05, size=scn.dim)
            eps = 1e-6 * (1.0 + np.linalg.norm(q))
            for con in scn.system.constraints:
                grad = con.gradient_q(t, q)
                for j in range(scn.dim):
                    e = np.zeros(scn.dim)
                    e[j] = eps
                    fd = (con.value(t, q + e) - con.value(t, q - e)) / (2 * eps)
                    assert fd == pytest.approx(grad[j], rel=1e-5, abs=1e-7)
                fd_t = (con.value(t + eps, q) - con.value(t - eps, q)) / (2 * eps)
                assert fd_t == pytest.approx(con.dt(t, q), rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("name", ["floor", "wedge", "piston", "pocket"])
    def test_gradient_norms_within_alpha_beta(self, name):
        scn = lookup(name)
        rng = np.random.default_rng(6)
        for _ in range(40):
            t, x = sample_boundary(name, rng)
            for con in scn.system.constraints:
                if abs(con.value(t, x)) > 1e-9:
                    continue  # this sample sits on another constraint's boundary
                norm = np.linalg.norm(con.gradient_q(t, x))
                assert scn.system.alpha - 1e-9 <= norm <= scn.system.beta + 1e-9


class TestProxConstant:
    # without an explicit eta, ConstraintSystem sets it to alpha / hess_bound
    def test_ratio(self):
        assert disc_complement().eta == pytest.approx(1.0)
        sys2 = ConstraintSystem(dim=1, constraints=(), alpha=1.0, hess_bound=2.0)
        assert sys2.eta == pytest.approx(0.5)

    def test_convex_set_uncapped(self):
        # M = 0, a convex set, has an infinite tube, and a tiny M its plain ratio
        assert half_space_1d().eta == math.inf
        assert ConstraintSystem(dim=1, constraints=(), hess_bound=1e-9).eta == 1 / 1e-9

    # with an explicit eta, the default is never computed: the alpha and
    # hess_bound checks must not depend on it
    @pytest.mark.parametrize("field, value, eta", [
        ("alpha", -1.0, None), ("dim", 0, None), ("lipschitz_c0", -1.0, None),
        ("hess_bound", -1.0, None), ("alpha", -1.0, 1.0), ("hess_bound", -1.0, 1.0),
        ("kappa", 0.0, None), ("kappa", -1.0, 1.0),
    ], ids=["alpha--1.0", "dim-0", "lipschitz_c0--1.0", "hess_bound--1.0",
            "alpha--1.0-eta", "hess_bound--1.0-eta", "kappa-0.0", "kappa--1.0-eta"])
    def test_invalid_constants(self, field, value, eta):
        with pytest.raises(InvalidConstantsError):
            ConstraintSystem(**{"dim": 1, "constraints": (), "eta": eta, field: value})

    # beta = 0 used to divide by zero in run()'s margin check and beta < 0 to
    # invert it; eta <= 0 or NaN aborted every contact step as a tube exit;
    # sup_F < 0 was a math domain error in compute_constants
    @pytest.mark.parametrize("make, message", [
        pytest.param(lambda: ConstraintSystem(dim=1, constraints=(), beta=0.0),
                     "beta must be > 0, got 0.0", id="beta=0"),
        pytest.param(lambda: ConstraintSystem(dim=1, constraints=(), beta=-1.0),
                     "beta must be > 0, got -1.0", id="beta=-1"),
        pytest.param(lambda: ConstraintSystem(dim=1, constraints=(), eta=0.0),
                     "eta must be > 0, got 0.0", id="eta=0"),
        pytest.param(lambda: ConstraintSystem(dim=1, constraints=(), eta=-1.0),
                     "eta must be > 0, got -1.0", id="eta=-1"),
        pytest.param(lambda: ConstraintSystem(dim=1, constraints=(), eta=math.nan),
                     "eta must be > 0, got nan", id="eta=nan"),
        # a NaN offset used to leave the wall out of every projection
        pytest.param(lambda: affine_constraint(3, [1.0], offset=math.nan),
                     r"constraint 3: normal, offset and rate must be finite, got \[1.\], nan",
                     id="affine-offset-nan"),
        pytest.param(lambda: ForceField(f=lambda t, q: q, sup_F=-1.0),
                     "sup_F must be >= 0, got -1.0", id="sup_F=-1"),
        pytest.param(lambda: ForceField(f=lambda t, q: q, sup_F=math.nan),
                     "sup_F must be >= 0, got nan", id="sup_F=nan"),
        # a constant force is checked once, when built: a non-finite entry, or
        # an envelope below its norm that would feed T0 and A(k)
        pytest.param(lambda: ForceField(f=np.array([0.0, math.nan]), sup_F=10.0),
                     r"got f = \[ 0. nan\], sup_F = 10.0", id="constant-nan"),
        pytest.param(lambda: ForceField(f=math.inf, sup_F=10.0),
                     r"got f = inf, sup_F = 10.0", id="constant-inf"),
        pytest.param(lambda: ForceField(f=np.array([-10.0])),
                     r"sup_F >= \|f\|, got f = \[-10.\], sup_F = 0.0", id="constant-sup_F=0"),
        pytest.param(lambda: ForceField(f=np.array([6.0, -8.0]), sup_F=9.0),
                     r"got f = \[ 6. -8.\], sup_F = 9.0", id="constant-sup_F-below-norm"),
        # a float has no length d: 10.0 taken in d = 2 would have norm 10 sqrt(2)
        pytest.param(lambda: ForceField(f=10.0, bound_F=lambda t: 10.0, sup_F=10.0),
                     r"a 1-D array .* got f = 10.0", id="constant-float-nonzero"),
        pytest.param(lambda: ForceField(f=np.array([-10.0]), sup_F=10.0),
                     r"got f = \[-10.\], sup_F = 10.0, bound_F\(0\) = 0.0",
                     id="constant-bound_F-below-norm"),
    ])
    def test_constants_rejected_at_construction(self, make, message):
        with pytest.raises(InvalidConstantsError, match=message):
            make()

    def test_constant_force_at_its_envelope_accepted(self):
        # 10 sqrt(3) rounds one ulp below the computed norm of three discs' gravity
        pull = np.tile([0.0, -10.0], 3)
        assert 10.0 * math.sqrt(3) < np.linalg.norm(pull)
        ForceField(f=pull, bound_F=lambda t: 10.0 * math.sqrt(3), sup_F=10.0 * math.sqrt(3))

    # a NaN alpha or hess_bound used to give eta = nan, which aborted the first
    # contact step as a tube exit; a NaN lipschitz_c0 gave kappa0 = nan
    @pytest.mark.parametrize("field, message, eta", [
        ("alpha", "alpha must be > 0, got nan", None),
        ("hess_bound", "hess_bound must be >= 0, got nan", None),
        ("lipschitz_c0", "lipschitz_c0 must be >= 0, got nan", None),
        ("alpha", "alpha must be > 0, got nan", 1.0),
        ("hess_bound", "hess_bound must be >= 0, got nan", 1.0),
        ("kappa", "kappa must be > 0, got nan", None),
    ], ids=["alpha", "hess_bound", "lipschitz_c0", "alpha-eta", "hess_bound-eta", "kappa"])
    def test_nan_constants_rejected(self, field, message, eta):
        wall = disc_complement().constraints
        with pytest.raises(InvalidConstantsError, match=message):
            ConstraintSystem(**{"dim": 2, "constraints": wall, "alpha": 2.0,
                                "hess_bound": 2.0, "eta": eta, field: math.nan})

    def test_disc_rolling_ball(self):
        # external unit balls touching the circle from inside the disc must
        # avoid the admissible set: B(x - x, 1) = B(0, 1) for |x| = 1
        sys = disc_complement()
        eta = sys.eta
        assert eta == pytest.approx(1.0)
        rng = np.random.default_rng(7)
        for _ in range(20):
            theta = rng.uniform(0, 2 * math.pi)
            x = np.array([math.cos(theta), math.sin(theta)])
            grad = sys.constraints[0].gradient_q(0.0, x)
            center = x + eta * (-grad / np.linalg.norm(grad))
            for _ in range(200):
                p = center + eta * 0.999 * _unit(rng, 2) * rng.uniform(0, 1)
                assert sys.constraints[0].value(0.0, p) < 0.0


def _unit(rng, d):
    v = rng.normal(size=d)
    return v / np.linalg.norm(v)


class TestReverseTriangle:
    def test_single_constraint_exact_one(self):
        sys = half_space_1d()
        assert reverse_triangle_constant(sys, 0.0, np.array([0.0])) == 1.0

    def test_empty_active_set_vacuous(self):
        sys = half_space_1d()
        assert reverse_triangle_constant(sys, 0.0, np.array([0.9])) == 1.0

    def test_orthogonal_pair_sqrt2(self):
        sys = lookup("wedge").system
        gamma = reverse_triangle_constant(sys, 0.0, np.array([0.0, 0.0]))
        assert gamma == pytest.approx(math.sqrt(2.0), abs=1e-3)

    def test_antipodal_failure(self):
        sys = antipodal_pair()
        assert reverse_triangle_constant(sys, 0.0, np.array([0.0, 0.5])) == math.inf

    def test_single_vanishing_gradient_fails_like_good_direction(self):
        # g = q1^2 is active at 0 with grad g = 0: no alpha > 0 bounds it below
        con = ConstraintFunction(1, lambda t, q: float(q[0] ** 2),
                                 lambda t, q: np.array([2.0 * q[0]]), lambda t, q: 0.0,
                                 hessian_bound=2.0)
        sys = ConstraintSystem(dim=1, constraints=(con,), hess_bound=2.0)
        assert reverse_triangle_constant(sys, 0.0, np.array([0.0])) == math.inf
        assert good_direction(sys, 0.0, np.array([0.0])) is None


class TestFiveConstraintCone:
    """Five planes through the origin with unit normals at angle theta to e3."""

    THETA = 0.6

    @pytest.fixture()
    def cone(self):
        cons = []
        for i in range(5):
            phi = 2.0 * math.pi * i / 5.0
            n = np.array([math.sin(self.THETA) * math.cos(phi),
                          math.sin(self.THETA) * math.sin(phi), math.cos(self.THETA)])
            cons.append(ConstraintFunction(id=i + 1, value=lambda t, q, n=n: float(n @ q),
                                           gradient_q=lambda t, q, n=n: n.copy(),
                                           dt=lambda t, q: 0.0))
        return ConstraintSystem(dim=3, constraints=tuple(cons))

    def test_reverse_triangle_closed_form(self, cone):
        gamma = reverse_triangle_constant(cone, 0.0, np.zeros(3))
        assert gamma == pytest.approx(1.0 / math.cos(self.THETA), abs=1e-12)

    def test_good_direction_closed_form(self, cone):
        est = good_direction(cone, 0.0, np.zeros(3))
        assert est.delta == pytest.approx(math.cos(self.THETA), abs=1e-12)
        np.testing.assert_allclose(est.direction, [0.0, 0.0, -1.0], atol=1e-12)


class TestGoodDirection:
    def test_planar_floor(self):
        est = good_direction(floor_2d(), 0.0, np.array([0.3, 0.0]))
        np.testing.assert_allclose(est.direction, [0.0, -1.0], atol=1e-9)
        assert est.delta == pytest.approx(1.0, abs=1e-9)

    def test_wedge_diagonal(self):
        est = good_direction(lookup("wedge").system, 0.0, np.array([0.0, 0.0]))
        np.testing.assert_allclose(est.direction,
                                   [-1 / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-9)
        assert est.delta == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_opposed_normals_fail(self):
        assert good_direction(antipodal_pair(), 0.0, np.array([0.0, 0.0])) is None

    @pytest.mark.parametrize("e, certified", [(1e-6, False), (3e-6, True)])
    def test_nearly_opposed_normals_singular_threshold(self, e, certified):
        # normals (1, 0) and (-1, e): |x*| = 2 / e, so delta ~ e / 2 against TOL_SINGULAR
        sys = ConstraintSystem(dim=2, constraints=(affine_constraint(1, [1.0, 0.0]),
                                                   affine_constraint(2, [-1.0, e])))
        est = good_direction(sys, 0.0, np.zeros(2))
        gamma = reverse_triangle_constant(sys, 0.0, np.zeros(2))
        if certified:
            assert est.delta == pytest.approx(e / 2, rel=1e-6)
            assert gamma == pytest.approx(2 / e, rel=1e-6)
        else:
            assert est is None
            assert gamma == math.inf

    def test_constants_formulas(self):
        scn = lookup("piston")
        est = good_direction(scn.system, 0.0, np.array([0.0]))
        rec = compute_constants(scn.system, est, scn.q0, scn.u0, scn.force, 0.01, scn.T)
        c0, delta = scn.system.lipschitz_c0, est.delta
        assert rec.kappa0 == c0 / delta + 1.0
        expected = min(scn.system.eta * delta / (2 * rec.kappa0 + 2 * c0 + delta) ** 2,
                       COVERING_RADIUS / (2 * (c0 + delta + 2 * rec.kappa0)))
        assert rec.nu_min == expected

    @pytest.mark.parametrize("name", ["floor", "wedge", "piston", "pocket"])
    def test_certificate_self_check(self, name):
        scn = lookup(name)
        rng = np.random.default_rng(11)
        for _ in range(20):
            t, x = sample_boundary(name, rng)
            est = good_direction(scn.system, t, x)
            assert est is not None
            for con in scn.system.constraints:
                if con.value(t, x) > 1e-8:
                    continue
                n = con.gradient_q(t, x)
                assert est.direction @ (-n) >= est.delta * np.linalg.norm(n) - 1e-9


class TestHypomonotonicity:
    def test_zero_normal(self):
        sys = half_space_1d()
        assert hypomonotonicity_residual(sys, 0.0, np.array([0.0]),
                                         np.array([1.0]), np.array([0.0])) == 0.0

    def test_half_space_convex(self):
        sys = half_space_1d()
        res = hypomonotonicity_residual(sys, 0.0, np.array([0.0]),
                                        np.array([1.0]), np.array([-1.0]))
        assert res <= 0.0
        assert res == pytest.approx(-1.0, abs=1e-6)

    def test_disc_theta_sweep(self):
        sys = disc_complement()
        x = np.array([1.0, 0.0])
        for lam in (0.5, 1.0, 3.0):
            v = lam * np.array([-1.0, 0.0])
            for theta in np.linspace(0.0, 2 * math.pi, 720):
                y = np.array([math.cos(theta), math.sin(theta)])
                assert hypomonotonicity_residual(sys, 0.0, x, y, v) <= 1e-9

    @pytest.mark.parametrize("name", ["floor", "wedge", "piston", "pocket"])
    def test_sampled_triples(self, name):
        sys = lookup(name).system
        rng = np.random.default_rng(13)
        for _ in range(200):
            t, x = sample_boundary(name, rng)
            y = sample_feasible(name, rng, t)
            v = sample_normal(sys, t, x, rng)
            assert hypomonotonicity_residual(sys, t, x, y, v) <= 1e-9


class TestConePolarity:
    """Tangent directions and proximal normals make obtuse angles; violators don't."""

    @pytest.mark.parametrize("name", ["floor", "wedge", "piston", "pocket"])
    def test_polar_pairing(self, name):
        sys = lookup(name).system
        rng = np.random.default_rng(17)
        for _ in range(50):
            t, x = sample_boundary(name, rng)
            poly = velocity_polyhedron(sys, t, x)
            gens = -poly.normals  # generators of the proximal normal cone
            if len(poly.offsets) == 0:
                continue
            u = rng.normal(size=sys.dim)
            static_res = poly.normals @ u  # zero-offset rows
            if np.all(static_res >= 0.0):
                for k in range(gens.shape[0]):
                    assert u @ gens[k] <= 1e-9
            else:
                worst = int(np.argmin(static_res))
                assert u @ gens[worst] > 0.0
