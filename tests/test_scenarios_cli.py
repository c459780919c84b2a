import json
import math
import re
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from proxsweep import (ConfigError, ConstraintEvaluationError, ConstraintSystem, active_set,
                       cli, diagnose, diagnostics, run, scenarios)
from proxsweep.cli import main, read_config_file
from proxsweep.scenarios import BUILDERS, lookup

from conftest import run_child
from oracles import analytic_reference


class TestRegistry:
    def test_contains_required_scenarios(self, scenarios):
        assert {"floor", "wedge", "piston", "pocket", "free"} <= set(scenarios)
        assert all(scn.name == name for name, scn in scenarios.items())

    def test_lookup_builds_only_the_named_scenario(self, monkeypatch):
        # every other builder raises, the pocket's by its module name too
        def boom():
            raise AssertionError("built a scenario that was not asked for")

        monkeypatch.setattr(scenarios, "_make_pocket", boom)
        for name in set(scenarios.BUILDERS) - {"floor"}:
            monkeypatch.setitem(scenarios.BUILDERS, name, boom)
        scn = lookup("floor")
        assert scn.name == "floor" and lookup("floor") is not scn

    def test_floor_constants(self):
        scn = lookup("floor")
        s = scn.system
        assert (s.alpha, s.beta, s.hess_bound, s.lipschitz_c0) == (1.0, 1.0, 0.0, 0.0)
        assert s.eta == math.inf  # a convex set: alpha / M with M = 0

    def test_piston_lipschitz(self):
        # Hausdorff distance of translated half-lines is |v_w dt|
        assert lookup("piston").system.lipschitz_c0 == 1.0

    def test_piston_lipschitz_matches_sampled_hausdorff(self):
        # C(t) = [t, inf): one-sided distances are max(0, s - q) for q >= t,
        # so the sampled Hausdorff distance must come out |t - s| exactly
        c0 = lookup("piston").system.lipschitz_c0
        for t, s in [(0.0, 0.3), (1.0, 0.25), (0.7, 0.7)]:
            qs = np.linspace(t, t + 3.0, 301)
            one_way = np.max(np.maximum(0.0, s - qs))
            qs_back = np.linspace(s, s + 3.0, 301)
            other_way = np.max(np.maximum(0.0, t - qs_back))
            assert max(one_way, other_way) == pytest.approx(c0 * abs(t - s), abs=1e-12)

    def test_pocket_prox_constant(self):
        # the unit disc's exterior is prox-regular with eta = 1, its radius;
        # |grad g| = 2 on the wall and on the floor
        s = lookup("pocket").system
        assert (s.beta, s.eta) == (2.0, 1.0)

    # each scenario's data as built before the axis scenarios were derived from
    # one wall table: rows by repr so that signs of zero count, then (affine,
    # still, eta, beta, c0), the force's (value, average, sup_F, bound_F(0)),
    # the probe and (q0, u0, T), arrays as lists
    PINNED = {
        "floor": ("((0, 1.0, 0.0, 0.0),)", (True, True, math.inf, 1.0, 0.0),
                  ("[-10.0]", "[-10.000000000000002]", 10.0, 10.0), (0.0, "[0.0]"),
                  ("[1.25]", "[0.0]", 2.0)),
        "wedge": ("((0, 1.0, 0.0, 0.0), (1, 1.0, 0.0, 0.0))", (True, True, math.inf, 1.0, 0.0),
                  ("[0.0, 0.0]", "[0.0, 0.0]", 0.0, 0.0), (0.0, "[0.0, 0.0]"),
                  ("[1.0, 1.0]", "[-2.0, -3.0]", 1.0)),
        "piston": ("((0, 1.0, 0.0, -1.0),)", (True, False, math.inf, 1.0, 1.0),
                   ("[0.0]", "[0.0]", 0.0, 0.0), (0.0, "[0.0]"), ("[1.0]", "[-0.5]", 2.0)),
        "pocket": ("None", (False, False, 1.0, 2.0, 0.0),
                   ("[0.0, -10.0]", "[0.0, -10.000000000000002]", 10.0, 10.0), (0.0, "[0.0, 1.0]"),
                   ("[0.0, 2.25]", "[0.0, 0.0]", 1.0)),
        "free": ("()", (True, True, math.inf, 1.0, 0.0),
                 ("[0.0]", "[0.0]", 0.0, 0.0), (0.0, "[1.0]"), ("[1.0]", "[-1.0]", 2.0)),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_scenario_data_pinned(self, name):
        scn = lookup(name)
        s, f = scn.system, scn.force
        rows, constants, force, probe, start = self.PINNED[name]
        assert repr(s.axis_rows) == rows
        assert (s.affine, s.still, s.eta, s.beta, s.lipschitz_c0) == constants
        assert (repr(f(0.0, scn.q0).tolist()), repr(f._average.tolist()), f.sup_F,
                f.bound_F(0.0)) == force
        assert (scn.probe[0], repr(scn.probe[1].tolist())) == probe
        assert (repr(scn.q0.tolist()), repr(scn.u0.tolist()), scn.T) == start

    def test_two_moving_walls_lipschitz(self):
        # C(t) = [3t, inf) x [4t, inf): the corner of C(0) is |(3, 4)| = 5 from
        # C(1), and no point moves further, so c0 = |v|, not max |v_i| = 4
        scn = scenarios._walls("corner", g=[0.0, 0.0], c=[0.0, 0.0], v=[3.0, 4.0],
                               q0=[1.0, 1.0], u0=[0.0, 0.0], T=1.0)
        assert scn.system.lipschitz_c0 == 5.0
        np.testing.assert_array_equal(scn.probe[1], [0.0, 0.0])

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            lookup("banana")

    @pytest.mark.parametrize("name", ["floor", "wedge", "piston", "pocket", "free"])
    def test_defaults_strictly_interior(self, name):
        scn = lookup(name)
        if scn.system.p:
            assert np.min(scn.system.values(0.0, scn.q0)) > 0.0

    @pytest.mark.parametrize("name", ["floor", "wedge", "piston", "pocket", "free"])
    def test_analytic_reference_feasible(self, name):
        scn = lookup(name)
        ref = scn.reference()
        assert ref is not None
        ts = np.linspace(0.0, scn.T, 37)
        q = ref(ts)
        assert q.shape == (37, scn.dim)
        assert np.all(scn.system.values(ts, q) >= -1e-12)

    def test_reference_rejects_invalid_overrides(self):
        scn = lookup("pocket")
        assert scn.reference(q0=[0.5, 2.0]) is None  # off the symmetry axis


class TestWallReference:
    """The one closed form behind every scenario reference, against the
    independent scalar oracles of tests/oracles.py on arrays of times."""

    TIMES = np.linspace(0.0, 3.0, 61)

    @pytest.mark.parametrize("scenario, oracle, q0, u0, params", [
        ("floor", "floor-bounce", 1.25, 0.0, {"g_grav": 10.0}),
        ("floor", "floor-bounce", 0.3, 4.0, {"g_grav": 10.0}),   # thrown up first
        ("floor", "floor-bounce", 2.0, -3.0, {"g_grav": 10.0}),
        ("free", "free", 1.0, -1.0, {}),
        ("free", "free", -4.0, 2.5, {}),
        ("piston", "piston-pursuit", 1.0, -0.5, {"v_w": 1.0}),  # caught, then carried
        ("piston", "piston-pursuit", 0.2, 0.5, {"v_w": 1.0}),   # caught from behind
        ("piston", "piston-pursuit", 1.0, 1.5, {"v_w": 1.0}),   # outruns the wall
        ("piston", "piston-pursuit", 1.0, 1.0, {"v_w": 1.0}),   # keeps its lead
    ], ids=["floor-drop", "floor-thrown-up", "floor-thrown-down", "free", "free-rising",
            "piston-caught", "piston-caught-from-behind", "piston-outrun", "piston-level"])
    def test_matches_oracle(self, scenario, oracle, q0, u0, params):
        got = lookup(scenario).reference([q0], [u0])(self.TIMES)
        want = [analytic_reference(oracle, {"q0": q0, "u0": u0, **params}, float(t))[0]
                for t in self.TIMES]
        assert got.shape == (len(self.TIMES), 1)
        np.testing.assert_allclose(got[:, 0], want, rtol=0.0, atol=1e-12)

    def test_wedge_and_pocket_per_coordinate(self):
        # each wedge coordinate is a force-free piston with a fixed wall; the
        # pocket's height is a floor bounce shifted up to the pole
        got = lookup("wedge").reference([1.0, 2.0], [-2.0, 1.0])(self.TIMES)
        for i, (q0, u0) in enumerate([(1.0, -2.0), (2.0, 1.0)]):
            want = [max(q0 + u0 * t, 0.0) for t in self.TIMES]
            np.testing.assert_allclose(got[:, i], want, rtol=0.0, atol=1e-12)
        got = lookup("pocket").reference([0.0, 2.25], [0.0, 1.0])(self.TIMES)
        want = [1.0 + analytic_reference("floor-bounce", {"q0": 1.25, "u0": 1.0}, float(t))[0]
                for t in self.TIMES]
        assert np.all(got[:, 0] == 0.0)
        np.testing.assert_allclose(got[:, 1], want, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("scenario, q0", [
        ("floor", [-0.5]), ("piston", [-1.0]), ("wedge", [1.0, -2.0]), ("pocket", [0.0, 0.5]),
        ("floor", [1.0, 1.0]),
    ], ids=["floor-below", "piston-below", "wedge-below", "pocket-below", "floor-wrong-length"])
    def test_none_outside_validity(self, scenario, q0):
        assert lookup(scenario).reference(q0, np.zeros(len(q0))) is None

    # a start at rest on a wall stays on it: the piston's wall carries it at
    # speed 1, and the wedge's q2 = 1 is off its wall, so it stays put too
    @pytest.mark.parametrize("scenario, q0, speed", [
        ("floor", [0.0], [0.0]), ("piston", [0.0], [1.0]), ("wedge", [0.0, 1.0], [0.0, 0.0]),
        ("pocket", [0.0, 1.0], [0.0, 0.0]),
    ], ids=["floor-on", "piston-on", "wedge-on", "pocket-on"])
    def test_start_on_wall(self, scenario, q0, speed):
        got = lookup(scenario).reference(q0, np.zeros(len(q0)))(self.TIMES)
        np.testing.assert_array_equal(got, q0 + np.outer(self.TIMES, speed))


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nscenario=piston\nh=0.02\nq0=1.5\nsweep=0.04,0.02\n")
        values = read_config_file(str(cfg))
        assert values == {"scenario": "piston", "h": "0.02", "q0": "1.5",
                          "sweep": "0.04,0.02"}

    def test_bad_line(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scenario piston\n")
        with pytest.raises(ConfigError):
            read_config_file(str(cfg))


    @pytest.mark.parametrize("key, value, as_flag", [
        pytest.param("h", "abc", False, id="h"),
        pytest.param("T", "abc", False, id="T"),
        pytest.param("h", "abc", True, id="flag-h"),
        pytest.param("T", "x", True, id="flag-T"),
    ])
    def test_unparsable_float_is_config_error(self, tmp_path, capsys, key, value, as_flag):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scenario=floor\n" + ("" if as_flag else f"{key}={value}\n"))
        flags = [f"--{key}", value] if as_flag else []
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x")] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and f"{key}={value!r}" in err

    @pytest.mark.parametrize("line", ["verify=ture", "json_only=maybe"])
    def test_unparsable_bool_is_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"scenario=floor\nsweep=0.01,0.02\n{line}\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and line.replace("=", "='") + "'" in err
        assert list(tmp_path.iterdir()) == [cfg]  # no output file written

    @pytest.mark.parametrize("lines, flags, message", [
        ("colour=red", [], "unknown config key 'colour'"),
        ("", ["--colour", "red"], "unrecognized arguments: --colour red"),
        ("", ["--h"], "argument --h: expected one argument"),
        ("sweep=0.02,x", [], "cannot parse sweep='0.02,x'"),
        ("", ["--q0", "1,a"], "cannot parse q0='1,a'"),
        ("", ["--h", "0"], "h must be > 0, got 0.0"),
        ("sweep=0.02,-0.01", [], "h must be > 0, got -0.01"),
        ("", ["--T", "0.01", "--h", "0.02"], "need T > h and T finite, got T=0.01, h=0.02"),
        ("T=inf", [], "need T > h and T finite, got T=inf, h=0.01"),
        ("scenario=wedge\nu0=1", [], "u0 must have length 2, got 1"),
        ("q0=nan", [], "q0 must be finite"),
        ("scenario=banana", [], "unknown scenario 'banana'"),
        ("J=-2", [], "unknown config key 'J'"),  # the horizon constant J is no setting
        ("", ["--J=-2"], "unrecognized arguments: --J=-2"),
        ("jump_tol=0.5", [], "unknown config key 'jump_tol'"),
        ("verify", [], "run.cfg:1: expected key=value, got 'verify\\n'"),
    ], ids=["unknown-key", "unknown-flag", "missing-flag-value", "bad-float-list",
            "bad-flag-vector", "h-zero", "sweep-h-negative", "T-below-h", "T-infinite",
            "vector-length", "q0-nan", "unknown-scenario", "J-negative", "flag-J-negative",
            "jump_tol-unknown", "no-equals"])
    def test_config_errors_exit_1(self, tmp_path, capsys, lines, flags, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines + "\n")
        assert main(["--config", str(cfg), "--out", str(tmp_path / "x")] + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unreadable_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "missing.cfg")]) == 1
        assert capsys.readouterr().err.startswith("config error: cannot read config file ")

    def test_every_key_from_file_equals_flags(self, tmp_path):
        settings = {"scenario": "wedge", "h": "0.02", "T": "0.6", "q0": "1.5,1.25",
                    "u0": "-2,-3", "sweep": "0.04,0.02", "verify": "yes",
                    "json_only": "TRUE"}
        from_file = tmp_path / "all.cfg"
        from_file.write_text("".join(f"{k}={v}\n" for k, v in settings.items())
                             + f"out={tmp_path / 'file'}\n")
        flags = ["--out", str(tmp_path / "flag"), "--verify", "--json-only"]
        for key in ("scenario", "h", "T", "q0", "u0", "sweep"):
            flags.append(f"--{key}={settings[key]}")  # "=" lets a value start with "-"
        assert main(["--config", str(from_file)]) == 0
        assert main(flags) == 0
        for suffix in ("_h0.04.json", "_h0.02.json", ".json"):
            assert ((tmp_path / f"file{suffix}").read_bytes()
                    == (tmp_path / f"flag{suffix}").read_bytes()), suffix
        assert not list(tmp_path.glob("*.csv"))

    def test_readme_flags_match_parser(self):
        # a setting removed from the parser cannot stay documented, nor the reverse
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listed = re.search(r"Flags: `([^`]*)`", readme).group(1).split()
        options = [s for a in cli.build_parser()._actions for s in a.option_strings]
        assert listed == [s for s in options if s not in ("-h", "--help")]

    def test_readme_scenarios_match_registry(self):
        # the scenario table lists exactly the built-in scenarios, in order
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("## Scenarios", 1)[1].split("\n\n", 2)[1]
        listed = [line.split("|")[1].strip() for line in table.splitlines()[2:]]
        assert listed == list(BUILDERS)


class TestCliExitCodes:
    def test_happy_path(self, tmp_path):
        out = tmp_path / "run1"
        rc = main(["--scenario", "floor", "--h", "0.01", "--T", "2", "--out", str(out)])
        assert rc == 0
        assert out.with_suffix(".csv").exists()
        assert out.with_suffix(".json").exists()

    # stems are out_h{h:g}: two values alike to 6 digits would write one pair
    # of files twice, so the sweep is refused before any run or file
    @pytest.mark.parametrize("sweep", ["0.01,0.01", "0.0100000001,0.01"])
    def test_sweep_repeated_stem(self, sweep, tmp_path, capsys):
        rc = main(["--scenario", "floor", "--sweep", sweep, "--out", str(tmp_path / "o" / "s")])
        assert rc == 1
        assert "repeat an output stem" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unwritable_out(self, tmp_path, capsys):
        # the directory of --out is an existing file, so it cannot be made
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        rc = main(["--scenario", "floor", "--out", str(blocker / "run")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert list(tmp_path.iterdir()) == [blocker] and blocker.read_text() == "kept\n"

    def test_unknown_scenario(self):
        assert main(["--scenario", "nope"]) == 1

    def test_infeasible_start_names_constraint(self, tmp_path, capsys):
        rc = main(["--scenario", "floor", "--q0", "-1", "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_bad_vector_length(self, tmp_path):
        rc = main(["--scenario", "wedge", "--q0", "1", "--out", str(tmp_path / "x")])
        assert rc == 1

    def test_simulation_abort_is_exit_2(self, tmp_path):
        # the first step lands on the disc; the second's linearisation is infeasible
        rc = main(["--scenario", "pocket", "--u0", "0,-50", "--h", "0.04",
                   "--out", str(tmp_path / "x")])
        assert rc == 2

    def test_solver_error_is_exit_2(self, tmp_path, monkeypatch, capsys):
        # a ProxsweepError other than SimulationAbort, here from a constraint callable
        def failing_run(*args, **kwargs):
            raise ConstraintEvaluationError(1, "value")

        monkeypatch.setattr(cli, "run", failing_run)
        rc = main(["--scenario", "floor", "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (
            "simulation abort: constraint 1: failed to evaluate value\n")

    def test_tube_exit_is_exit_2(self, tmp_path, capsys):
        # the first prediction, (2, 0.5) + 0.04 (0, -60) + 0.04^2 (0, -10), lies
        # below the floor, 1.916 from its projection: farther than eta = 1
        rc = main(["--scenario", "pocket", "--q0=2,0.5", "--u0=0,-60", "--h", "0.04",
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == ("simulation abort at step 0: left prox-regular tube "
                                           "(distance 1.916 >= eta 1)\n")

    def test_boundary_start_verifies(self, tmp_path):
        # the floor from rest on the floor stays there at every h
        rc = main(["--scenario", "floor", "--q0", "0", "--sweep", "0.02,0.01,0.005", "--verify",
                   "--json-only", "--out", str(tmp_path / "b")])
        assert rc == 0

    def test_verify_sweep_green(self, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["--scenario", "floor", "--sweep", "0.04,0.02,0.01,0.005",
                   "--verify", "--json-only", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.with_suffix(".json").read_text())
        assert [row["h"] for row in payload["convergence"]] == [0.04, 0.02, 0.01, 0.005]

    def test_json_only_skips_csv(self, tmp_path):
        out = tmp_path / "jo"
        rc = main(["--scenario", "free", "--json-only", "--out", str(out)])
        assert rc == 0
        assert out.with_suffix(".json").exists()
        assert not out.with_suffix(".csv").exists()


class TestVerifyGate:
    def test_single_run_green(self, tmp_path):
        assert main(["--scenario", "floor", "--h", "0.01", "--verify", "--json-only",
                     "--out", str(tmp_path / "v")]) == 0

    def test_pocket_chord_exit_is_green(self, tmp_path, capsys):
        # the impact at t = 0.448 leaves along the disc's chord, 3.6e-3 off its
        # face: its law residual 9.98e-3 and criterion 9.29e-3 are both within
        # the bound 0.055, and the exit velocity is no false violation
        assert main(["--scenario", "pocket", "--q0=0.6,1.8", "--h", "0.001", "--T", "1.5",
                     "--verify", "--json-only", "--out", str(tmp_path / "p")]) == 0
        assert "verify:" not in capsys.readouterr().out

    def test_single_run_problems_are_exit_3(self, tmp_path, monkeypatch, capsys):
        def broken_diagnose(*args, **kwargs):
            report = diagnose(*args, **kwargs)
            event = replace(report.impacts[0], law_residual=1.0, variational_max=1.0)
            return replace(report, max_feasibility_gap=1e-6, velocity_bound_ok=False,
                           momentum_residual=1e-6, impacts=[event])

        monkeypatch.setattr(cli, "diagnose", broken_diagnose)
        rc = main(["--scenario", "floor", "--h", "0.01", "--verify", "--json-only",
                   "--out", str(tmp_path / "v")])
        assert rc == 3
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("verify: ")]
        assert [line.split()[1] for line in lines] == [
            "feasibility", "per-step", "momentum", "impact", "variational"]

    def test_sweep_error_increase_is_exit_3(self, tmp_path, capsys):
        # a coarsening sweep: the error grows from h = 0.01 to h = 0.02
        rc = main(["--scenario", "floor", "--sweep", "0.01,0.02", "--verify",
                   "--json-only", "--out", str(tmp_path / "s")])
        assert rc == 3
        assert "verify: error not strictly decreasing at h=0.02" in capsys.readouterr().out

    def test_sweep_exact_regime(self, tmp_path, capsys):
        # free flight is exact: its roundoff errors 5.6e-16, 4.4e-16, 2.2e-14 do
        # not decrease, and the gate must not read that as a failed convergence
        rc = main(["--scenario", "free", "--sweep", "0.02,0.01,0.005", "--verify",
                   "--json-only", "--out", str(tmp_path / "s")])
        assert rc == 0
        assert "verify:" not in capsys.readouterr().out

    @pytest.mark.parametrize("sweep", ["0.03,0.01", "0.025,0.0125", "0.015,0.0075",
                                       "0.007,0.0035"])
    def test_sweep_tv_at_roundoff(self, sweep, tmp_path, capsys):
        # free flight's TVs are rounding error, 1.78e-15 and 8.88e-16 at
        # 0.03,0.01: their relative spread is noise, not a varying TV(u)
        rc = main(["--scenario", "free", "--sweep", sweep, "--verify",
                   "--json-only", "--out", str(tmp_path / "s")])
        assert rc == 0
        assert "verify:" not in capsys.readouterr().out

    def test_sweep_checks(self):
        def reports(*pairs):
            return [SimpleNamespace(sup_velocity=s, total_variation=tv) for s, tv in pairs]

        rows = [{"h": 0.02, "err": 0.1}, {"h": 0.01, "err": 0.08}]
        assert cli._verify_sweep(reports((1.0, 1.0), (1.2, 1.5)), rows, True) == [
            "sup |u| varies by >= 10% over the sweep",
            "TV(u) varies by >= 25% over the sweep",
            "final error 0.08 > 0.05 vs analytic reference"]
        assert cli._verify_sweep(reports((1.0, 1.0), (1.0, 1.0)), rows, False) == []
        # TVs at the rounding level pass; a TV of 0 against a real one varies
        assert cli._verify_sweep(reports((1.0, 1.8e-15), (1.0, 8.9e-16)), rows, False) == []
        assert cli._verify_sweep(reports((1.0, 0.0), (1.0, 1.0)), rows, False) == [
            "TV(u) varies by >= 25% over the sweep"]


class TestOutputFiles:
    @pytest.fixture()
    def floor_run(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["--scenario", "floor", "--h", "0.02", "--T", "1",
                   "--out", str(out)])
        assert rc == 0
        return out

    def test_csv_shape_and_header(self, floor_run):
        lines = floor_run.with_suffix(".csv").read_text().splitlines()
        assert lines[0] == "t,q1,u1,knorm,active"
        assert len(lines) == 1 + 51  # header + N+1 rows

    def test_csv_active_bitmask(self, floor_run):
        lines = floor_run.with_suffix(".csv").read_text().splitlines()[1:]
        masks = [int(line.split(",")[-1]) for line in lines]
        heights = [float(line.split(",")[1]) for line in lines]
        for q, m in zip(heights, masks):
            assert m == (1 if abs(q) <= 1e-8 * (1 + abs(q)) else 0)

    def test_json_schema(self, floor_run):
        payload = json.loads(floor_run.with_suffix(".json").read_text())
        assert set(payload) == {"scenario", "h", "T", "max_feasibility_gap",
                                "total_variation", "sup_velocity", "impacts",
                                "constants", "convergence"}
        assert set(payload["constants"]) == {"kappa0", "nu_min", "T0"}
        for ev in payload["impacts"]:
            assert set(ev) == {"t", "u_minus", "u_plus", "residual"}

    def test_rerun_byte_identical(self, tmp_path):
        args = ["--scenario", "pocket", "--h", "0.02", "--T", "1"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.with_suffix(".csv").read_bytes() == out_b.with_suffix(".csv").read_bytes()
        assert out_a.with_suffix(".json").read_bytes() == out_b.with_suffix(".json").read_bytes()

    def test_csv_17_digit_roundtrip(self, floor_run):
        lines = floor_run.with_suffix(".csv").read_text().splitlines()[1:]
        # parse back and reproject: values must round-trip exactly
        scn = lookup("floor")
        traj, _ = run(scn.system, scn.force, scn.q0, scn.u0, 0.02, 1.0)
        for line, q in zip(lines, traj.positions):
            assert float(line.split(",")[1]) == q[0]


def last_active_height(head):
    """The largest y with y <= 1e-8 (1 + |(head, y)|): the last float at which
    a constraint g = y counts as active at (head, y)."""
    def tolerance(y):
        return 1e-8 * (1.0 + np.linalg.norm(np.append(head, y)))

    y = tolerance(tolerance(0.0))  # a fixed point up to roundoff
    while y > tolerance(y):
        y = np.nextafter(y, 0.0)
    while np.nextafter(y, 1.0) <= tolerance(np.nextafter(y, 1.0)):
        y = np.nextafter(y, 1.0)
    return y


def csv_masks(tmp_path, scn, traj, contact):
    """write_csv's active column from diagnose's mask, as the CLI writes it,
    and the masks active_set gives row by row."""
    path = tmp_path / "run.csv"
    report = diagnose(traj, contact, scn.system, scn.force)
    cli.write_csv(str(path), scn, traj, contact, report.active)
    masks = [int(line.rsplit(",", 1)[1]) for line in path.read_text().splitlines()[1:]]
    expected = [sum(1 << (cid - 1) for cid in active_set(scn.system, float(t), q))
                for t, q in zip(traj.times, traj.positions)]
    return masks, expected


class TestCsvActiveColumn:
    @pytest.mark.parametrize("name, head, bit", [("floor", [], 1), ("wedge", [1.5], 2)])
    def test_equals_active_set_per_row(self, tmp_path, name, head, bit):
        # a resting floor run and a wedge corner run, whose last two rows sit at
        # the activity tolerance and one float above it
        scn = lookup(name)
        traj, contact = run(scn.system, scn.force, scn.q0, scn.u0, 0.02, scn.T)
        y = last_active_height(head)
        traj.positions[-2:] = [head + [y], head + [np.nextafter(y, 1.0)]]
        masks, expected = csv_masks(tmp_path, scn, traj, contact)
        assert masks == expected
        assert masks[-2:] == [bit, 0]
        assert max(masks) == (1 if name == "floor" else 3)  # resting contact / the corner

    def test_mask_exact_past_float_precision(self, tmp_path):
        # id 70 names bit 69: the mask is a Python int, not a float rounded at 2^53
        scn = lookup("wedge")
        wall_x, wall_y = scn.system.constraints
        scn = replace(scn, system=replace(scn.system, constraints=(wall_x, replace(wall_y, id=70))))
        traj, contact = run(scn.system, scn.force, scn.q0, scn.u0, 0.02, scn.T)
        masks, expected = csv_masks(tmp_path, scn, traj, contact)
        assert masks == expected
        assert max(masks) == 1 + 2**69

    def test_pocket_equals_active_set_per_row(self, tmp_path):
        # the pocket from (0.3, 2) lands on the disc (id 1), slides along it
        # and then along the floor (id 2): the disc's values come from its
        # per-point callables, the floor's from its affine block
        scn = lookup("pocket")
        traj, contact = run(scn.system, scn.force, np.array([0.3, 2.0]), scn.u0, 0.001, 1.5)
        masks, expected = csv_masks(tmp_path, scn, traj, contact)
        assert masks == expected
        assert set(masks) == {0, 1, 2}

    def test_one_values_call(self, tmp_path, monkeypatch):
        # one grid evaluation per h, diagnose's, whose mask the CSV writes: the
        # CLI evaluates no constraint itself, for a single h and in a sweep
        shapes, values = [], ConstraintSystem.values
        monkeypatch.setattr(ConstraintSystem, "values",
                            lambda self, t, q: shapes.append(np.shape(q)) or values(self, t, q))
        for stem, args in [("one", ["--h", "0.01"]), ("sweep", ["--sweep", "0.02,0.01"])]:
            shapes.clear()
            assert main(["--scenario", "pocket", "--q0", "0.3,2", "--T", "1.5", *args,
                         "--out", str(tmp_path / stem)]) == 0
            rows = sorted(len(path.read_text().splitlines()) - 1
                          for path in tmp_path.glob(f"{stem}*.csv"))
            assert sorted(s for s in shapes if s in {(n, 2) for n in rows}) == [(n, 2) for n in rows]


class TestSweepExecution:
    def test_sweep_writes_per_run_files(self, tmp_path):
        out = tmp_path / "sw"
        rc = main(["--scenario", "free", "--sweep", "0.04,0.02", "--out", str(out)])
        assert rc == 0
        for h in ("0.04", "0.02"):
            assert (tmp_path / f"sw_h{h}.csv").exists()
            assert (tmp_path / f"sw_h{h}.json").exists()
        assert out.with_suffix(".json").exists()

    def test_sweep_rerun_byte_identical(self, tmp_path):
        args = ["--scenario", "pocket", "--sweep", "0.04,0.02", "--T", "1"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for suffix in ("_h0.04.csv", "_h0.02.csv", "_h0.04.json", "_h0.02.json", ".json"):
            assert ((tmp_path / f"a{suffix}").read_bytes()
                    == (tmp_path / f"b{suffix}").read_bytes()), suffix

    @pytest.mark.parametrize("args, runs", [
        (["--scenario", "floor"], 2),
        (["--scenario", "pocket", "--q0", "0.5,2.25"], 3),  # plus a reference run at h/2
    ], ids=["closed-form-reference", "reference-run"])
    def test_sweep_integrates_each_h_once(self, tmp_path, monkeypatch, args, runs):
        calls = []

        def counting_run(*a, **k):
            calls.append(a[4])
            return run(*a, **k)

        monkeypatch.setattr(cli, "run", counting_run)
        monkeypatch.setattr(diagnostics, "run", counting_run)
        rc = main(args + ["--sweep", "0.04,0.02", "--T", "1", "--json-only",
                          "--out", str(tmp_path / "s")])
        assert rc == 0
        assert sorted(calls) == sorted([0.04, 0.02, 0.01][:runs])

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("scenario=free\nh=0.04\nT=1\nout=%s\n" % (tmp_path / "cfgrun"))
        rc = main(["--config", str(cfg), "--h", "0.02"])
        assert rc == 0
        payload = json.loads((tmp_path / "cfgrun.json").read_text())
        assert payload["h"] == 0.02  # flag wins over file


# run in a fresh interpreter: the built-in sweeps, a run whose parallel
# active rows make every face Gram matrix at the floor singular, so its
# projections and impact checks go to the kernel's active-set loop, and one
# least-distance problem whose face solve fails the residual guard
COLD_START = """
import json, sys
import numpy as np
from proxsweep import ConstraintSystem, ForceField, affine_constraint, cli, run, verify_impact_law
from proxsweep.geometry import least_distance

codes = [cli.main(["--scenario", name, "--sweep", sweep, "--T", "1", "--verify",
                   "--out", f"{sys.argv[1]}/{name}"])
         for name, sweep in (("floor", "0.02,0.01"), ("wedge", "0.01,0.005"),
                             ("piston", "0.02,0.01"), ("pocket", "0.02,0.01"))]
floor = ConstraintSystem(dim=2, constraints=(affine_constraint(1, [0.0, 1.0]),
                                             affine_constraint(2, [0.0, 2.0])))
traj, _ = run(floor, ForceField(f=np.zeros(2)), np.array([0.0, 1.0]), np.array([0.5, -2.0]),
              0.01, 1.0)
events = verify_impact_law(traj, floor, sup_force=0.0)
x, _ = least_distance(np.array([[1.0, 0.0], [-1.0, 3e-6]]), np.array([1.0, 1.0]))
print(json.dumps({"codes": codes, "events": len(events), "x": x.tolist(),
                  "scipy": "scipy" in sys.modules}))
"""


def test_cold_start_never_loads_scipy(tmp_path):
    # no module of the package imports SciPy, on any path of the kernel
    done = run_child(COLD_START, str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["codes"] == [0, 0, 0, 0]
    assert result["events"] == 1
    np.testing.assert_allclose(result["x"], [1.0, 2 / 3e-6], rtol=1e-9)
    assert not result["scipy"]


# python -m proxsweep.cli in a fresh interpreter, then the modules it loaded
MAIN_IMPORTS = """
import json, runpy, sys
out = sys.argv[1]
sys.argv = ["proxsweep", "--scenario", "wedge", "--sweep", "0.0005,0.00025", "--verify",
            "--out", out + "/wedge"]
try:
    runpy.run_module("proxsweep.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "random": "numpy.random" in sys.modules}))
"""


def test_verified_sweep_does_not_import_numpy_random(tmp_path):
    # the impact law is checked without sampling, so no module draws a random number
    done = run_child(MAIN_IMPORTS, str(tmp_path))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result == {"code": 0, "random": False}
