"""Smoke tests: each example script runs from the checkout and prints its report,
the benchmark harness in perfbench/ still finds what it uses of the package, and
every name the package exports exists."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import proxsweep

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, expected", [
    ("convergence_table.py", ["--levels", "2", "--scenarios", "free,floor"],
     "        0.02    4.8000e-02    1.00"),
    ("drop_into_pocket.py", [], "pocket drop from height 2.25, h = 0.005"),
], ids=["convergence_table", "drop_into_pocket"])
def test_script_runs(script, args, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert expected in done.stdout.splitlines()


def _load_perfbench(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_perfbench_contract(monkeypatch):
    # a rename in the package would otherwise surface only in a traced benchmark run
    for target in _load_perfbench("spans", monkeypatch).TARGETS:
        module, function = target.split(".")
        assert callable(getattr(importlib.import_module(f"proxsweep.{module}"), function,
                                None)), target
    discs = _load_perfbench("discs", monkeypatch)
    system, force = discs.disc_system(3), discs.disc_force(3)
    assert (system.dim, system.p) == (6, 6)
    assert force.sup_F == pytest.approx(10.0 * 3 ** 0.5)


@pytest.mark.parametrize("workload", ["floor-sweep", "wedge-sweep"])
def test_perfbench_workloads(workload, monkeypatch, tmp_path):
    # the workloads call initialize, good_direction on Scenario.probe and
    # diagnose(admiss=), and read Scenario.dim and reference; run them tiny
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # workloads.py imports discs
    workloads = _load_perfbench("workloads", monkeypatch)
    sweep = workloads.make(workload, seed=1, workdir=str(tmp_path), tiny=True)
    sweep.setup()
    assert sweep.probe().problems == []


def test_export_list_resolves():
    # a name deleted from a module but left in __all__ breaks `from proxsweep import *`
    assert len(set(proxsweep.__all__)) == len(proxsweep.__all__)
    assert [name for name in proxsweep.__all__ if not hasattr(proxsweep, name)] == []
