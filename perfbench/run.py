"""proxsweep benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload floor-sweep --seed 1 --seconds 55 --trace 0

Run from the repository root; proxsweep is imported from ./src.  With
--trace 0 the workload's passes repeat for --seconds and the end-to-end
metrics are means over them, in reference seconds; setup_s is the median of
several fresh interpreters.  With --trace 1 untraced and traced passes
alternate, the per-layer metrics come from the traced ones, and a traced
scaling curve over N discs follows.  The last line of standard
output is the result object; the line before it records the environment,
the inputs and every pass.  Exits non-zero without a result when the
proxsweep sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 5
# Times are reported in reference seconds.  The speed of a shared host drifts
# by 20% and more over tens of seconds, so every raw time of a run is scaled
# by REFERENCE_S / (median time of a calibration loop sampled all through
# that run).  REFERENCE_S is about the loop's time on a quiet core of a
# 2.1 GHz Xeon.
CALIBRATION_ITERS = 1000
SAMPLE_PERIOD_S = 0.2
REFERENCE_S = 0.0075
SCALING_DISCS = (2, 4, 8)
END_TO_END_UNITS = {"wall_s": "s", "steps_per_s": "1/s", "diagnose_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
COUNT_SUFFIXES = (".calls", ".events", ".iters", ".newton_iters", ".stalled",
                  ".out_of_cone", ".threads")


def bootstrap():
    """Pin BLAS/OpenMP threads and import proxsweep from this checkout only."""
    os.environ.update(PINNED_THREADS)
    os.environ.pop("SWEEP2_THREADS", None)
    src = ROOT / "src"
    if not (src / "proxsweep" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no proxsweep sources under {src}")
    sys.path.insert(0, str(src))
    import proxsweep

    if Path(proxsweep.__file__).resolve().parent != (src / "proxsweep").resolve():
        raise SystemExit(f"perfbench: imported proxsweep from {proxsweep.__file__}")


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "pinned_threads": PINNED_THREADS,
            "SWEEP2_THREADS": None, "seed": seed, "commit": git_commit(),
            "machine": platform.machine()}


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith(COUNT_SUFFIXES):
        return "count"
    if name.endswith(("_ratio", ".calls_per_h")):
        return "ratio"
    if name.endswith((".us_per_call", ".us_per_step")):
        return "us"
    if name.endswith("_s"):
        return "s"
    raise ValueError(f"no unit for metric {name}")


def setup_seconds(args) -> float:
    """Fresh interpreter until the first step can be taken."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-child",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        cmd.append("--tiny")
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter()
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"setup child failed (exit {code})")
    return ready - start


def within(seconds: float):
    """Yield once per pass; stop before a pass that, judging by the last one,
    would end after `seconds`.  The first pass always runs."""
    start = last = time.perf_counter()
    yield
    while True:
        now = time.perf_counter()
        if now - start + (now - last) > seconds:
            return
        last = now
        yield


class SpeedSampler:
    """Background thread timing a fixed calibration loop every SAMPLE_PERIOD_S.

    The loop mixes interpreter work with small numpy solves, like the solver,
    and is timed in thread CPU time, so waiting for the interpreter lock does
    not count.  The median over a run tracks how fast the host executed this
    kind of code while the run lasted.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, name="speed-sampler")

    def _loop(self):
        import numpy as np

        a, b, acc = np.eye(6) * 3.0 + 0.1, np.arange(6.0), 0.0
        while True:
            start = time.thread_time()
            for i in range(CALIBRATION_ITERS):
                x = np.linalg.solve(a, b + i)
                acc += float(np.sqrt(x @ x)) + max(i % 7, 3) * 0.5
            self.samples.append(time.thread_time() - start)
            if self._stop.wait(SAMPLE_PERIOD_S):
                return

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False


def timed_run(wl, args) -> tuple[dict, list]:
    setups = [setup_seconds(args) for _ in range(SETUP_SAMPLES)]
    passes = []
    with SpeedSampler() as sampler:
        for _ in within(args.seconds):
            command, probe = wl.command(), wl.probe()
            passes.append({"raw_s": {**command.times, **probe.times}, "steps": probe.steps,
                           "values": {**command.values, **probe.values},
                           "problems": command.problems + probe.problems})
    factor = REFERENCE_S / statistics.median(sampler.samples)   # raw -> reference seconds
    # time-weighted means over the passes: the host's speed drifts on the
    # scale of a pass, so averaging all measured time beats a median of few
    metrics = {"wall_s": factor * statistics.mean(p["raw_s"]["wall"] for p in passes)}
    timed = [p for p in passes if "run" in p["raw_s"]]   # an aborted probe has no times
    if timed:
        metrics["steps_per_s"] = (sum(p["steps"] for p in timed)
                                  / (factor * sum(p["raw_s"]["run"] for p in timed)))
        metrics["diagnose_s"] = factor * statistics.mean(p["raw_s"]["diagnose"] for p in timed)
    metrics["setup_s"] = factor * statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(1 for p in passes if p["problems"])
    metrics["ok_frac"] = 1.0 - failed / len(passes)
    return metrics, passes + [{"raw_setup_s": setups, "speed_samples": sampler.samples,
                               "speed_factor": factor}]


def scaling_curve(args) -> tuple[dict, list]:
    """Traced run() on N discs: project_point us/call and step us/step against N."""
    import proxsweep
    import spans
    import workloads

    h, T = workloads.DISCS_RUN[1 if args.tiny else 0]
    metrics, passes = {}, []
    for n in SCALING_DISCS:
        with spans.Tracer(proxsweep) as tracer:
            problems = workloads.disc_drop(n, args.seed, h, T)
        points = [s for s in tracer.spans if s.name == "projection.project_point"]
        steps = [s for s in tracer.spans if s.name == "integrator.step"]
        metrics[f"projection.project_point.discs_n{n}.us_per_call"] = (
            1e6 * sum(s.self_s for s in points) / max(len(points), 1))
        metrics[f"integrator.step.discs_n{n}.us_per_step"] = (
            1e6 * sum(s.end - s.start for s in steps) / max(len(steps), 1))
        passes.append({"discs": n, "steps": len(steps), "problems": problems})
    return metrics, passes


def traced_run(wl, args) -> tuple[dict, list]:
    import proxsweep
    import spans

    main_thread = threading.get_ident()
    samples, passes = [], []
    for _ in within(args.seconds):
        plain = wl.command()
        with spans.Tracer(proxsweep) as tracer:
            traced = wl.command()
        layers = spans.layer_metrics(tracer.spans, main_thread)
        wall, plain_wall = traced.times["wall"], plain.times["wall"]
        layers["trace.wall_s"] = wall
        layers["trace.overhead_s"] = wall - plain_wall
        samples.append(layers)
        passes += [{"traced": False, "wall_s": plain_wall, "problems": plain.problems},
                   {"traced": True, "wall_s": wall, "problems": traced.problems}]
    metrics = spans.median_metrics(samples)
    scaling, scaling_passes = scaling_curve(args)
    metrics.update(scaling)
    return metrics, passes + scaling_passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the harness self-check")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bootstrap()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_child:
        workloads.make(args.workload, args.seed, workdir=".", tiny=args.tiny).setup()
        print("ready", flush=True)
        return 0

    workdir = Path(__file__).resolve().parent / f".work-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.make(args.workload, args.seed, str(workdir), tiny=args.tiny)
        if args.trace:
            metrics, passes = traced_run(wl, args)
        else:
            metrics, passes = timed_run(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = [p for p in passes if "problems" in p]
    failed = sum(1 for p in checked if p["problems"])
    print(json.dumps({"env": environment(args.seed), "workload": args.workload,
                      "trace": args.trace, "tiny": args.tiny, "inputs": wl.inputs(),
                      "passes": passes}))
    print(json.dumps({"correct": failed == 0, "attempted": len(checked), "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit_of(name)}
                                  for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
