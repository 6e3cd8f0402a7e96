"""qsl benchmark: one workload per process, every output checked.

    python3 perfbench/run.py --workload rydberg-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the root of a qsl checkout; qsl is imported from ``src/`` there.
With ``--trace 0`` the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` with every end-to-end metric
of BENCHMARK.json; with ``--trace 1`` the metrics are the per-layer ones.
``--workload all`` runs each workload in its own process and prints a table.
See perfbench/README.md for the workloads, the metrics and what moves them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "_out")
WORK_DIR = os.path.join(HERE, "_work")
NAMES = ("rydberg-dense", "rydberg-filter", "problem-mix")

SETUP_PROBES = 9        # fresh processes timed for setup_s (after one warm-up)
TAIL_MIN_SOLVES = 40    # below this the tail is reported as the maximum
TRACED_PASSES = 2       # traced repeats whose counts must agree exactly

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "solve_p50_s": "s", "solve_tail_s": "s",
    "bound_ratio": "ratio", "solved_frac": "fraction", "peak_rss_mb": "MB",
}


def _require_source() -> None:
    if not os.path.isfile(os.path.join(SRC, "qsl", "__init__.py")):
        print(f"error: no qsl source under {SRC}; run from a qsl checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


# ---------------------------------------------------------------------------
# Environment


def _openblas():
    """(config string, thread count) of the OpenBLAS numpy loaded, if any."""
    import ctypes
    import glob

    import numpy as np
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"),
                               ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype, threads.argtypes = ctypes.c_int, []
                config.restype, config.argtypes = ctypes.c_char_p, []
                return config().decode(), int(threads())
    return None, None


def environment() -> dict:
    import numpy as np
    blas, threads = _openblas()
    if blas is None:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas,
        "blas_threads": threads,
        "thread_env": {k: os.environ[k] for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "loadavg_start": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# Set-up time


def setup_probe(workload: str, workdir: str) -> None:
    """Body of a set-up probe process: import qsl, do the workload's
    program-side warm-up, report ready."""
    _require_source()
    import workloads
    workloads.WORKLOADS[workload].warm_up(workdir)
    print("ready", flush=True)


def measure_setup(workload: str, workdir: str) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first-solve readiness,
    for one unmeasured probe (it may compile bytecode) and SETUP_PROBES more."""
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import run; "
            f"run.setup_probe({workload!r}, {workdir!r})")
    times = []
    for _ in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, cwd=ROOT, timeout=120)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or proc.stdout.strip() != "ready":
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(elapsed)
    return times[1:]


# ---------------------------------------------------------------------------
# The measured loop


class Run:
    """Solves requests of the workload's batch, timing and checking each."""

    def __init__(self, wl, refs):
        self.wl, self.refs = wl, refs
        self.solve_times: list[float] = []
        self.kind_s: dict[str, float] = {}   # wall time per request kind
        self.ratios: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.records: list = []   # (request index, output) of the first pass

    def solve_all(self, indices, tracer=None) -> float:
        """Solve the requests in order, closed loop; then check them all.
        Returns the pass's wall time: the sum of its solve times."""
        outputs = []
        wall = 0.0
        for i in indices:
            req = self.wl.batch[i]
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = self.wl.solve(req)
                else:
                    out = tracer.solve(i, self.wl.solve, req)
            except Exception:   # a solve that raises is a failed solve
                traceback.print_exc()
                out = None
            dt = time.perf_counter() - t0
            wall += dt
            self.solve_times.append(dt)
            kind = self.wl.kind(req)
            self.kind_s[kind] = self.kind_s.get(kind, 0.0) + dt
            outputs.append((i, out))
        for i, out in outputs:
            self._check(i, out)
        if not self.records:
            self.records = outputs
        return wall

    def _check(self, i, out) -> None:
        if out is None:
            self.failed += 1
            return
        try:
            ok, ratio, why = self.wl.check(self.wl.batch[i], out, self.refs[i])
        except Exception as exc:   # malformed output fails its check
            ok, ratio, why = False, None, f"{type(exc).__name__}: {exc}"
        if not ok:
            self.failed += 1
            print(f"check failed on request {i} ({_describe(self.wl.batch[i])}): "
                  f"{why}", file=sys.stderr)
        elif ratio is not None:
            self.ratios.append(ratio)

    def self_test(self) -> bool:
        """Inflated copies of passing outputs must all fail their checks."""
        tested = 0
        for i, out in self.records:
            if out is None:
                continue
            req, ref = self.wl.batch[i], self.refs[i]
            if not self.wl.check(req, out, ref)[0]:
                continue
            bad = self.wl.inflate(req, out, ref)
            if bad is None:
                continue
            tested += 1
            if self.wl.check(req, bad, ref)[0]:
                print(f"self-test: inflated bound on request {i} passed its "
                      "check", file=sys.stderr)
                return False
        return tested > 0


def _describe(req: dict) -> str:
    return " ".join(req["argv"]) if "argv" in req else json.dumps(req)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the slowest solve with at least ten beyond it,
    or the maximum when a run has fewer than TAIL_MIN_SOLVES solves."""
    ordered = sorted(times)
    n = len(ordered)
    if n < TAIL_MIN_SOLVES:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(run: Run, setup: list[float], wall: float) -> dict:
    ratio = math.exp(statistics.fmean(math.log(r) for r in run.ratios)) \
        if run.ratios else 0.0
    tail_s, _ = tail(run.solve_times)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "solve_p50_s": statistics.median(run.solve_times),
        "solve_tail_s": tail_s,
        "bound_ratio": float(f"{ratio:.6g}"),
        "solved_frac": (run.attempted - run.failed) / run.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    _require_source()
    sys.path.insert(0, HERE)
    import workloads

    env = environment()
    workdir = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    cls = workloads.WORKLOADS[name]
    blocks = max(1, round(seconds / cls.BLOCK_SECONDS))
    try:
        wl = cls(seed, workdir, 1 if traced else blocks)
        setup = [] if traced else measure_setup(name, workdir)
        refs = [wl.reference(req) for req in wl.batch]   # oracle, untimed
        cls.warm_up(workdir)
        run = Run(wl, refs)
        extra: dict = {}
        if traced:
            metrics, extra = traced_passes(run, seed)
        else:
            wall = run.solve_all(range(len(wl.batch)))
            metrics = end_to_end(run, setup, wall)
        self_test = run.self_test()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env["loadavg_end"] = list(os.getloadavg())
    _, tail_pct = tail(run.solve_times)
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(traced),
        "sizes": wl.sizes(), "blocks": len(wl.batch) // wl.block,
        "solves": len(run.solve_times), "tail_percentile": tail_pct,
        "kind_wall_s": run.kind_s, "setup_probes_s": setup,
        "failed_frac": run.failed / run.attempted,
        "self_test": "passed" if self_test else "FAILED",
        "environment": env, **extra,
    }
    correct = run.failed == 0 and self_test and extra.get("counts_repeat", True)
    result = {"correct": bool(correct), "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{name}-seed{seed}-trace{int(traced)}"
                                    ".json"), "w", encoding="utf-8") as fh:
        json.dump({"info": info, **result}, fh, indent=1)
    for key, m in metrics.items():
        print(f"{name:15s} {key:42s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


def traced_passes(run: Run, seed: int) -> tuple[dict, dict]:
    """One untraced pass over a one-block batch, then TRACED_PASSES traced
    passes; per-layer metrics come from the traced passes, whose exact counts
    must all agree."""
    import layertrace
    indices = range(len(run.wl.batch))
    untraced = run.solve_all(indices)
    walls, layers, counts, spans = [], [], [], []
    for _ in range(TRACED_PASSES):
        tracer = layertrace.Tracer()
        with tracer:
            walls.append(run.solve_all(indices, tracer))
        layers.append(layertrace.layer_metrics(tracer.spans, tracer.counts))
        counts.append(layertrace.exact_counts(tracer.spans, tracer.counts))
        spans.append(tracer.spans)
    repeat = all(c == counts[0] for c in counts[1:])
    if not repeat:
        print("trace: counts differ between traced passes", file=sys.stderr)
    merged = {}
    for key, first in layers[0].items():
        timed = key.endswith("_s")
        merged[key] = statistics.fmean(l[key] for l in layers) if timed else first
    merged["trace.overhead_s"] = statistics.fmean(walls) - untraced
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"trace-{run.wl.name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "solve", "name", "t0", "t1"],
                   "passes": spans}, fh)
    metrics = {k: {"value": v, "unit": layertrace.unit(k)} for k, v in merged.items()}
    return metrics, {"counts_repeat": repeat, "spans_file": os.path.relpath(path, ROOT),
                     "untraced_wall_s": untraced, "traced_wall_s": walls}


# ---------------------------------------------------------------------------
# All workloads


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Each workload in its own process; print every metric per workload."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(int(traced))],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        info = json.loads(lines[-2])["info"]
        results[name]["info"] = {k: info[k] for k in (
            "sizes", "solves", "tail_percentile", "failed_frac", "self_test")}
    print(f"{'metric':42s}" + "".join(f"{n:>18s}" for n in NAMES) + "  unit")
    for key, m in results[NAMES[0]]["metrics"].items():
        row = "".join(f"{results[n]['metrics'][key]['value']:>18.6g}" for n in NAMES)
        print(f"{key:42s}{row}  {m['unit']}")
    print(f"{'failed_frac':42s}"
          + "".join(f"{results[n]['info']['failed_frac']:>18.6g}" for n in NAMES)
          + "  fraction")
    print(f"{'tail percentile':42s}"
          + "".join(f"{results[n]['info']['tail_percentile']:>18.4g}" for n in NAMES))
    print(json.dumps({n: r["info"] for n, r in results.items()}))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": m for n, r in results.items()
                    for k, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
