"""Benchmark of the sobolev-poly pipeline, one workload per process.

    python3 perfbench/run.py --workload {solve,lsq,roots,compare} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  The package is imported from ``src/``
of the same checkout, with BLAS and OpenMP pinned to one thread.  Each
workload is a closed loop with one client: the next op starts when the
previous one returns, for ``--seconds`` seconds.  Every op's output is
checked against references computed at set-up; a failed op is counted
and reported on stderr, never dropped.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` ops alternate between untraced and traced, and it holds the
per-layer metrics of the traced ops (see ``tracer.py``).  The line before
it records the environment, the input shape, the references, the tail
percentile and the set-up timings.  Metric names and units are read from
``BENCHMARK.json``.
"""

import os
import sys
import time

_START = time.perf_counter()
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5
TAIL_BEYOND = 10
DIGITS_FLOOR = 1e-17


def fail(message: str, code: int):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
    }


def tail(samples):
    """Highest percentile with TAIL_BEYOND samples above it (the median
    below 2 * TAIL_BEYOND samples): (value, percentile, sample count)."""
    n = len(samples)
    if n < 2 * TAIL_BEYOND:
        return statistics.median(samples), 50.0, n
    return sorted(samples)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def run_loop(setup, seconds: float, tracer, probe):
    """Closed loop for ``seconds``; with a tracer every second op is traced.

    ``setup`` runs SETUP_REPS times, once before the first op and then at
    op boundaries spread over the run, outside the op timing: the
    machine's speed drifts over tens of seconds, and set-ups made back to
    back would all sample one moment of it.  The probe also samples
    between the steps of an op.  Times are recorded as (start, end) pairs
    and rescaled by ``probe`` once the run is over.
    """
    setup_spans = []

    def timed_setup():
        probe.sample()
        t0 = time.perf_counter()
        prepared = setup()
        setup_spans.append((t0, time.perf_counter()))
        probe.sample()
        return prepared

    prepared = timed_setup()
    ops = {"untraced": [], "traced": []}
    failures = []
    attempted = traced_attempted = 0
    worst = 0.0
    min_ops = 2 if tracer is not None else 1
    start = time.perf_counter()
    paused = 0.0
    while attempted < min_ops or time.perf_counter() - start - paused < seconds:
        i = attempted
        attempted += 1
        use_trace = tracer is not None and i % 2 == 1
        spans, out = [], []
        try:
            if use_trace:
                traced_attempted += 1
                tracer.install()
            try:
                for k, step in enumerate(prepared.steps(i)):
                    if k:
                        probe.sample()
                    t0 = time.perf_counter()
                    out.append(tracer.op(step) if use_trace else step())
                    spans.append((t0, time.perf_counter()))
            finally:
                if use_trace:
                    tracer.uninstall()
            err = prepared.gate(i, out)
        except Exception as exc:  # a failed op is counted and reported, never dropped
            failures.append({"op": i, "traced": use_trace, "error": f"{type(exc).__name__}: {exc}"})
            traceback.print_exc(file=sys.stderr)
        else:
            ops["traced" if use_trace else "untraced"].append(spans)
            worst = max(worst, err)
        t0 = time.perf_counter()
        probe.maybe_sample()
        if len(setup_spans) < SETUP_REPS and t0 - start - paused >= len(setup_spans) * seconds / SETUP_REPS:
            timed_setup()
        paused += time.perf_counter() - t0
    loop_s = time.perf_counter() - start - paused
    probe.sample()
    while len(setup_spans) < SETUP_REPS:
        timed_setup()

    def rescaled(spans):
        return sum(probe.scale(t0, t1) for t0, t1 in spans)

    def wall_s(spans):
        return sum(t1 - t0 for t0, t1 in spans)

    return {
        "prepared": prepared,
        "setup_s": [rescaled([span]) for span in setup_spans],
        "untraced": [rescaled(spans) for spans in ops["untraced"]],
        "traced": [rescaled(spans) for spans in ops["traced"]],
        "untraced_wall": [wall_s(spans) for spans in ops["untraced"]],
        "traced_wall": [wall_s(spans) for spans in ops["traced"]],
        "failures": failures, "attempted": attempted, "traced_attempted": traced_attempted,
        "worst": worst, "loop_s": loop_s,
    }


def end_to_end(run, setup_s: float) -> tuple[dict, dict]:
    samples = run["untraced"]
    tail_value, pct, n = tail(samples)
    values = {
        "op_s.p50": statistics.median(samples),
        "op_s.tail": tail_value,
        "ops_per_s": len(samples) / sum(samples),
        "pass_ratio": 1.0 - len(run["failures"]) / run["attempted"],
        "digits": -math.log10(max(run["worst"], DIGITS_FLOOR)),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = run["untraced_wall"]
    return values, {"tail_percentile": pct, "tail_beyond": TAIL_BEYOND, "samples": n,
                    "worst_error": run["worst"], "wall_op_s.p50": statistics.median(wall),
                    "wall_op_s.tail": tail(wall)[0], "wall_ops_per_s": len(wall) / run["loop_s"]}


def per_layer(run, tracer, prepared) -> tuple[dict, dict]:
    n = run["traced_attempted"]
    values = tracer.per_op(n)
    missing = [layer for layer in prepared.layers if tracer.spans[layer] == 0]
    missing += [name for name in prepared.counters if tracer.counts[name] == 0]
    if missing:
        fail(f"traced run recorded nothing for {', '.join(missing)}; "
             "a layer or counter expected on this workload is no longer reached", 3)
    values["trace.overhead_ratio"] = (
        statistics.median(run["traced"]) / statistics.median(run["untraced"])
    )
    outer = statistics.fmean(run["traced_wall"])
    accounted = sum(v for k, v in values.items() if k.endswith(".self_s"))
    if not run["failures"] and not math.isclose(accounted, outer, rel_tol=0.01, abs_tol=1e-3):
        fail(f"layer self times sum to {accounted:.6f} s but a traced op takes {outer:.6f} s", 3)
    return values, {"traced_ops": n, "untraced_ops": len(run["untraced"]),
                    "self_s_sum": accounted, "traced_op_s": outer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "sobolev" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'sobolev'}; run from a checkout of the repository", 2)
    if not spec_path.is_file():
        fail(f"missing {spec_path}", 2)
    spec = json.loads(spec_path.read_text())

    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy as np
    import sobolev
    if Path(sobolev.__file__).resolve().parent != (SRC / "sobolev").resolve():
        fail(f"imported sobolev from {sobolev.__file__}, not from {SRC}", 2)
    from speed import SpeedProbe
    from tracer import Tracer
    from workloads import PREPARE

    imported = time.perf_counter()
    if args.workload not in PREPARE:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(PREPARE)}", 2)

    probe = SpeedProbe()
    probe.sample()
    import_s = probe.scale(_START, imported)
    tracer = Tracer(sobolev) if args.trace else None
    run = run_loop(lambda: PREPARE[args.workload](args.seed), args.seconds, tracer, probe)
    if not run["untraced"] or (args.trace and not run["traced"]):
        fail(f"no op passed its gate: {run['failures'][:3]}", 4)
    prepared = run["prepared"]
    setup_s = import_s + statistics.median(run["setup_s"])

    if args.trace:
        values, extra = per_layer(run, tracer, prepared)
        wanted = spec["per_layer"]
    else:
        values, extra = end_to_end(run, setup_s)
        wanted = spec["end_to_end"]
    absent = [m["name"] for m in wanted if m["name"] not in values]
    if absent:
        fail(f"no value for metrics {absent}", 3)

    info = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(np), "shape": prepared.shape,
        "reference": prepared.reference, "import_s": import_s, "setup_reps_s": run["setup_s"],
        "failures": run["failures"], **extra,
    }
    print(json.dumps({"info": info}))
    failed = len(run["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
