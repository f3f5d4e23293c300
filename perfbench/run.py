"""hrscluster benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the package is imported from the
``src/`` directory beside this one, never from an installed copy, and the
command fails without printing a result when that directory is missing.

A plain run (``--trace 0``) repeats the workload's CLI command until
``--seconds`` are spent (at least three times) and reports every end-to-end
metric named in BENCHMARK.json, every time scaled to the host's speed
(``hostspeed``). A traced run (``--trace 1``) repeats pairs of
one plain and one traced command on the same inputs, reports every per-layer
metric from the traced commands, the tracing overhead from the pairs, and
writes the spans to ``.bench_build/perfbench/``. Both check every output.
The last line of standard output is the result as one JSON object.
``--tiny`` shrinks every workload to a smoke-test size.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

import hostspeed
import spans

ROOT = Path(__file__).resolve().parent.parent
MIN_COMMANDS = {0: 3, 1: 1}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": os.cpu_count(),
        "cpu": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": None,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    # The effective OpenBLAS thread count, read from the library numpy loaded.
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else ():
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                env["blas_threads"] = fn()
                break
    return env


def measure(workload, seed: int, seconds: float, trace: bool):
    """Run the loop; returns (traced recorder, host speed, plain invocations, traced invocations).

    Only the plain commands sample the host's speed.
    """
    from workloads import hooks

    plain, traced = spans.Recorder(), spans.Recorder()
    speed = hostspeed.HostSpeed(workload.speed_kernel)
    plain_hooks = speed.hooks(hooks(plain, workload.stamps), workload.sample_points)
    traced_hooks = hooks(traced)
    plain_runs, traced_runs = [], []
    start = time.perf_counter()
    while True:
        i = len(plain_runs)
        speed.sample()
        plain_runs.append(workload.invoke(plain, plain_hooks, seed, i, "p"))
        speed.sample()
        if trace:
            traced_runs.append(workload.invoke(traced, traced_hooks, seed, i, "t"))
        elapsed = time.perf_counter() - start
        done = len(plain_runs)
        if done >= MIN_COMMANDS[trace] and elapsed * (done + 1) / done > seconds:
            return traced, speed, plain_runs, traced_runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hrscluster" / "__init__.py").is_file():
        print(f"error: no hrscluster sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hrscluster

    if not Path(hrscluster.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: imported hrscluster from {hrscluster.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import inputs
    import metrics
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS or args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    out_root = ROOT / ".bench_build" / "perfbench"
    work = out_root / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        env = environment()
        print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
              f"{' tiny' if args.tiny else ''}")
        print("environment: " + json.dumps(env))
        # Built by whichever run comes first in a checkout, whatever its workload.
        workload = WORKLOADS[args.workload](work, inputs.ensure(args.tiny), args.tiny)
        workload.prepare()
        traced, speed, plain_runs, traced_runs = measure(workload, args.seed, args.seconds, trace)
        rss_mb = metrics.peak_rss_mb()
        runs = plain_runs + traced_runs
        failed = workload.check(runs)
        attempted = sum(inv.ops for inv in runs)
        workload.finish(plain_runs)
        details = dict(workload.details, fail_frac=failed / attempted, attempted=attempted, failed=failed)
        if trace:
            values = metrics.per_layer(traced, len(traced_runs))
            plain_wall = sum(speed.busy(*inv.wall) for inv in plain_runs)
            traced_wall = sum(b - a for a, b in (inv.wall for inv in traced_runs))
            details["trace_overhead_s"] = traced_wall - plain_wall
            details["trace_overhead_frac"] = (traced_wall - plain_wall) / plain_wall
            spans_path = out_root / f"spans-{args.workload}-seed{args.seed}.jsonl"
            traced.write(spans_path)
            details["spans_file"] = str(spans_path.relative_to(ROOT))
            print("self times per traced command (calls, busy s, self s):")
            for name, (calls, busy, own) in sorted(metrics.self_time_table(traced, len(traced_runs)).items()):
                print(f"  {name:<32} {calls:>10.1f} {busy:>10.4f} {own:>10.4f}")
        else:
            values, facts = metrics.end_to_end(plain_runs, rss_mb, speed)
            details.update(facts)
            details.update({alias: values[name][0] for name, alias in workload.aliases.items()})
            # What the timestamp hooks add to one timed item, as a share of its p50.
            p50_s = values["latency_ms_p50"][0] * 1e-3
            cost = workload.stamps_per_latency * spans.stamp_cost_s()
            details["stamp_overhead_frac"] = cost / p50_s if p50_s else 0.0
        expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        emitted = {name: unit for name, (_, unit) in values.items()}
        if emitted != expected:
            print(f"error: metrics {sorted(emitted)} do not match BENCHMARK.json {sorted(expected)}", file=sys.stderr)
            return 3
        for name, (value, unit) in values.items():
            print(f"{name:<40} {value:>16.6g} {unit}")
        print("details: " + json.dumps(details, default=str))
        correct = failed == 0
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
        }))
        return 0 if correct else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
