#!/usr/bin/env python3
"""mflow benchmark: one workload per call, seeded, measured for --seconds.

    python3 bench/run.py --workload flow-oracle --seed 1 --seconds 18 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 18 --trace 1

With --trace 0 the end-to-end metrics are printed; with --trace 1 the
per-layer metrics from timing spans installed around mflow's entry points.
Every metric is printed on its own line, and the last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics. See bench/README.md for the workloads and metrics.
"""

import os

# One BLAS thread, set before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

import harness  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("flow-oracle", "tree-cg", "gt-spectral", "cli-session")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 900


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=18.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record", help="merge this run's result into a JSON history file")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- environment record ------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # the config layout differs across numpy versions
        name = "unknown"
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return name, threads


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed) -> dict:
    blas_name, blas_threads = _blas()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": blas_threads,
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "commit": _git_commit(),
        "seed": seed,
    }


# -- one workload ------------------------------------------------------------

def _workload(name):
    harness.load_mflow(ROOT)
    import workloads
    return workloads, workloads.WORKLOADS[name]()


def setup_probe(args) -> int:
    """Child of the setup timer: import mflow, build the inputs, report ready."""
    _, wl = _workload(args.workload)
    items = wl.build(args.seed)
    workdir = tempfile.mkdtemp(prefix="setup-", dir=_work_root())
    try:
        wl.prepare(items, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _work_root() -> str:
    path = os.path.join(ROOT, ".bench_work")
    os.makedirs(path, exist_ok=True)
    return path


def time_setup(args) -> list:
    """Wall time from interpreter start to inputs ready, in fresh processes."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if code != 0 or line.strip() != "ready":
            raise harness.BenchError(f"setup probe exited {code}")
        times.append(elapsed)
    return times


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run, setup_times) -> dict:
    untraced = run.select(traced=False)
    lat_ms = 1e3 * np.concatenate([np.frombuffer(p.latencies_s) for p in untraced])
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "wall_s": _metric(statistics.median(p.wall_s for p in untraced), "s"),
        "item_ms_p50": _metric(harness.percentile(lat_ms, 50), "ms"),
        "item_ms_p90": _metric(harness.percentile(lat_ms, 90), "ms"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(run, oracle_dev) -> dict:
    import spans
    traced = run.select(traced=True)
    first = traced[0]
    out = {}
    for name in spans.span_names():
        out[f"{name}.calls"] = _metric(first.counts[f"{name}.calls"], "count")
        out[f"{name}.self_s"] = _metric(statistics.median(p.self_s.get(name, 0.0) for p in traced), "s")
    acc, rej = first.counts["flow.accepted_steps"], first.counts["flow.rejected_steps"]
    out["flow.accepted_steps"] = _metric(acc, "count")
    out["flow.rejected_steps"] = _metric(rej, "count")
    out["flow.accept_ratio"] = _metric(_ratio(acc, acc + rej), "ratio")
    out["flow.rhs_calls"] = _metric(first.counts["flow.rhs_calls"], "count")
    out["flow.oracle_dev_max"] = _metric(oracle_dev, "ratio")
    for cache in ("branching.fuse", "gelfand_tsetlin.count_below"):
        hits, misses = first.caches[f"{cache}_hits"], first.caches[f"{cache}_misses"]
        out[f"{cache}_hits"] = _metric(hits, "count")
        out[f"{cache}_misses"] = _metric(misses, "count")
        out[f"{cache}_hit_ratio"] = _metric(_ratio(hits, hits + misses), "ratio")
    out["serialize.bytes_written"] = _metric(first.counts["serialize.bytes_written"], "bytes")
    overhead = (statistics.median(p.wall_s for p in traced)
                - statistics.median(p.wall_s for p in run.select(traced=False)))
    out["bench.tracing_overhead_s"] = _metric(overhead, "s")
    return out


def run_workload(args) -> int:
    workloads, wl = _workload(args.workload)
    setup_times = time_setup(args) if not args.trace else []
    items = wl.build(args.seed)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=_work_root())
    try:
        wl.prepare(items, workdir)
        tracer = None
        if args.trace:
            import spans
            tracer = spans.Tracer()
        run = harness.measure(wl, items, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    unexpected = [f"{items[i].label}: {d}" for i, d in run.failures if not items[i].known_defect]
    known = [f"{items[i].label}: {d} [known defect: {items[i].known_defect}]"
             for i, d in run.failures if items[i].known_defect]
    oracle_dev = workloads.oracle_dev_max(run.passes[0].facts)
    metrics = per_layer(run, oracle_dev) if tracer is not None else end_to_end(run, setup_times)

    n_untraced = len(run.select(traced=False))
    items_measured = len(items) * (len(run.passes) - n_untraced if tracer else n_untraced)
    env = environment(args.seed)
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"inputs {wl.name} seed={args.seed} items_per_pass={len(items)} "
          f"digest={harness.digest(items)}")
    print(f"passes {wl.name} untraced={n_untraced} traced={len(run.passes) - n_untraced} "
          f"attempted={run.attempted} failed={run.failed}")
    if tracer is not None and tracer.missing:
        print(f"warning {wl.name} spans not installed (not found): {', '.join(tracer.missing)}")
    for line in known:
        print(f"known-failure {wl.name} {line}")
    for line in unexpected:
        print(f"FAILED {wl.name} {line}")
    for line in run.problems:
        print(f"INCONSISTENT {wl.name} {line}")
    print(f"metric {wl.name} fail_ratio {run.failed / run.attempted!r} ratio "
          f"(items={run.attempted})")
    if wl.name == "flow-oracle":
        print(f"metric {wl.name} oracle_dev_max {oracle_dev!r} ratio (items={len(items)})")
    for name, m in metrics.items():
        print(f"metric {wl.name} {name} {m['value']!r} {m['unit']} (items={items_measured})")

    result = {"correct": not unexpected and not run.problems, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    if args.record:
        _record(args, env, wl.name, items, run, result, oracle_dev)
    print(json.dumps(result))
    return 0


def _record(args, env, name, items, run, result, oracle_dev) -> None:
    path = os.path.abspath(args.record)
    history = {}
    if os.path.exists(path):
        with open(path) as fh:
            history = json.load(fh)
    history.setdefault("env", {k: v for k, v in env.items() if k != "seed"})
    history.setdefault("seed", args.seed)
    history.setdefault("seconds", args.seconds)
    entry = history.setdefault("workloads", {}).setdefault(name, {})
    entry["traced" if args.trace else "untraced"] = {
        "items_per_pass": len(items),
        "passes": len(run.passes),
        "input_digest": harness.digest(items),
        "fail_ratio": result["failed"] / result["attempted"],
        "oracle_dev_max": oracle_dev if name == "flow-oracle" else None,
        **result,
    }
    with open(path, "w") as fh:
        json.dump(history, fh, indent=1, sort_keys=True)
        fh.write("\n")


# -- all workloads -----------------------------------------------------------

def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.record:
            cmd += ["--record", os.path.abspath(args.record)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise harness.BenchError(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.setup_probe:
            return setup_probe(args)
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except harness.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
