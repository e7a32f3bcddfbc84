"""matweight benchmark runner.

    python3 perfbench/run.py --workload {ensemble,p2,window} --seed N \
        --seconds S --trace {0,1} [--smoke]

Runs one workload closed loop (one op in flight) against the matweight
sources of the checkout this file sits in, checks every output, and prints
as its last stdout line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

DEFAULT_SEED = 0  # the seed whose outputs must also match reference.json
SETUP_REPEATS = 3
TRACE_SHARE = 1 / 3  # each traced-run pass gets this share of --seconds
THREAD_VARS = ("MATWEIGHT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def use_checkout_sources():
    """Import matweight from this checkout's src/, never from elsewhere."""
    if not (SRC / "matweight" / "__init__.py").is_file():
        raise SystemExit(f"error: no matweight sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import matweight

    if Path(matweight.__file__).resolve().parent != SRC / "matweight":
        raise SystemExit(f"error: matweight imported from {matweight.__file__}, not {SRC}")


# -- environment record -------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_runtime():
    """OpenBLAS thread count and config as loaded, when numpy bundles it."""
    import ctypes

    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                try:
                    threads = getattr(handle, f"{prefix}_get_num_threads{suffix}")
                    config = getattr(handle, f"{prefix}_get_config{suffix}")
                except AttributeError:
                    continue
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return threads(), config().decode()
    return None, None


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # checkouts without git metadata
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(args, counts):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = {}
    threads, config = _blas_runtime()
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_build": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_runtime_config": config,
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": "smoke" if args.smoke else "full",
        "ops": counts,
    }


# -- running ops ----------------------------------------------------------------


class Outcome:
    __slots__ = ("op", "latency", "record", "problems", "output_bytes")

    def __init__(self, op, latency, record, problems, output_bytes):
        self.op, self.latency, self.record = op, latency, record
        self.problems, self.output_bytes = problems, output_bytes


def execute(op, reference=None):
    """Run one op (timed), then check its output (untimed)."""
    t0 = time.perf_counter()
    try:
        raw = op.run()
    except Exception:
        latency = time.perf_counter() - t0
        return Outcome(op, latency, None, [traceback.format_exc(limit=3)], 0)
    latency = time.perf_counter() - t0
    try:
        record, problems, output_bytes = op.check(raw)
    except Exception:
        return Outcome(op, latency, None, [traceback.format_exc(limit=3)], 0)
    if reference is not None:
        want = (
            reference.get("warmup") if op.index == "warmup"
            else (reference["ops"][op.index] if op.index < len(reference["ops"]) else None)
        )
        if want is not None:
            from workloads import mismatch

            bad = mismatch(record, want)
            if bad:
                problems = problems + [f"reference mismatch at {bad}"]
    return Outcome(op, latency, record, problems, output_bytes)


def fresh_workdir(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    os.chdir(path)


def load_reference(args):
    if args.smoke or args.seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    with open(REFERENCE) as fh:
        return json.load(fh)["workloads"].get(args.workload)


def passes(seconds, nominal):
    return max(1, math.floor(seconds / nominal + 0.5))


def tail(latencies):
    """Highest percentile with at least ten samples beyond it."""
    s = sorted(latencies)
    n = len(s)
    if n >= 11:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return s[-1], 100.0, 0


def family_medians(outcomes):
    fams = {}
    for o in outcomes:
        fams.setdefault(o.op.family, []).append(o.latency)
    return {f"{fam}_s": statistics.median(v) for fam, v in fams.items()}


def run_untraced(wl, args, reference, workdir, import_s):
    if wl.name == "window":
        wl.cycles = passes(args.seconds, wl.nominal_op_s)
    setup_times, warmups = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fresh_workdir(workdir)
        wl.setup(".")
        warmups.append(execute(wl.warmup_op(), reference))
        setup_times.append(time.perf_counter() - t0)

    timed = []
    t0 = time.perf_counter()
    if wl.name == "window":
        for op in wl.ops():
            timed.append(execute(op, reference))
    else:
        for op in wl.ops():
            if time.perf_counter() - t0 >= args.seconds:
                break
            timed.append(execute(op, reference))
    wall = time.perf_counter() - t0

    lat = [o.latency for o in timed]
    if wl.name == "window":
        # Commands differ fivefold in cost, so a percentile over single
        # commands jumps between command kinds; take it over cycles instead.
        per = len(timed) // wl.cycles
        lat = [sum(lat[i:i + per]) for i in range(0, len(lat), per)]
    tail_v, tail_pct, beyond = tail(lat)
    metrics = {
        "setup_s": (import_s + statistics.median(setup_times), "s"),
        "ops_per_s": (len(timed) / wall, "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(lat), "ms"),
        "op_tail_ms": (1000.0 * tail_v, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    details = {
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "timed_wall_s": wall,
        "op_tail": {"percentile": tail_pct, "samples": len(lat), "beyond": beyond},
        "latency_unit": "cycle" if wl.name == "window" else "op",
        "op_latency_s": [[o.op.label, o.latency] for o in timed],
    }
    if wl.name == "window":
        details["command_family_median_s"] = family_medians(timed)
    return warmups + timed, metrics, details, {"timed": len(timed), "warmup": len(warmups)}


def run_traced(wl, args, reference, workdir):
    from tracing import Tracer

    budget = args.seconds * TRACE_SHARE
    count = passes(budget, wl.nominal_op_s)
    if wl.name == "window":
        wl.cycles, count = count, None
    fresh_workdir(workdir)
    wl.setup(".")
    warm = execute(wl.warmup_op(), reference)

    t0 = time.perf_counter()
    plain = [execute(op, reference) for op in wl.ops(count)]
    wall_plain = time.perf_counter() - t0

    tracer = Tracer()
    tracer.install()
    try:
        traced = []
        t0 = time.perf_counter()
        for op in wl.ops(count):
            tracer.op = op.index
            traced.append(execute(op, reference))
        wall_traced = time.perf_counter() - t0
    finally:
        tracer.op = None
        tracer.uninstall()

    for a, b in zip(plain, traced):
        if a.record is not None and b.record is not None and (
            json.dumps(a.record, sort_keys=True) != json.dumps(b.record, sort_keys=True)
        ):
            b.problems.append("traced output differs from untraced output")

    metrics = {k: (v, unit_of(k)) for k, v in tracer.metrics().items()}
    metrics["cli.output_bytes"] = (sum(o.output_bytes for o in traced), "bytes")
    metrics["trace.overhead_ratio"] = (wall_traced / wall_plain, "ratio")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans_path)
    details = {
        "untraced_wall_s": wall_plain,
        "traced_wall_s": wall_traced,
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "missing_names": sorted(tracer.missing),
    }
    counts = {"per_pass": len(traced), "warmup": 1}
    return [warm] + plain + traced, metrics, details, counts


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    ap = argparse.ArgumentParser(description="matweight benchmark")
    ap.add_argument("--workload", required=True, choices=("ensemble", "p2", "window"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the tests")
    args = ap.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    use_checkout_sources()
    # The benchmark is single-threaded; MATWEIGHT_THREADS would only matter to
    # the CLI's verify pool, and the benchmark leaves it unset.
    os.environ.pop("MATWEIGHT_THREADS", None)
    sys.path.insert(0, str(HERE))
    import workloads

    import_s = time.perf_counter() - T_START

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    reference = load_reference(args)
    cwd = os.getcwd()
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        if args.trace:
            outcomes, metrics, details, counts = run_traced(wl, args, reference, workdir)
        else:
            outcomes, metrics, details, counts = run_untraced(
                wl, args, reference, workdir, import_s
            )
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [o for o in outcomes if o.problems]
    for o in failed[:10]:
        print(f"FAILED op {o.op.index} ({o.op.family}): {'; '.join(o.problems)}",
              file=sys.stderr)
    env = environment(args, counts)
    fail_ratio = len(failed) / len(outcomes)
    doc = {
        "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "fail_ratio": fail_ratio,
        "reference_checked": reference is not None,
        "details": details,
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(doc, fh, indent=1)

    print(f"# matweight benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} size={env['size']}")
    print("# env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")
    if not args.trace:
        t = details["op_tail"]
        print(f"# op_tail_ms is p{t['percentile']:.1f} of {t['samples']} {details['latency_unit']}s "
              f"({t['beyond']} beyond it)")
        for name, value in details.get("command_family_median_s", {}).items():
            print(f"{name:34s} {value:.6g} s  (median per invocation)")
    print(f"{'fail_ratio':34s} {fail_ratio:.6g} ratio  ({len(failed)} of {len(outcomes)} ops)")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": doc["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
