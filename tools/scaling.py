"""Time and peak memory of each library layer against the leaf count N.

    python3 tools/scaling.py --out BENCH_scaling.json [--against PARENT_CHECKOUT]

Runs in process against the ``src/`` of the checkout that holds this file,
with one BLAS thread (the thread variables are set before numpy loads).
For every window of ``SIZES`` (d = 1 at depth 8-18, d = 2 at depth 4-7;
n = 2) it draws bounded weights W != U and a symbol B, seeded from the
window, and times each layer of ``LAYERS`` on fresh copies of its operands,
so a call pays for the powers and reducing tables it needs, as one CLI
command does; the copies are made before the clock and the trace start.
``seconds`` is the fastest of up to three calls (fewer when they take over
a second together); ``peak_mb`` is the ``tracemalloc`` peak of one more
call, and ``leaf_mb`` the size of the leaves of its matrix-field operands
(each power of a weight has the size of the weight).  A layer runs up to
depth ``DEEPEST[d]`` only, except that the A_p characteristic at p != 2,
on the own grid and on all grids, is O(N^2) and stops at ``AP_DEPTH[d]``,
the ``TABLE_LAYERS``, which build p != 2 reducing tables, go on to
``TABLE_DEPTH[d]``, and the dense matrix of ``materialize`` stops at
``DENSE_DEPTH[d]``, where n N reaches ``opnorm.DENSE_CAP``.

The records of this checkout go under ``runs.change``.  ``--against``
loads the package of a second checkout under another name into the same
process and alternates the two call by call, so both meet the same load
of a shared machine; its records go under ``runs.parent``.  A side already
in the file is merged: per layer and window the fastest time and the
smaller peak are kept, so repeated runs damp the load alike.  Once the
file holds both sides, ``compare`` lists per layer and window the time
ratio parent / change and the peak difference change - parent.  Standard library and the
checkouts' packages only.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

MODULES = ("bmo", "dyadic", "fields", "opnorm", "stopping", "transforms")
N_COMPONENTS = 2
SIZES = {1: range(8, 19), 2: range(4, 8)}
DEEPEST = {1: 16, 2: 7}
AP_DEPTH = {1: 15, 2: 7}  # deepest window for the O(N^2) A_p at p != 2
TABLE_DEPTH = {1: 18, 2: 7}  # deepest window for the layers that build p != 2 tables
TABLE_LAYERS = ("reducing_p3", "reducing_p3_complex", "condition_b_p3", "carleson_norm_p3")
DENSE_DEPTH = {1: 11, 2: 5}  # deepest window with n N <= DENSE_CAP = 4096 at n = 2
REPEATS = 3
SLOW_CALL_S = 1.0  # calls slower than this together are not repeated
# a fixed unitary: Q W Q^H is a complex Hermitian weight with W's spectrum
UNITARY = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)


def load(src, name="matweight"):
    """The modules of the ``matweight`` package under ``src``, imported as
    package ``name``."""
    if name != "matweight":
        init = Path(src) / "matweight" / "__init__.py"
        spec = importlib.util.spec_from_file_location(
            name, init, submodule_search_locations=[str(init.parent)])
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return SimpleNamespace(**{m: importlib.import_module(f"{name}.{m}") for m in MODULES})


def _fresh(m, x):
    """A matrix field copied with empty power, average and reducing caches;
    anything else as it is."""
    if isinstance(x, m.fields.MatrixField):
        return m.fields.MatrixField(x.window, x.leaves, weight=x.is_weight)
    return x


def _operands(m, d, depth):
    win = m.dyadic.Window.unit(d, depth)
    rng = np.random.default_rng(1000 * d + depth)
    W = m.bmo.bounded_weight(win, N_COMPONENTS, rng)
    U = m.bmo.bounded_weight(win, N_COMPONENTS, rng)
    B = m.bmo.random_matrix_field(win, N_COMPONENTS, rng)
    Wc = m.fields.MatrixField(win, UNITARY @ W.leaves @ UNITARY.conj().T, weight=True)
    return {"win": win, "W": W, "U": U, "Wc": Wc, "B": B, "A": m.transforms.analyze(B)}


# layer -> (what it runs, the call on a package m, the names of its operands)
LAYERS = {
    "bounded_weight": (
        "bmo.bounded_weight draw, A_2 cap check included",
        lambda m, win: m.bmo.bounded_weight(win, N_COMPONENTS, np.random.default_rng(7)),
        ("win",)),
    "ap_p2": ("fields.ap_characteristic(W, 2)",
              lambda m, W: m.fields.ap_characteristic(W, 2.0), ("W",)),
    "ap_p3": ("fields.ap_characteristic(W, 3)",
              lambda m, W: m.fields.ap_characteristic(W, 3.0), ("W",)),
    "ap_p3_grids": (
        "fields.ap_characteristic(W, 3, grids=all 2^d), own and shifted grids",
        lambda m, W: m.fields.ap_characteristic(W, 3.0, grids=range(1, 2**W.window.d + 1)),
        ("W",)),
    "reducing_p3": ("fields.ReducingTable.build(W, 3), real W",
                    lambda m, W: m.fields.ReducingTable.build(W, 3.0), ("W",)),
    "reducing_p3_complex": ("fields.ReducingTable.build(Q W Q^H, 3), complex Hermitian",
                            lambda m, Wc: m.fields.ReducingTable.build(Wc, 3.0), ("Wc",)),
    "bmo_original_p3": ("bmo.bmo_original(B, W, U, 3)",
                        lambda m, B, W, U: m.bmo.bmo_original(B, W, U, 3.0), ("B", "W", "U")),
    "condition_b_p3": ("bmo.condition_b(W, U, A, 3), A = analyze(B)",
                       lambda m, A, W, U: m.bmo.condition_b(W, U, A, 3.0), ("A", "W", "U")),
    "carleson_norm_p3": ("bmo.carleson_norm(W, U, A, 3), A = analyze(B)",
                         lambda m, A, W, U: m.bmo.carleson_norm(W, U, A, 3.0),
                         ("A", "W", "U")),
    "stopping_build_p2": ("stopping.build(W, U, 2) at the default threshold",
                          lambda m, W, U: m.stopping.build(W, U, 2.0), ("W", "U")),
    "stopping_build_deep": ("stopping.build(W, U, 2, lam=1.2), a deep forest",
                            lambda m, W, U: m.stopping.build(W, U, 2.0, lam=1.2), ("W", "U")),
    "weighted_norm_p2": (
        "opnorm.weighted_norm_p2 of the Haar multiplier A = analyze(B), L^2(U) -> L^2(W)",
        lambda m, A, W, U: m.opnorm.weighted_norm_p2({"kind": "haar_multiplier", "A": A}, W, U),
        ("A", "W", "U")),
    "materialize": (
        "opnorm.materialize of the conjugated paraproduct (A = analyze(B), W, U, p = 2)",
        lambda m, A, W, U: m.opnorm.materialize(
            {"kind": "conjugated_paraproduct", "A": A, "W": W, "U": U, "p": 2.0},
            W.window, N_COMPONENTS),
        ("A", "W", "U")),
    "haar_roundtrip": ("transforms.synthesize(transforms.analyze(B))",
                       lambda m, B: m.transforms.synthesize(m.transforms.analyze(B)), ("B",)),
}


def _times(call, names, sides):
    """Fastest time of each side, its calls alternating with the others'."""
    best, spent = [np.inf] * len(sides), 0.0
    for _ in range(REPEATS):
        for k, (m, ops) in enumerate(sides):
            args = [_fresh(m, ops[name]) for name in names]
            t0 = time.perf_counter()
            call(m, *args)
            dt = time.perf_counter() - t0
            best[k], spent = min(best[k], dt), spent + dt
        if spent > SLOW_CALL_S:
            break
    return best


def _peak(call, names, m, ops):
    args = [_fresh(m, ops[name]) for name in names]
    tracemalloc.start()
    try:
        call(m, *args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _deepest(name, d):
    if name.startswith("ap_p3"):
        return AP_DEPTH[d]
    if name == "materialize":
        return min(DENSE_DEPTH[d], DEEPEST[d])
    return (TABLE_DEPTH if name in TABLE_LAYERS else DEEPEST)[d]


def measure(packages):
    """Per package, one record per layer and window: d, depth, N, seconds,
    peak_mb, leaf_mb."""
    records = [[] for _ in packages]
    for d, depths in SIZES.items():
        for depth in depths:
            run = [name for name in LAYERS if depth <= _deepest(name, d)]
            if not run:
                continue
            sides = [(m, _operands(m, d, depth)) for m in packages]
            for name in run:
                _, call, names = LAYERS[name]
                for k, ((m, ops), secs) in enumerate(zip(sides, _times(call, names, sides))):
                    leaves = [ops[n] for n in names if isinstance(ops[n], m.fields.MatrixField)]
                    records[k].append({
                        "layer": name, "d": d, "depth": depth, "N": ops["win"].leafcount,
                        "seconds": secs, "peak_mb": _peak(call, names, m, ops) / 2**20,
                        "leaf_mb": sum(F.leaves.nbytes for F in leaves) / 2**20,
                    })
    return records


def _key(r):
    return r["layer"], r["d"], r["N"]


def _merge(old, new):
    """The records of two runs of one label: per layer and window the
    fastest time and the smaller peak."""
    before = {_key(r): r for r in old}
    return [
        {**r, "seconds": min(r["seconds"], before[_key(r)]["seconds"]),
         "peak_mb": min(r["peak_mb"], before[_key(r)]["peak_mb"])} if _key(r) in before else r
        for r in new
    ]


def compare(runs):
    """Per layer and window of both sides: parent / change time and the
    peak difference change - parent, in MB."""
    old = {_key(r): r for r in runs["parent"]["records"]}
    return [
        {"layer": r["layer"], "d": r["d"], "N": r["N"],
         "speedup": old[_key(r)]["seconds"] / r["seconds"],
         "peak_diff_mb": r["peak_mb"] - old[_key(r)]["peak_mb"]}
        for r in runs["change"]["records"] if _key(r) in old
    ]


def _env(against):
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "machine": platform.machine(), "cpus": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "n": N_COMPONENTS, "repeats": REPEATS, "interleaved": against is not None,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--against", default=None,
                    help="the parent checkout, run interleaved with this one")
    args = ap.parse_args(argv)
    packages, labels = [load(ROOT / "src")], ["change"]
    if args.against is not None:
        packages.append(load(Path(args.against) / "src", "matweight_against"))
        labels.append("parent")
    path = Path(args.out)
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.setdefault("layers", {k: v[0] for k, v in LAYERS.items()})
    runs = doc.setdefault("runs", {})
    for label, records in zip(labels, measure(packages)):
        if label in runs:
            records = _merge(runs[label]["records"], records)
        count = runs.get(label, {}).get("runs", 0) + 1
        runs[label] = {"env": _env(args.against), "runs": count, "records": records}
    if {"parent", "change"} <= runs.keys():
        doc["compare"] = compare(runs)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(runs['change']['records'])} records per side "
          f"{', '.join(labels)} to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
