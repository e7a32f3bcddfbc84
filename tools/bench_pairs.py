"""Pair saved benchmark results of a parent and a change into a BENCH file.

    python3 tools/bench_pairs.py RUNS --label L --parent-commit C \
        --change "what the change does" --out BENCH_L.json

``perfbench/run.py`` writes ``.bench_out/result-<workload>-seed<S>-trace<T>.json``
and overwrites it on the next run, so copy each file as soon as its run ends
(``cp -p`` keeps the modification time, which orders a pair):

    RUNS/<set>/<NN>-parent.json   untraced runs, e.g. RUNS/window_seed0/01-parent.json
    RUNS/<set>/<NN>-change.json
    RUNS/traced_<set>/<NN>-parent.json   traced runs (--trace 1), same naming

Every untraced set needs at least two complete pairs.  It becomes
``workloads[<set>]`` with the runs of each pair and, per end-to-end metric of
BENCHMARK.json, the median and quartiles of each side, the change's wins (ties
count for neither side), the difference of the medians, the parent's
interquartile range, the metric's ``bound`` and ``within_bound``: false when
the change's median is worse than the parent's by more than ``bound`` times
the parent's median, and ``resolved``: false when the parent's interquartile
range exceeds ``bound`` times its median, so the runs spread too widely to
tell a change of that size, unless every change run beats every parent run
(both null for a metric without a bound).  Every traced set
becomes a top-level ``traced_<set>`` list of per-layer metrics, one entry
per pair.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _load(path):
    with open(path) as fh:
        doc = json.load(fh)
    values = {k: m["value"] for k, m in doc["metrics"].items()}
    attempted = sum(doc["env"]["ops"].values())
    failed = round(doc["fail_ratio"] * attempted)
    return doc["env"], {"correct": failed == 0, "attempted": attempted, "failed": failed, **values}


def _pairs(folder):
    """[(number, {side: path})] for every pair that has both sides."""
    found = {}
    for path in sorted(folder.glob("*-*.json")):
        number, _, side = path.stem.partition("-")
        if side in SIDES:
            found.setdefault(number, {})[side] = path
    return [(n, paths) for n, paths in sorted(found.items()) if len(paths) == 2]


def _stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs, metrics):
    """Per metric: each side's median and quartiles, the change's wins, the
    median difference (change - parent), the parent's IQR, whether the
    change's median stays within the metric's bound, and whether the
    parent's spread resolves a change of that bound."""
    out = {}
    for name, metric in metrics.items():
        parent = [r["parent"][name] for r in runs]
        change = [r["change"][name] for r in runs]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ps, cs = _stats(parent), _stats(change)
        bound = metric.get("bound")
        worse_by = sign * (ps["median"] - cs["median"])
        iqr = ps["q3"] - ps["q1"]
        beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
        out[name] = {
            "parent": ps,
            "change": cs,
            "change_wins": f"{wins}/{len(runs)}",
            "median_diff": cs["median"] - ps["median"],
            "parent_iqr": iqr,
            "change_vs_parent": cs["median"] / ps["median"] if ps["median"] else None,
            "bound": bound,
            "within_bound": None if bound is None else worse_by <= bound * abs(ps["median"]),
            "resolved": None if bound is None else iqr <= bound * abs(ps["median"]) or beats_all,
        }
    return out


def build(runs_dir, metrics):
    env, workloads, traced = None, {}, {}
    for folder in sorted(p for p in Path(runs_dir).iterdir() if p.is_dir()):
        entries = []
        for number, paths in _pairs(folder):
            loaded = {side: _load(paths[side]) for side in SIDES}
            env = env or loaded["parent"][0]
            first = min(SIDES, key=lambda s: paths[s].stat().st_mtime)
            entries.append({"pair": int(number), "first": first,
                            **{side: loaded[side][1] for side in SIDES}})
        if not entries:
            continue
        if folder.name.startswith("traced_"):
            traced[folder.name] = [{side: e[side] for side in SIDES} for e in entries]
        elif len(entries) < 2:
            raise SystemExit(f"error: {folder} has {len(entries)} complete parent/change "
                             "pair; its quartiles need at least two")
        else:
            workloads[folder.name] = {"summary": summarize(entries, metrics), "pairs": entries}
    return env, workloads, traced


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("runs", help="folder of per-set run folders (see the module docstring)")
    ap.add_argument("--label", required=True)
    ap.add_argument("--parent-commit", required=True)
    ap.add_argument("--change", required=True, help="one paragraph: what the change does")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    env, workloads, traced = build(args.runs, metrics)
    if not workloads:
        raise SystemExit(f"error: no complete parent/change pairs under {args.runs}")
    doc = {
        "label": args.label,
        "change": args.change,
        "parent_commit": args.parent_commit,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {env['seconds']:g} --trace T",
        "method": "parent and change checked out side by side, identical perfbench code; "
                  "alternating pairs (the 'first' field names the side that ran first); "
                  "values are the .bench_out/result-*.json of each run",
        "env": env,
        "workloads": workloads,
        **traced,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
