"""Capture the numbers a checkout reports, and compare two captures byte for byte.

    python3 tools/same_numbers.py capture DIR
    python3 tools/same_numbers.py compare A B

``capture`` runs the CLI of the checkout that holds this file (its ``src/``
comes first on the import path), in process through ``matweight.cli.main``,
with DIR as the working directory, so no output names a path.  It writes:

- the ``verify``, ``duality`` and ``jn`` CSV bodies (the timestamp line
  dropped), and the ``verify`` and ``duality`` JSON, for the default
  manifest, a d = 2 depth-3 manifest and an n = 3 depth-4 manifest;
- the ``gen`` dumps of the weight and symbol specs below;
- the ``stopping`` forest dumps at p = 2 and p = 3, with the searched
  lambda and with lambda = 8;
- ``bmo --format json`` for each ``--which``;
- the ``thm12 --out`` JSON of Lam = W and U at p = 2 and p = 3;
- the standard output of every command, ``ap`` included.

``compare`` prints every file that is missing on one side or differs, and
exits 1 if there is any.  For a differing JSON file it also says how far
the numbers moved: how many differ, the largest relative difference and
the key path of that number, or that the two sides differ in structure
(keys, lengths or a value other than a number).  To check that a change
keeps the numbers, capture at the parent and at the change, each from its
own checkout, and compare.
Standard library only, besides the checkout's own package.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

BASE = {"p_values": [2.0, 3.0, 1.5], "eps": 1.0, "amplitude": 0.5, "char_cap": 10.0}
CONFIG = {
    # name -> manifest, or None for the packaged default
    "manifests": {
        "default": None,
        "d2": {**BASE, "n": 2, "d": 2, "depth": 3, "seeds": [0, 1, 2]},
        "n3": {**BASE, "n": 3, "d": 1, "depth": 4, "seeds": [0, 1, 2]},
    },
    # name -> gen spec: weights W and U, a symbol B, and a d = 2 weight for the grids
    "specs": {
        "W": {"kind": "log_spd", "n": 2, "d": 1, "depth": 6, "seed": 1, "amplitude": 0.5},
        "U": {"kind": "log_spd", "n": 2, "d": 1, "depth": 6, "seed": 2, "amplitude": 0.5},
        "B": {"kind": "log_spd", "n": 2, "d": 1, "depth": 6, "seed": 3, "amplitude": 0.8},
        "W2": {"kind": "log_spd", "n": 2, "d": 2, "depth": 3, "seed": 4, "amplitude": 0.5},
    },
}


def _commands(config, bmo_which):
    """(output stem, argv) of every command of a capture, in run order."""
    for name, manifest in config["manifests"].items():
        given = [] if manifest is None else ["--manifest", f"{name}.manifest.json"]
        for command in ("verify", "duality", "jn"):
            yield f"{command}_{name}_csv", [command, *given, "--out", f"{command}_{name}.csv"]
        for command in ("verify", "duality"):
            yield f"{command}_{name}_json", [
                command, *given, "--format", "json", "--out", f"{command}_{name}.json"]
    for name in config["specs"]:
        yield f"gen_{name}", ["gen", "--spec", f"{name}.spec.json", "--out", f"{name}.mwf"]
    for p in ("2", "3"):
        yield f"stopping_p{p}", ["stopping", "--w", "W.mwf", "--u", "U.mwf", "--p", p,
                                 "--out", f"stopping_p{p}.json"]
        yield f"stopping_lam8_p{p}", ["stopping", "--w", "W.mwf", "--u", "U.mwf", "--p", p,
                                      "--lam", "8", "--out", f"stopping_lam8_p{p}.json"]
        yield f"ap_p{p}", ["ap", "--weight", "W.mwf", "--p", p]
        yield f"ap_grids_p{p}", ["ap", "--weight", "W2.mwf", "--p", p, "--grids", "all"]
        yield f"thm12_p{p}", ["thm12", "--lam-field", "W.mwf", "--u", "U.mwf", "--p", p,
                              "--out", f"thm12_p{p}.json"]
    for which in bmo_which:
        yield f"bmo_{which}", ["bmo", "--which", which, "--b", "B.mwf", "--w", "W.mwf",
                               "--u", "U.mwf", "--p", "3", "--format", "json",
                               "--out", f"bmo_{which}.json"]


def capture(out_dir, config=CONFIG):
    """Run every command of ``config`` in ``out_dir``; returns {stem: exit code}."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from matweight.cli import _BMO_WHICH, main

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, manifest in config["manifests"].items():
        if manifest is not None:
            (out_dir / f"{name}.manifest.json").write_text(json.dumps(manifest))
    for name, spec in config["specs"].items():
        (out_dir / f"{name}.spec.json").write_text(json.dumps(spec))
    codes = {}
    cwd = os.getcwd()
    os.chdir(out_dir)
    try:
        for stem, argv in _commands(config, _BMO_WHICH):
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                codes[stem] = main(argv)
            Path(f"{stem}.stdout").write_text(f"exit {codes[stem]}\n{stdout.getvalue()}")
        for csv in Path().glob("*.csv"):
            lines = csv.read_text().splitlines(keepends=True)
            if lines and lines[0].startswith("# generated:"):
                csv.write_text("".join(lines[1:]))
    finally:
        os.chdir(cwd)
    return codes


def compare(a, b):
    """Names of the files that differ between folders ``a`` and ``b``, or
    exist in only one of them."""
    a, b = Path(a), Path(b)
    names = {p.name for p in a.iterdir()} | {p.name for p in b.iterdir()}
    return sorted(
        name for name in names
        if not ((a / name).is_file() and (b / name).is_file())
        or (a / name).read_bytes() != (b / name).read_bytes()
    )


def _split(doc, path, numbers):
    """``doc`` with every number replaced by None; the numbers go into
    ``numbers`` under their key paths."""
    if isinstance(doc, dict):
        return {k: _split(v, f"{path}.{k}", numbers) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_split(v, f"{path}[{i}]", numbers) for i, v in enumerate(doc)]
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        numbers[path] = doc
        return None
    return doc


def _relative(x, y):
    if x == y or (x != x and y != y):  # equal, or both NaN
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def json_drift(a, b):
    """(numbers that differ, numbers, largest relative difference, its key
    path or None when no number moved) of two JSON files of the same
    structure; None if either does not parse or their structures differ."""
    numbers = {}, {}
    try:
        shapes = [_split(json.loads(Path(f).read_text()), "$", n) for f, n in zip((a, b), numbers)]
    except ValueError:
        return None
    if shapes[0] != shapes[1]:
        return None
    rel = {path: _relative(x, numbers[1][path]) for path, x in numbers[0].items()}
    worst = max(rel, key=rel.get, default=None)
    count = sum(r > 0 for r in rel.values())
    return count, len(rel), rel.get(worst, 0.0), worst if count else None


def _describe(a, b, name):
    """The line ``compare`` prints for a file that differs."""
    if not (name.endswith(".json") and (a / name).is_file() and (b / name).is_file()):
        return f"differs: {name}"
    drift = json_drift(a / name, b / name)
    if drift is None:
        return f"differs: {name} (structure differs)"
    count, total, worst, path = drift
    moved = f", largest relative difference {worst:.3g} at {path}" if count else ""
    return f"differs: {name} ({count} of {total} numbers differ{moved})"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("capture").add_argument("dir")
    cmp_ = sub.add_parser("compare")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    args = ap.parse_args(argv)
    if args.command == "capture":
        codes = capture(args.dir)
        print(f"captured {len(codes)} commands into {args.dir}; "
              f"nonzero exits: {sorted(k for k, c in codes.items() if c) or 'none'}")
        return 0
    diffs = compare(args.a, args.b)
    for name in diffs:
        print(_describe(Path(args.a), Path(args.b), name))
    print(f"{len(diffs)} of the files differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    raise SystemExit(main())
