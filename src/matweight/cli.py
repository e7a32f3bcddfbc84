"""Batch driver: generate weights, compute norms, run experiments.

Exit code contract: 0 iff every hard invariant exercised by the command
passes (exact identities, PSD orderings, decay bounds).  Comparability
band findings are report content and never fail the process.

CSV output starts with one timestamp comment line; the body below it is
byte-identical for a fixed seed list.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from datetime import datetime, timezone
from importlib import resources

import numpy as np

from . import bmo as bmo_mod
from . import fields as fmod
from . import stopping as stop_mod
from . import transforms as tf
from .dyadic import Window

CSV_COLUMNS = [
    "quantity",
    "p",
    "epsilon",
    "grid",
    "supremum",
    "witness_cube",
    "a2W",
    "a2U",
    "seed",
]


def _fmt(x):
    if isinstance(x, float):
        return format(x, ".12g")
    return str(x)


def _emit(path, text):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_csv(path, rows):
    """One row per sequence of values in ``CSV_COLUMNS`` order; a field
    holding a comma (a d >= 2 witness address) is quoted."""
    buf = io.StringIO()
    buf.write("# generated: " + datetime.now(timezone.utc).isoformat() + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows([_fmt(v) for v in row] for row in rows)
    _emit(path, buf.getvalue())


def _write_json(path, payload):
    _emit(path, json.dumps(payload, indent=1, default=_json_default) + "\n")


def _report_row(report, grid, a2W, a2U, seed):
    """The CSV row of one ``BmoReport``."""
    return [
        report.quantity, report.params["p"], report.params.get("eps", ""), grid,
        report.supremum, report.witness, a2W, a2U, seed,
    ]


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, bmo_mod.BmoReport):
        return vars(obj)
    return str(obj)


_GNUPLOT_TEMPLATE = """set datafile separator ','
set key outside
set xlabel 'seed'
set ylabel 'supremum'
set logscale y
plot '{csv}' using 9:5 with points title 'quantities by seed'
"""


def _write_report(args, rows, payload):
    """CSV rows or the JSON payload to --out, plus the --gnuplot script."""
    if args.format == "json":
        _write_json(args.out or "-", payload)
        return
    _write_csv(args.out or "-", rows)
    if getattr(args, "gnuplot", None) and args.out:
        _emit(args.gnuplot, _GNUPLOT_TEMPLATE.format(csv=args.out))


def _read_object(path):
    """The JSON object in the file at ``path``."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: holds a JSON {type(doc).__name__}, not an object")
    return doc


def _load_matrix(path, window=None):
    """The matrix field dumped at ``path``; a vector field dump is refused."""
    field = fmod.load_field(path, window=window)
    if not isinstance(field, fmod.MatrixField):
        raise fmod.FieldError(f"{path}: holds a vector field, expected kind 'matrix'")
    return field


def _load_manifest(args):
    manifest = _read_object(default_manifest_path() if args.manifest is None else args.manifest)
    if args.depth is not None:
        manifest["depth"] = args.depth
    if args.seeds:
        manifest["seeds"] = [int(s) for s in args.seeds.split(",")]
    return manifest


def default_manifest_path():
    return str(resources.files("matweight.data").joinpath("default_verify.json"))


# -- commands -----------------------------------------------------------------


def cmd_gen(args):
    field = fmod.generate_weight(_read_object(args.spec))
    char = fmod.ap_characteristic(field, args.p)  # rejects a bad p before the dump
    fmod.dump_field(field, args.out)
    print(f"wrote {args.out}  (n={field.n}, d={field.window.d}, "
          f"depth={field.window.depth}, A_{args.p:g} = {char:.6g})")
    return 0


def cmd_ap(args):
    if not 1.0 < args.p:
        raise ValueError("p must exceed 1")
    W = _load_matrix(args.weight)
    grids = None
    if args.grids:
        if args.grids == "all":
            grids = list(range(1, 2**W.window.d + 1))
        else:
            grids = [int(t) for t in args.grids.split(",")]
    value, witness = fmod.ap_characteristic_report(
        W, args.p, grids=grids, max_level=args.max_level
    )
    print(f"A_{args.p:g} characteristic = {value:.12g}")
    print(f"witness cube: {witness.address}")
    return 0


# --which name -> (B, W, U, p, eps) -> its reports.  Each looks its function up
# on bmo_mod when called, so a wrapper installed there sees the call.
_BMO = {
    # the exponent 1+eps is a parameter; reports carry a built-in sweep
    "bmo_original": lambda B, W, U, p, eps: bmo_mod.bmo_original_sweep(
        B, W, U, p, sorted({0.1, 0.5, 1.0, eps})),
    "carleson": lambda B, W, U, p, eps: [bmo_mod.carleson_norm(W, U, tf.analyze(B), p)],
    "condition_b": lambda B, W, U, p, eps: [bmo_mod.condition_b(W, U, tf.analyze(B), p)],
    "hlw": lambda B, W, U, p, eps: [bmo_mod.hlw_condition(B, W, U)],
    "bloom_bprime": lambda B, W, U, p, eps: [bmo_mod.bloom_bprime(B, W, U, p)],
    "bloom_cprime": lambda B, W, U, p, eps: [bmo_mod.bloom_cprime(B, W, U, p)],
    "buckley_fkp": lambda B, W, U, p, eps: list(bmo_mod.buckley_fkp_summation(W)),
    "h1": lambda B, W, U, p, eps: [bmo_mod.BmoReport(
        "h1_norm", bmo_mod.h1_norm(B, W, U), W.window.cube(0, 0).address, {"p": 2})],
}
_BMO_WHICH = (*_BMO, "grids")


def _hard_ok(reports):
    """The hard invariants the reports carry: Carleson's PSD band agreement
    and the Buckley PSD ordering (slack >= -1e-10)."""
    return all(
        r.extras.get("psd_band_ok", True) and r.extras.get("min_eig_slack", 0.0) >= -1e-10
        for r in reports
    )


def cmd_bmo(args):
    W = _load_matrix(args.w)
    U = _load_matrix(args.u, window=W.window) if args.u else W
    B = _load_matrix(args.b, window=W.window)
    if args.which == "grids":
        sweep = bmo_mod.bmo_over_shifted_grids(B, W, U, args.p, args.epsilon)
        _write_json(args.out or "-", sweep)
        return 0
    reports = _BMO[args.which](B, W, U, args.p, args.epsilon)
    hard_ok = _hard_ok(reports)
    a2W = fmod.ap_characteristic(W, 2)
    a2U = fmod.ap_characteristic(U, 2)
    rows = [_report_row(r, W.window.grid.shift, a2W, a2U, "") for r in reports]
    _write_report(args, rows, {"reports": reports, "hard_ok": hard_ok})
    return 0 if hard_ok else 1


def _probe(manifest, seed):
    """rng, window and n of ensemble seed ``seed`` of the manifest."""
    ((_, rng, win, n, _),) = bmo_mod._ensemble(dict(manifest, seeds=[seed]), ())
    return rng, win, n


def _identity_audits(manifest):
    """Cheap exact-identity checks backing the exit-code contract, drawn
    from seed 2024 on the manifest's window cut to depth 6 at most."""
    rng, win, n = _probe(manifest, 2024)
    win = Window.unit(win.d, min(win.depth, 6))
    audits = {}

    f = bmo_mod.random_vector_field(win, n, rng)
    g = tf.synthesize(tf.analyze(f))
    audits["roundtrip"] = float(np.max(np.abs(f.leaves - g.leaves))) <= 1e-11

    Phi = bmo_mod.random_matrix_field(win, n, rng)
    Bf = bmo_mod.random_matrix_field(win, n, rng)
    sp = bmo_mod.frobenius_pairing(Phi, Bf)
    ss = bmo_mod.frobenius_pairing_spectral(Phi, Bf)
    audits["pairing_parseval"] = abs(sp - ss) <= 1e-10 * max(1.0, abs(sp))

    B = bmo_mod.random_matrix_field(win, n, rng, headroom=1)
    h = bmo_mod.random_vector_field(win, n, rng, headroom=1)
    smap = tf.ShiftMap.random(win, rng)
    terms = tf.shift_commutator_terms(B, smap, h)
    total = sum((t.leaves for _, t in terms), np.zeros_like(h.leaves))
    direct = tf.shift_commutator(B, smap, h)
    scale = max(1.0, float(np.max(np.abs(direct.leaves))))
    audits["commutator_decomposition"] = (
        float(np.max(np.abs(total - direct.leaves))) <= 1e-9 * scale
    )

    W = bmo_mod.bounded_weight(win, n, rng)
    U = bmo_mod.bounded_weight(win, n, rng)
    lam = stop_mod.default_lambda(W, U, 2.0)
    forest = stop_mod.build(W, U, 2.0, lam=lam)
    audits["stopping_decay"] = (
        stop_mod.verify_decay(forest).all_ok and stop_mod._rule_holds(forest, W, U)
    )

    audits["buckley_psd"] = _hard_ok(bmo_mod.buckley_fkp_summation(W))
    return audits


_VERIFY_QUANTITIES = (
    "carleson_norm",
    "condition_b",
    "hlw_condition",
    "bloom_bprime",
    "bloom_cprime",
    "bmo_original",
    "pi_opnorm_sq",
)


def cmd_verify(args):
    manifest = _load_manifest(args)
    result = bmo_mod.equivalence_experiment(manifest)
    audits = _identity_audits(manifest)
    grid = _probe(manifest, 0)[1].grid.shift
    rows = [
        [q, r["p"], r["eps"], grid, r[q], r.get(q + "_witness", ""), r["a2W"], r["a2U"], r["seed"]]
        for r in result["rows"]
        for q in _VERIFY_QUANTITIES
        if q in r
    ]
    psd_ok = all(r.get("psd_band_ok", True) for r in result["rows"])
    hard_ok = all(audits.values()) and psd_ok
    _write_report(args, rows, {
        "rows": result["rows"],
        "bands": {str(k): v for k, v in result["bands"].items()},
        "audits": audits,
        "hard_ok": hard_ok,
    })
    for name, ok in sorted(audits.items()):
        print(f"audit {name}: {'pass' if ok else 'FAIL'}")
    print(f"psd band agreement: {'pass' if psd_ok else 'FAIL'}")
    nband = len(result["bands"])
    print(f"recorded {len(rows)} measurements, {nband} ratio bands")
    return 0 if hard_ok else 1


def cmd_duality(args):
    manifest = _load_manifest(args)
    report = bmo_mod.duality_experiment(manifest)
    grid = _probe(manifest, 0)[1].grid.shift
    rows = [
        ["duality_" + key, 2, "", grid, r[key], "", r["a2W"], r["a2U"], r["seed"]]
        for r in report["rows"]
        for key in ("upper_ratio", "extremal_h1")
    ]
    hard_ok = all(r["extremal_h1_ok"] for r in report["rows"])
    _write_report(args, rows, {**report, "hard_ok": hard_ok})
    print(f"upper ratio ceiling: {report['upper_ratio_ceiling']:.6g}")
    print(f"extremal H1 bound: {'pass' if hard_ok else 'FAIL'}")
    return 0 if hard_ok else 1


def cmd_stopping(args):
    W = _load_matrix(args.w)
    U = _load_matrix(args.u, window=W.window) if args.u else W
    if args.lam == "auto":
        lam = stop_mod.default_lambda(W, U, args.p)
    else:
        lam = float(args.lam)
    forest = stop_mod.build(W, U, args.p, lam=lam)
    report = stop_mod.verify_decay(forest)
    if args.out:
        stop_mod.dump_forest(forest, args.out)
    print(f"lambda = {lam:g}, generations = {len(forest.generations)}")
    for j, (r, b, ok) in enumerate(zip(report.ratios, report.bounds, report.ok)):
        print(
            f"  gen {j + 1}: |union J|/|root| = {float(r):.6g} "
            f"(bound {float(b):.6g}) {'pass' if ok else 'FAIL'}"
        )
    return 0 if report.all_ok else 1


def cmd_jn(args):
    manifest = _load_manifest(args)
    result = bmo_mod.jn_experiment(manifest)
    grid = _probe(manifest, 0)[1].grid.shift
    rows = [
        _report_row(rep, grid, r["a2W"], "", r["seed"])
        for r in result["rows"]
        for rep in r["reports"]
    ]
    _write_csv(args.out or "-", rows)
    print(f"degenerate-zero check: {'pass' if result['zero_ok'] else 'FAIL'}")
    return 0 if result["zero_ok"] else 1


def cmd_thm12(args):
    Lam = _load_matrix(args.lam_field)
    U = _load_matrix(args.u, window=Lam.window)
    out = bmo_mod.matrix_weight_theorem_pipeline(Lam, U, args.p, args.epsilon)
    print(f"identity error: {out['identity_error']:.3e} "
          f"({'pass' if out['identity_ok'] else 'FAIL'})")
    print(f"A_p(W) = {out['ap_W']:.6g}")
    print(f"bmo_original(U; Lam, W) = {out['bmo'].supremum:.6g} "
          f"witness {out['bmo'].witness}")
    for key in ("fkp", "buckley", "isral"):
        if key in out:
            print(f"{key}: {out[key].supremum:.6g}")
    if args.out:
        _write_json(args.out, {k: v for k, v in out.items() if k != "W"})
    return 0 if out["identity_ok"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="matweight",
        description="two-matrix-weighted dyadic harmonic analysis experiments",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a weight field from a JSON spec")
    g.add_argument("--spec", required=True)
    g.add_argument("--out", required=True)
    g.add_argument("--p", type=float, default=2.0)
    g.set_defaults(fn=cmd_gen)

    a = sub.add_parser("ap", help="A_p characteristic of a weight dump")
    a.add_argument("--weight", required=True)
    a.add_argument("--p", type=float, required=True)
    a.add_argument("--grids", default=None, help="'all' or comma list of shifts")
    a.add_argument("--max-level", type=int, default=None)
    a.set_defaults(fn=cmd_ap)

    b = sub.add_parser("bmo", help="compute one BMO/Carleson quantity")
    b.add_argument("--which", choices=_BMO_WHICH, required=True)
    b.add_argument("--b", required=True, help="symbol field dump")
    b.add_argument("--w", required=True, help="weight W dump")
    b.add_argument("--u", default=None, help="weight U dump (default: W)")
    b.add_argument("--p", type=float, default=2.0)
    b.add_argument("--epsilon", type=float, default=1.0)
    b.add_argument("--out", default=None)
    b.add_argument("--format", choices=("csv", "json"), default="csv")
    b.set_defaults(fn=cmd_bmo)

    for name, help_text, fn in (
        ("verify", "ensemble equivalence experiment", cmd_verify),
        ("duality", "H1-BMO duality ratio experiment", cmd_duality),
        ("jn", "John-Nirenberg pair ensembles", cmd_jn),
    ):
        e = sub.add_parser(name, help=help_text)
        e.add_argument("--manifest", default=None)
        e.add_argument("--depth", type=int, default=None)
        e.add_argument("--seeds", default=None, help="comma list, overrides manifest")
        e.add_argument("--out", default=None)
        if fn is not cmd_jn:
            e.add_argument("--format", choices=("csv", "json"), default="csv")
            e.add_argument("--gnuplot", default=None, help="also write a plot script")
        e.set_defaults(fn=fn)

    st = sub.add_parser("stopping", help="stopping forest and decay report")
    st.add_argument("--w", required=True)
    st.add_argument("--u", default=None)
    st.add_argument("--p", type=float, default=2.0)
    st.add_argument("--lam", default="auto", help="threshold or 'auto'")
    st.add_argument("--out", default=None)
    st.set_defaults(fn=cmd_stopping)

    t = sub.add_parser("thm12", help="two-weight construction pipeline")
    t.add_argument("--lam-field", required=True, help="Lambda weight dump")
    t.add_argument("--u", required=True, help="U matrix field dump")
    t.add_argument("--p", type=float, default=2.0)
    t.add_argument("--epsilon", type=float, default=1.0)
    t.add_argument("--out", default=None)
    t.set_defaults(fn=cmd_thm12)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
