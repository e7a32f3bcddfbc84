"""The three benchmark workloads: ``ensemble``, ``p2`` and ``window``.

Each workload turns the workload seed into its inputs, prepares them in
``setup`` and yields ops.  An op is one closed-loop unit of work: ``run``
is timed, ``check`` then turns the raw output into a JSON-able record, a
list of violated invariants and the bytes of report output the op wrote.
Records are what the reference and the traced-versus-untraced comparison
look at.

All three use n = 2 and real ``log_spd`` weights with amplitude 0.5 and
A_2 cap 10, except the window workload's U, which is complex Hermitian.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
from typing import Callable, NamedTuple

import numpy as np

from matweight import bmo, cli, opnorm, transforms
from matweight import fields as fm
from matweight.dyadic import Window

N = 2
AMPLITUDE = 0.5
CHAR_CAP = 10.0

# Seed streams: every input is derived from (workload seed, stream, index).
OPS, WARMUP, DENSE, WINDOW_SEED = 1, 2, 3, 4


def derive(seed, *key):
    """A 32-bit seed that depends only on the workload seed and the key."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


class Op(NamedTuple):
    index: object  # int for timed ops, "warmup" for the warm-up op
    family: str
    label: str
    run: Callable
    check: Callable


def jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def tokens(text):
    """Split text into its literal parts and its numbers, for tolerant compare."""
    return {
        "text": _NUMBER.split(text),
        "nums": [float(m) for m in _NUMBER.findall(text)],
    }


def mismatch(got, want, path="$"):
    """First difference between two records, or None.

    Numbers follow the scalar-oracle rule of the test suite,
    |got - want| <= 1e-12 + 1e-9 |want|; everything else must be equal.
    """
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return f"{path}: keys differ"
        for k in want:
            bad = mismatch(got[k], want[k], f"{path}.{k}")
            if bad:
                return bad
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{path}: length differs"
        for i, (g, w) in enumerate(zip(got, want)):
            bad = mismatch(g, w, f"{path}[{i}]")
            if bad:
                return bad
        return None
    numeric = (int, float)
    if (
        isinstance(want, numeric) and not isinstance(want, bool)
        and isinstance(got, numeric) and not isinstance(got, bool)
    ):
        if math.isnan(want) and math.isnan(got):
            return None
        if got == want or abs(got - want) <= 1e-12 + 1e-9 * abs(want):
            return None
        return f"{path}: {got!r} != {want!r}"
    return None if got == want else f"{path}: {got!r} != {want!r}"


def _finite(values):
    return all(
        math.isfinite(v) for v in values if isinstance(v, float)
    )


# -- ensemble -----------------------------------------------------------------


class Ensemble:
    """One op = one seed of ``bmo.equivalence_experiment`` (the verify unit)."""

    name = "ensemble"
    nominal_op_s = 0.15

    def __init__(self, seed, smoke):
        self.seed = seed
        self.manifest = {
            "n": N,
            "d": 1,
            "depth": 3 if smoke else 6,
            "p_values": [2.0, 3.0, 1.5],
            "eps": 1.0,
            "amplitude": AMPLITUDE,
            "char_cap": CHAR_CAP,
        }

    def setup(self, workdir):
        pass  # inputs are drawn from the op seed inside the library call

    def _op(self, index, op_seed):
        spec = dict(self.manifest, seeds=[op_seed])

        def run():
            return bmo.equivalence_experiment(spec)

        def check(result):
            rows = jsonable(result["rows"])
            problems = []
            if len(rows) != len(spec["p_values"]):
                problems.append(f"{len(rows)} rows for {len(spec['p_values'])} exponents")
            for row in rows:
                if not row.get("psd_band_ok", False):
                    problems.append(f"psd_band_ok false at p={row['p']}")
                if not _finite(row.values()):
                    problems.append(f"non-finite value at p={row['p']}")
            return {"rows": rows}, problems, 0

        return Op(index, "ensemble", "equivalence_experiment", run, check)

    def warmup_op(self):
        return self._op("warmup", derive(self.seed, WARMUP))

    def ops(self, count=None):
        i = 0
        while count is None or i < count:
            yield self._op(i, derive(self.seed, OPS, i))
            i += 1


# -- p2 -------------------------------------------------------------------------


class P2:
    """One op = one seed of ``bmo.duality_experiment`` at depth 8 plus the
    p = 2 dense block of acceptance criterion 04 on a fresh bounded pair."""

    name = "p2"
    nominal_op_s = 0.5

    def __init__(self, seed, smoke):
        self.seed = seed
        self.depth = 4 if smoke else 8

    def setup(self, workdir):
        pass

    def _op(self, index, op_seed, dense_seed):
        depth = self.depth
        spec = {
            "n": N,
            "d": 1,
            "depth": depth,
            "seeds": [op_seed],
            "amplitude": AMPLITUDE,
            "char_cap": CHAR_CAP,
        }

        def run():
            dual = bmo.duality_experiment(spec)
            rng = np.random.default_rng(dense_seed)
            win = Window.unit(1, depth)
            W = bmo.bounded_weight(win, N, rng, amplitude=AMPLITUDE, char_cap=CHAR_CAP)
            U = bmo.bounded_weight(win, N, rng, amplitude=AMPLITUDE, char_cap=CHAR_CAP)
            A = transforms.analyze(bmo.random_matrix_field(win, N, rng))
            T = opnorm.materialize(
                {"kind": "conjugated_paraproduct", "A": A, "W": W, "U": U, "p": 2.0},
                win, N,
            )
            f = bmo.random_vector_field(win, N, rng)
            direct = transforms.conjugated_paraproduct(A, W, U, 2.0, f).leaves
            via = T.apply_field(f).leaves
            norm = opnorm.weighted_opnorm_p2(T, W, U)
            adjoint = opnorm.OperatorMatrix(T.matrix.conj().T, win, N, "adjoint")
            norm_adj = opnorm.weighted_opnorm_p2(adjoint, U.inverse(), W.inverse())
            relation = opnorm.haar_multiplier_norm_relation(A, W, U, 2.0)
            return {
                "dual": dual,
                "materialize_err": float(np.max(np.abs(direct - via))),
                "materialize_scale": max(1.0, float(np.max(np.abs(direct)))),
                "opnorm": norm,
                "adjoint_opnorm": norm_adj,
                "relation": relation,
            }

        def check(out):
            (row,) = jsonable(out["dual"]["rows"])
            rel = jsonable(out["relation"])
            problems = []
            if not row["extremal_h1_ok"]:
                problems.append("extremal_h1_ok false")
            if not row["extremal_deep_ok"]:
                problems.append("extremal_deep_ok false")
            if not out["materialize_err"] <= 1e-10 * out["materialize_scale"]:
                problems.append(f"materialize differs by {out['materialize_err']:.3e}")
            gap = abs(out["opnorm"] - out["adjoint_opnorm"])
            if not gap <= 1e-9 * max(1.0, out["opnorm"]):
                problems.append(f"adjoint duality gap {gap:.3e}")
            if not rel["exact"]:
                problems.append("haar_multiplier_norm_relation not exact at p = 2")
            record = {
                "row": row,
                "opnorm": out["opnorm"],
                "adjoint_opnorm": out["adjoint_opnorm"],
                "relation": rel,
            }
            if not _finite(list(row.values()) + [out["opnorm"], out["adjoint_opnorm"]]):
                problems.append("non-finite value")
            return record, problems, 0

        return Op(index, "p2", "duality_experiment+dense_block", run, check)

    def warmup_op(self):
        return self._op("warmup", derive(self.seed, WARMUP), derive(self.seed, WARMUP, DENSE))

    def ops(self, count=None):
        i = 0
        while count is None or i < count:
            yield self._op(i, derive(self.seed, OPS, i), derive(self.seed, DENSE, i))
            i += 1


# -- window ---------------------------------------------------------------------


def _unitary():
    """The fixed complex unitary Q that makes U = Q W' Q^H complex Hermitian."""
    a, phase = 0.6, 0.9
    c, s = math.cos(a), math.sin(a)
    return np.array(
        [[c, -s * np.exp(-1j * phase)], [s * np.exp(1j * phase), c]]
    )


def _capped_spec(rng, d, depth):
    """A log_spd spec whose weight has A_2 <= CHAR_CAP (bounded_weight's rule:
    redraw with the amplitude shrunk by 0.6 until the cap holds)."""
    amp = AMPLITUDE
    for _ in range(24):
        spec = {
            "kind": "log_spd", "n": N, "d": d, "depth": depth,
            "amplitude": amp, "seed": int(rng.integers(0, 2**31)),
        }
        W = fm.generate_weight(spec)
        if fm.a2_exact_form(W) <= CHAR_CAP:
            return spec, W
        amp *= 0.6
    raise RuntimeError("no weight under the characteristic cap")


def _field_summary(path):
    """Header plus moments of a field dump, read without the library."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline().decode())
        data = np.frombuffer(fh.read(), dtype="<c16")
    return {
        "header": header,
        "sum": [float(data.real.sum()), float(data.imag.sum())],
        "sumsq": float(np.sum(np.abs(data) ** 2)),
    }


def _forest_summary(path):
    with open(path) as fh:
        doc = json.load(fh)
    blocks = json.dumps(doc.pop("blocks"), separators=(",", ":")).encode()
    doc["blocks_sha256"] = hashlib.sha256(blocks).hexdigest()
    return doc


def _csv_body(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    return tokens("\n".join(lines[1:]))  # line 1 is the generation timestamp


def _json_doc(path):
    with open(path) as fh:
        return json.load(fh)


class WindowCommands:
    """One op = one ``matweight.cli.main`` command on dumped fields.

    A cycle runs nine commands for one window seed: part 1 at d = 1, depth
    12 (gen W, gen B, ap p = 3, stopping at p = 2 and 3 against the complex
    U, bmo carleson and bmo_original at p = 3); part 2 at d = 2, depth 5
    with real weights (ap p = 2 over all grids, bmo grids at p = 2).
    """

    name = "window"
    nominal_op_s = 10.0  # one cycle; sizes the cycle count from --seconds

    def __init__(self, seed, smoke):
        self.seed = seed
        self.depth1 = 6 if smoke else 12
        self.depth2 = 3 if smoke else 5
        self.cycles = 1

    def setup(self, workdir):
        Q = _unitary()
        for c in range(self.cycles):
            rng = np.random.default_rng(derive(self.seed, WINDOW_SEED, c))
            d = os.path.join(workdir, f"w{c}")
            os.makedirs(d, exist_ok=True)
            w_spec, _ = _capped_spec(rng, 1, self.depth1)
            b_spec = {
                "kind": "log_spd", "n": N, "d": 1, "depth": self.depth1,
                "amplitude": AMPLITUDE, "seed": int(rng.integers(0, 2**31)),
            }
            for name, spec in (("W.json", w_spec), ("B.json", b_spec)):
                with open(os.path.join(d, name), "w") as fh:
                    json.dump(spec, fh)
            _, Wr = _capped_spec(rng, 1, self.depth1)
            U = fm.MatrixField(Wr.window, Q @ Wr.leaves @ Q.conj().T, weight=True)
            fm.dump_field(U, os.path.join(d, "U.mwf"))
            win2 = Window.unit(2, self.depth2)
            W2 = bmo.bounded_weight(win2, N, rng, amplitude=AMPLITUDE, char_cap=CHAR_CAP)
            U2 = bmo.bounded_weight(win2, N, rng, amplitude=AMPLITUDE, char_cap=CHAR_CAP)
            B2 = bmo.random_matrix_field(win2, N, rng)
            for name, field in (("W2.mwf", W2), ("U2.mwf", U2), ("B2.mwf", B2)):
                fm.dump_field(field, os.path.join(d, name))
        warm = os.path.join(workdir, "warm")
        os.makedirs(warm, exist_ok=True)
        spec = {
            "kind": "log_spd", "n": N, "d": 1, "depth": self.depth1,
            "amplitude": AMPLITUDE, "seed": derive(self.seed, WARMUP),
        }
        with open(os.path.join(warm, "W.json"), "w") as fh:
            json.dump(spec, fh)

    @staticmethod
    def _command(index, family, argv, out=None, reader=None):
        def run():
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
            return rc, stdout.getvalue(), stderr.getvalue()

        def check(result):
            rc, stdout, stderr = result
            problems = [] if rc == 0 else [
                f"{' '.join(argv[:3])}: exit {rc}: {stderr.strip()[-200:]}"
            ]
            record = {"argv": argv, "rc": rc, "stdout": tokens(stdout)}
            out_bytes = len(stdout.encode())
            if rc == 0 and reader is not None:
                record["out"] = reader(out)
                if reader is not _field_summary:
                    out_bytes += os.path.getsize(out)
            return record, problems, out_bytes

        label = " ".join(a for a in argv if not a.endswith((".mwf", ".json", ".csv")))
        return Op(index, family, label, run, check)

    def warmup_op(self):
        out = "warm/W.mwf"
        return self._command(
            "warmup", "gen", ["gen", "--spec", "warm/W.json", "--out", out], out, _field_summary
        )

    def cycle(self, c, first_index):
        d = f"w{c}"
        W, B, U = f"{d}/W.mwf", f"{d}/B.mwf", f"{d}/U.mwf"
        W2, B2, U2 = f"{d}/W2.mwf", f"{d}/B2.mwf", f"{d}/U2.mwf"
        f2, f3 = f"{d}/forest_p2.json", f"{d}/forest_p3.json"
        car, orig, grids = f"{d}/carleson.csv", f"{d}/bmo_original.csv", f"{d}/grids.json"
        pair = ["--b", B, "--w", W, "--u", U, "--p", "3"]
        commands = [
            ("gen", ["gen", "--spec", f"{d}/W.json", "--out", W], W, _field_summary),
            ("gen", ["gen", "--spec", f"{d}/B.json", "--out", B], B, _field_summary),
            ("ap", ["ap", "--weight", W, "--p", "3"], None, None),
            ("stopping", ["stopping", "--w", W, "--u", U, "--p", "2", "--lam", "auto",
                          "--out", f2], f2, _forest_summary),
            ("stopping", ["stopping", "--w", W, "--u", U, "--p", "3", "--lam", "auto",
                          "--out", f3], f3, _forest_summary),
            ("bmo", ["bmo", "--which", "carleson", *pair, "--out", car], car, _csv_body),
            ("bmo", ["bmo", "--which", "bmo_original", *pair, "--out", orig], orig, _csv_body),
            ("grids", ["ap", "--weight", W2, "--p", "2", "--grids", "all"], None, None),
            ("grids", ["bmo", "--which", "grids", "--b", B2, "--w", W2, "--u", U2,
                       "--p", "2", "--out", grids], grids, _json_doc),
        ]
        return [
            self._command(first_index + k, fam, argv, out, reader)
            for k, (fam, argv, out, reader) in enumerate(commands)
        ]

    def ops(self, count=None):
        """Every prepared cycle, in order.  ``count`` is unused: ``cycles``
        must be set before ``setup``, which prepares one window seed each."""
        index = 0
        for c in range(self.cycles):
            ops = self.cycle(c, index)
            index += len(ops)
            yield from ops


WORKLOADS = {"ensemble": Ensemble, "p2": P2, "window": WindowCommands}
