"""Outside-in tracing of the matweight modules for the traced benchmark run.

The wrappers are installed from the benchmark, not from the library: every
traced name is replaced in each ``matweight`` module namespace that binds
the same object (``bmo`` binds ``ap_characteristic`` through
``from .fields import ...``, for example), and methods are replaced on their
class.  Spans (name, start, end, parent, op) are kept in memory and written
out when the run ends.  Self time is a span's duration minus the time of
its direct child spans.

A traced name that does not exist (a later commit renamed or removed it) is
skipped; every metric fed only by skipped names is reported as absent.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

P2_TOL = 1e-15  # the library's own test for the exact p = 2 path

# (module, attribute, layer time metric, layer call-count metric)
SPANS = [
    ("dyadic", "enumerate_grid_cubes", "dyadic.grid_cubes_s", "dyadic.grid_cubes_calls"),
    ("dyadic", "cube_pieces", "dyadic.cube_pieces_s", "dyadic.cube_pieces_calls"),
    ("fields", "ap_characteristic", "fields.ap_s", None),
    ("fields", "ap_characteristic_report", "fields.ap_s", None),
    ("fields", "MatrixField.power", "fields.power_s", "fields.power_calls"),
    ("fields", "ReducingTable.build", "fields.reducing_s", "fields.reducing_builds"),
    ("fields", "generate_weight", "fields.generate_s", None),
    ("fields", "dump_field", "fields.io_s", None),
    ("fields", "load_field", "fields.io_s", None),
    ("transforms", "analyze", "transforms.analyze_s", "transforms.analyze_calls"),
    ("transforms", "synthesize", "transforms.synthesize_s", "transforms.synthesize_calls"),
    *(
        ("transforms", name, "transforms.operator_s", None)
        for name in (
            "paraproduct",
            "conjugated_paraproduct",
            "dual_paraproduct",
            "haar_multiplier",
            "mu_multiplier",
            "haar_shift",
            "shift_commutator",
            "shift_commutator_terms",
            "dyadic_square_function",
            "weighted_square_function",
            "triebel_lizorkin_functional",
        )
    ),
    *(
        ("bmo", name, "bmo.condition_s", "bmo.condition_calls")
        for name in (
            "carleson_norm",
            "condition_b",
            "bloom_bprime",
            "bloom_cprime",
            "bmo_original",
            "hlw_condition",
        )
    ),
    *(
        ("bmo", name, "bmo.duality_s", None)
        for name in (
            "h1_norm",
            "a2_spectral",
            "extremal_h1_instance",
            "square_function_level_sets",
            "frobenius_pairing",
        )
    ),
    ("bmo", "equivalence_experiment", "bmo.driver_s", None),
    ("bmo", "duality_experiment", "bmo.driver_s", None),
    ("bmo", "bounded_weight", None, "bmo.bounded_weight_calls"),
    ("bmo", "bmo_over_shifted_grids", "bmo.grids_s", None),
    ("opnorm", "materialize", "opnorm.materialize_s", "opnorm.materialize_calls"),
    ("opnorm", "weighted_opnorm_p2", "opnorm.p2_norm_s", "opnorm.p2_norm_calls"),
    ("opnorm", "haar_multiplier_norm_relation", "opnorm.multiplier_s", None),
    ("opnorm", "lp_opnorm_estimate", "opnorm.lp_estimate_s", "opnorm.lp_estimate_calls"),
    ("stopping", "default_lambda", "stopping.search_s", "stopping.search_calls"),
    ("stopping", "build", "stopping.build_s", None),
    ("cli", "main", "cli.self_s", None),
]

# Counted without a span: cheap calls whose time belongs to the caller.
COUNTS = [
    ("fields", "_pair_gram"),
    ("fields", "MatrixField.reducing_table"),
]

AP_SPANS = ("fields.ap_characteristic", "fields.ap_characteristic_report")

# Metrics computed by hooks: metric -> the traced names it needs.
DERIVED = {
    "fields.ap_calls": AP_SPANS,
    "fields.ap_p2_calls": AP_SPANS,
    "fields.gram_bytes": ("fields._pair_gram",),
    "fields.reducing_lookups": ("fields.MatrixField.reducing_table",),
    "fields.reducing_net_builds": ("fields.ReducingTable.build",),
    "fields.io_bytes": ("fields.dump_field", "fields.load_field"),
    "bmo.bounded_weight_accept_ratio": ("bmo.bounded_weight", "fields.generate_weight"),
    "opnorm.dense_bytes": ("opnorm.materialize",),
    "stopping.lambda_steps": ("stopping.default_lambda",),
    "stopping.generations": ("stopping.build",),
    "stopping.stopped_cubes": ("stopping.build",),
}

def _arg(bound, name):
    return bound.arguments.get(name) if bound is not None else None


def _hook_ap(tracer, bound, result, parent):
    if parent in AP_SPANS:
        return  # ap_characteristic delegating to the report is one evaluation
    tracer.counters["fields.ap_calls"] += 1
    p = _arg(bound, "p")
    if p is not None and abs(float(p) - 2.0) < P2_TOL:
        tracer.counters["fields.ap_p2_calls"] += 1


def _hook_reducing_build(tracer, bound, result, parent):
    p = _arg(bound, "p")
    if p is not None and abs(float(p) - 2.0) >= P2_TOL:
        tracer.counters["fields.reducing_net_builds"] += 1


def _hook_io(tracer, bound, result, parent):
    path = _arg(bound, "path")
    if path is not None and os.path.exists(path):
        tracer.counters["fields.io_bytes"] += os.path.getsize(path)


def _hook_generate(tracer, bound, result, parent):
    if parent == "bmo.bounded_weight":
        tracer.counters["bmo.bounded_weight_attempts"] += 1


def _hook_materialize(tracer, bound, result, parent):
    size = getattr(result, "size", 0)
    tracer.counters["opnorm.dense_bytes"] += 16 * size * size


def _hook_lambda(tracer, bound, result, parent):
    tracer.counters["stopping.lambda_steps"] += round(math.log2(float(result)))


def _hook_stopping_build(tracer, bound, result, parent):
    gens = getattr(result, "generations", [])
    tracer.counters["stopping.generations"] = max(
        tracer.counters["stopping.generations"], len(gens)
    )
    tracer.counters["stopping.stopped_cubes"] += sum(len(g) for g in gens)


def _hook_gram(tracer, bound, result, parent):
    shape = getattr(result, "shape", ())
    if len(shape) == 2:
        tracer.counters["fields.gram_bytes"] += 8 * shape[0] * shape[1]


def _hook_lookup(tracer, bound, result, parent):
    tracer.counters["fields.reducing_lookups"] += 1


HOOKS = {
    "fields.ap_characteristic": _hook_ap,
    "fields.ap_characteristic_report": _hook_ap,
    "fields.ReducingTable.build": _hook_reducing_build,
    "fields.dump_field": _hook_io,
    "fields.load_field": _hook_io,
    "fields.generate_weight": _hook_generate,
    "opnorm.materialize": _hook_materialize,
    "stopping.default_lambda": _hook_lambda,
    "stopping.build": _hook_stopping_build,
    "fields._pair_gram": _hook_gram,
    "fields.MatrixField.reducing_table": _hook_lookup,
}
# Hooks that read arguments; the others only look at the result.
NEEDS_ARGS = {
    "fields.ap_characteristic",
    "fields.ap_characteristic_report",
    "fields.ReducingTable.build",
    "fields.dump_field",
    "fields.load_field",
}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.stack = []  # frames: [span index, child time, name]
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counters = defaultdict(int)
        self.op = None
        self.installed = set()
        self.missing = set()
        self._restore = []

    # -- installation ----------------------------------------------------

    def install(self):
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == "matweight" or name.startswith("matweight."))
        ]
        for mod, attr, _, _ in SPANS:
            self._install_one(modules, mod, attr, span=True)
        for mod, attr in COUNTS:
            self._install_one(modules, mod, attr, span=False)

    def _install_one(self, modules, mod, attr, span):
        name = f"{mod}.{attr}"
        home = sys.modules.get(f"matweight.{mod}")
        owner, _, member = attr.rpartition(".")
        target = getattr(home, owner, None) if owner else home
        raw = None if target is None else vars(target).get(member)
        if raw is None:
            self.missing.add(name)
            return
        if owner:  # a method, replaced once on its class
            is_cm = isinstance(raw, classmethod)
            fn = raw.__func__ if is_cm else raw
            wrapped = self._wrap(fn, name, span)
            setattr(target, member, classmethod(wrapped) if is_cm else wrapped)
            self._restore.append((target, member, raw))
        else:  # a function, replaced in every namespace that binds it
            wrapped = self._wrap(raw, name, span)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is raw:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, raw))
        self.installed.add(name)

    def uninstall(self):
        for obj, key, raw in reversed(self._restore):
            setattr(obj, key, raw)
        self._restore.clear()

    def _wrap(self, fn, name, span):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if name in NEEDS_ARGS else None
        tracer = self

        def bind(args, kwargs):
            if sig is None:
                return None
            try:
                return sig.bind(*args, **kwargs)
            except TypeError:
                return None

        if not span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                parent = tracer.stack[-1][2] if tracer.stack else None
                hook(tracer, bind(args, kwargs), result, parent)
                return result

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = tracer.stack
            parent_idx, parent = (stack[-1][0], stack[-1][2]) if stack else (None, None)
            frame = [len(tracer.spans), 0.0, name]
            tracer.spans.append(None)
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dur = t1 - t0
                tracer.self_time[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                tracer.spans[frame[0]] = (name, t0, t1, parent_idx, tracer.op)
                tracer.calls[name] += 1
            if hook is not None:
                hook(tracer, bind(args, kwargs), result, parent)
            return result

        return spanned

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Per-layer metric values; metrics fed only by missing names are absent."""
        sources = defaultdict(list)
        for mod, attr, time_metric, calls_metric in SPANS:
            for metric in (time_metric, calls_metric):
                if metric is not None:
                    sources[metric].append(f"{mod}.{attr}")
        for metric, names in DERIVED.items():
            sources[metric].extend(names)

        out = {}
        for metric, names in sources.items():
            if not any(n in self.installed for n in names):
                continue
            if metric.endswith("_s"):
                out[metric] = sum(self.self_time[n] for n in names if n in self.installed)
            elif metric in DERIVED:
                out[metric] = self.counters[metric]
            else:
                out[metric] = sum(self.calls[n] for n in names if n in self.installed)
        if "bmo.bounded_weight_accept_ratio" in out:
            attempts = self.counters["bmo.bounded_weight_attempts"]
            accepted = self.calls["bmo.bounded_weight"]
            # 0 when no bounded draw ran (the layer is idle on that workload)
            out["bmo.bounded_weight_accept_ratio"] = accepted / attempts if attempts else 0.0
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for rec in self.spans:
                if rec is None:
                    continue
                name, t0, t1, parent, op = rec
                fh.write(json.dumps(
                    {"name": name, "start": t0, "end": t1, "parent": parent, "op": op}
                ) + "\n")
