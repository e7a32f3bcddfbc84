"""The operand contract: a public entry point that takes two or more operands
(fields, spectra, shift maps, operator matrices, descriptors, windows)
refuses operands on different windows with WindowError, before any work.

``CONTRACT`` lists those entry points; ``test_contract_table_is_complete``
reads every public signature of ``bmo``, ``transforms``, ``opnorm`` and
``stopping`` (plus ``MatrixField.apply`` and ``VectorField.lp_norm``) and
fails when one with two or more operand parameters is missing from it.
"""

import inspect

import numpy as np
import pytest

from matweight import bmo, fields, opnorm, stopping, transforms as tf
from matweight.dyadic import Window, WindowError
from matweight.fields import MatrixField, VectorField

N = 2

CONTRACT = [
    bmo.bmo_original,
    bmo.bmo_original_sweep,
    bmo.carleson_norm,
    bmo.condition_b,
    bmo.hlw_condition,
    bmo.bloom_bprime,
    bmo.bloom_cprime,
    bmo.jn_p2_pair,
    bmo.vector_jn,
    bmo.h1_norm,
    bmo.square_function_level_sets,
    bmo.frobenius_pairing,
    bmo.frobenius_pairing_spectral,
    bmo.extremal_h1_instance,
    bmo.bmo_over_shifted_grids,
    bmo.matrix_weight_theorem_pipeline,
    tf.paraproduct,
    tf.conjugated_paraproduct,
    tf.dual_paraproduct,
    tf.haar_multiplier,
    tf.mu_multiplier,
    tf.haar_shift,
    tf.shift_commutator,
    tf.shift_commutator_terms,
    tf.weighted_square_function,
    tf.triebel_lizorkin_functional,
    opnorm.materialize,
    opnorm.weighted_norm_p2,
    opnorm.lp_opnorm_estimate,
    opnorm.haar_multiplier_norm_relation,
    stopping.build,
    stopping.default_lambda,
    MatrixField.apply,
    VectorField.lp_norm,
]

# Entry points that take an operator in either form, a descriptor ("op") or
# an operator matrix ("T"), and the parameter that takes it; each form is a
# case of its own.
EITHER_FORM = {opnorm.weighted_norm_p2: "op", opnorm.lp_opnorm_estimate: "T"}
FORM_NAMES = {"op": "descriptor", "T": "matrix"}

# Parameters that are not operands; every other parameter is one.
NOT_OPERANDS = {
    "p", "eps", "epsilons", "root", "lam", "budget", "spec", "n", "rng",
    "hermitian", "headroom", "amplitude", "char_cap", "kind", "what", "path",
}
# Values for the non-operand parameters without a default.
SCALARS = {"p": 2.0, "n": N, "epsilons": (1.0,)}
# Operand parameters named otherwise than the operand they take.
ALIASES = {"vec_field": "f", "weight": "W", "MatrixField": "B", "VectorField": "f"}


def _operand_params(fn):
    return [name for name in inspect.signature(fn).parameters if name not in NOT_OPERANDS]


def _operands(win):
    """One fresh operand of each kind on ``win``: no field cache is filled."""
    rng = np.random.default_rng(5)

    def weight(seed):
        spec = {"kind": "log_spd", "n": N, "amplitude": 0.3, "seed": seed}
        return fields.generate_weight(spec, window=win)

    B = bmo.random_matrix_field(win, N, rng, headroom=1)
    A = tf.analyze(B)
    ops = {
        "W": weight(1), "U": weight(2), "Lam": weight(3), "B": B, "A": A,
        "Phi": bmo.random_matrix_field(win, N, rng),
        "f": bmo.random_vector_field(win, N, rng, headroom=1),
        "smap": tf.ShiftMap.random(win, rng),
        "T": opnorm.materialize({"kind": "haar_multiplier", "A": A}, win, N),
        "window": win,
    }
    ops["op"] = {"kind": "conjugated_paraproduct", "A": A, "W": ops["W"], "U": ops["U"], "p": 2.0}
    return ops


def _arguments(fn, ops, form=None):
    """Keyword arguments for ``fn``: operands from ``ops``, SCALARS for the
    rest of the parameters that have no default; ``form`` is the operand
    key of an ``EITHER_FORM`` operator."""
    out = {}
    for name, par in inspect.signature(fn).parameters.items():
        if name not in NOT_OPERANDS:
            key = fn.__qualname__.split(".")[0] if name == "self" else name
            out[name] = ops[ALIASES.get(key, key)]
        elif par.default is inspect.Parameter.empty:
            out[name] = SCALARS[name]
    if form is not None:
        out[EITHER_FORM[fn]] = ops[form]
    return out


def _untouched(ops):
    return all(
        F._avg_cache is None and not getattr(F, "_power_cache", {})
        and not getattr(F, "_reducing_cache", {})
        for F in ops.values() if isinstance(F, (MatrixField, VectorField))
    )


CASES = [
    (fn, name, form)
    for fn in CONTRACT
    for name in _operand_params(fn)
    for form in (FORM_NAMES if fn in EITHER_FORM else (None,))
]


def _case_id(fn, name, form):
    form = f"({FORM_NAMES[form]})" if form else ""
    return f"{fn.__module__.split('.')[-1]}.{fn.__qualname__}{form}:{name}"


@pytest.mark.parametrize("depth", [5, 4], ids=["same_shape", "other_depth"])
@pytest.mark.parametrize("fn, name, form", CASES, ids=[_case_id(*case) for case in CASES])
def test_operand_on_another_window_is_refused_first(fn, name, form, depth):
    ops, foreign = _operands(Window.unit(1, 5)), _operands(Window.unit(1, depth))
    kwargs = _arguments(fn, ops, form)
    kwargs[name] = _arguments(fn, foreign, form)[name]
    with pytest.raises(WindowError):
        fn(**kwargs)
    assert _untouched(ops) and _untouched(foreign)


def test_materialize_checks_every_descriptor_operand():
    win = Window.unit(1, 5)
    ops, foreign = _operands(win), _operands(Window.unit(1, 5))
    op = dict(ops["op"], W=foreign["W"])
    with pytest.raises(WindowError):
        opnorm.materialize(op, win, N)


def test_contract_table_is_complete():
    public = [getattr(mod, name) for mod in (bmo, tf, opnorm, stopping) for name in mod.__all__]
    public += [MatrixField.apply, VectorField.lp_norm]
    need = {fn for fn in public if inspect.isfunction(fn) and len(_operand_params(fn)) >= 2}
    assert {fn.__qualname__ for fn in need - set(CONTRACT)} == set()
    assert {fn.__qualname__ for fn in set(CONTRACT) - need} == set()
