"""Command line interface: JSON config in, JSON or CSV report out.

One binary with a subcommand per task. Output is deterministic for a fixed
config file, seed, and format (wall-clock timings sit under the separate
"timings" key so they can be stripped before byte comparison). Exit codes:
0 success, 1 invalid input, 2 every requested limit extraction diverged.
"""

import argparse
import copy
import functools
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import LimitOpsError
from .fields import _cplx, predicate_from_descriptor
from .operator import bdo_diagnostic, operator_from_descriptor
from .shifts import DivergenceReport, limit_operator, sequence_from_descriptor
from .space import Space, Window, build_covering, build_partition, geometry_profile
from .subspace import SubspaceProjection
from .fredholm import (
    compactness_test,
    ess_norm_estimate,
    essential_spectrum_estimate,
    fredholm_test,
)

SCHEMA_VERSION = "1"
# a covering payload lists its net only up to this many points; a larger net
# is left out and the payload says so under "netOmitted"
NET_CAP = 10_000

TASKS = (
    "geometry",
    "covering",
    "partition",
    "bdo-diagnostic",
    "limits",
    "compactness",
    "fredholm",
    "essential-spectrum",
    "ess-norm",
)

TASK_DEFAULTS = {
    "geometry": {"rMax": 8, "probeRadius": 2},
    "covering": {"scopeRadius": 20, "r": 2},
    "partition": {"variation": 0.5, "scopeFactor": 4, "maxPoints": 200000},
    "bdo-diagnostic": {"tGrid": [0.5, 0.25], "scopeRadius": 64, "p": 2},
    "limits": {"radii": [5, 10, 20], "tol": 1e-8, "budget": 2 ** 20, "p": 2},
    "compactness": {"radii": [5, 10, 20], "tol": 1e-9, "budget": 2 ** 20, "p": 2},
    "fredholm": {
        "schedule": [50, 100, 200, 400], "tau": 0.05, "p": 2,
        "radii": [5, 10, 20], "tol": 1e-8, "budget": 2 ** 20,
    },
    "essential-spectrum": {
        "tau": 0.05, "pitch": 0.02, "windowRadius": 400, "zBox": None,
        "thetaGrid": 2048, "method": "auto", "radii": [5, 10, 20],
        "tol": 1e-8, "budget": 2 ** 20,
    },
    "ess-norm": {
        "schedule": [25, 50, 100], "radii": [5, 10, 20],
        "tol": 1e-8, "budget": 2 ** 20,
    },
}


# -- config schema ----------------------------------------------------------------

_COMPLEX = {
    "oneOf": [
        {"type": "number"},
        {
            "type": "object",
            "properties": {"re": {"type": "number"}, "im": {"type": "number"}},
            "additionalProperties": False,
        },
    ]
}
_INT_VEC = {"type": "array", "items": {"type": "integer"}, "minItems": 1, "maxItems": 10}
_NUM_VEC = {"type": "array", "items": {"type": "number"}, "minItems": 1, "maxItems": 10}
_FIELD_REF = {"$ref": "#/$defs/field"}
_PRED_REF = {"$ref": "#/$defs/predicate"}
_OP_REF = {"$ref": "#/$defs/operator"}
_SEQ_REF = {"$ref": "#/$defs/sequence"}


def _obj(props, required=()):
    return {
        "type": "object",
        "properties": props,
        "required": list(required),
        "additionalProperties": False,
    }


_FIELD_DEF = {
    "oneOf": [
        _obj({"type": {"const": "constant"}, "value": _COMPLEX}, ["type", "value"]),
        _obj(
            {
                "type": {"const": "periodic"},
                "values": {"type": "array", "items": _COMPLEX, "minItems": 1},
                "period": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                "shape": {"type": "array", "items": {"type": "integer", "minimum": 1}},
            },
            ["type", "values", "period"],
        ),
        _obj({"type": {"const": "expression"}, "source": {"type": "string"}},
             ["type", "source"]),
        _obj(
            {
                "type": {"const": "table"},
                "entries": {
                    "type": "array",
                    "items": _obj({"point": _INT_VEC, "value": _COMPLEX},
                                  ["point", "value"]),
                },
                "default": _COMPLEX,
            },
            ["type", "entries"],
        ),
        _obj(
            {
                "type": {"const": "seededRandom"},
                "seed": {"type": "integer"},
                "mode": {"enum": ["disk", "phase", "real"]},
                "scale": _COMPLEX,
            },
            ["type"],
        ),
        _obj({"type": {"const": "indicator"}, "predicate": _PRED_REF},
             ["type", "predicate"]),
        _obj({"type": {"const": "sum"},
              "parts": {"type": "array", "items": _FIELD_REF, "minItems": 1}},
             ["type", "parts"]),
        _obj({"type": {"const": "product"},
              "parts": {"type": "array", "items": _FIELD_REF, "minItems": 1}},
             ["type", "parts"]),
        _obj({"type": {"const": "scaled"}, "base": _FIELD_REF, "factor": _COMPLEX},
             ["type", "base", "factor"]),
        _obj({"type": {"const": "shifted"}, "base": _FIELD_REF, "offset": _INT_VEC},
             ["type", "base", "offset"]),
        _obj({"type": {"const": "conj"}, "base": _FIELD_REF}, ["type", "base"]),
    ]
}

_PRED_DEF = {
    "oneOf": [
        _obj({"type": {"const": "full"}}, ["type"]),
        _obj({"type": {"const": "empty"}}, ["type"]),
        _obj({"type": {"const": "halfspace"}, "normal": _NUM_VEC,
              "threshold": {"type": "number"}}, ["type", "normal", "threshold"]),
        _obj(
            {
                "type": {"const": "sublattice"},
                "modulus": {"oneOf": [{"type": "integer", "minimum": 1}, _INT_VEC]},
                "residue": {"oneOf": [{"type": "integer"}, _INT_VEC]},
            },
            ["type", "modulus"],
        ),
        _obj({"type": {"const": "finiteSet"},
              "points": {"type": "array", "items": _INT_VEC}}, ["type", "points"]),
        _obj({"type": {"const": "expressionPredicate"}, "source": {"type": "string"},
              "offset": _NUM_VEC}, ["type", "source"]),
        _obj({"type": {"const": "not"}, "base": _PRED_REF}, ["type", "base"]),
        _obj({"type": {"const": "and"},
              "parts": {"type": "array", "items": _PRED_REF, "minItems": 1}},
             ["type", "parts"]),
    ]
}

_OP_DEF = {
    "oneOf": [
        _obj(
            {
                "kind": {"const": "band"},
                "stencil": {
                    "type": "array",
                    "items": _obj({"offset": _INT_VEC, "coeff": _FIELD_REF,
                                   "field": _FIELD_REF}, ["offset"]),
                },
            },
            ["stencil"],
        ),
        _obj({"kind": {"const": "identity"}}, ["kind"]),
        _obj({"kind": {"const": "laplacian"}}, ["kind"]),
        _obj({"kind": {"const": "shift"}, "v": _INT_VEC}, ["kind", "v"]),
        _obj({"kind": {"const": "multiplication"}, "field": _FIELD_REF},
             ["kind", "field"]),
        _obj({"kind": {"const": "sum"},
              "terms": {"type": "array", "items": _OP_REF, "minItems": 1}},
             ["kind", "terms"]),
        _obj({"kind": {"const": "product"},
              "factors": {"type": "array", "items": _OP_REF, "minItems": 1}},
             ["kind", "factors"]),
        _obj({"kind": {"const": "scaled"}, "operator": _OP_REF, "factor": _COMPLEX},
             ["kind", "operator", "factor"]),
        _obj({"kind": {"const": "adjoint"}, "operator": _OP_REF},
             ["kind", "operator"]),
        _obj({"kind": {"const": "translated"}, "operator": _OP_REF, "x": _INT_VEC},
             ["kind", "operator", "x"]),
    ]
}

_SEQ_DEF = {
    "oneOf": [
        _obj({"kind": {"const": "ray"}, "v": _INT_VEC, "w": _INT_VEC,
              "label": {"type": "string"}}, ["v"]),
        _obj({"kind": {"const": "explicit"},
              "points": {"type": "array", "items": _INT_VEC, "minItems": 2},
              "label": {"type": "string"}}, ["kind", "points"]),
        _obj({"kind": {"const": "subsequence"}, "parent": _SEQ_REF,
              "indices": {"type": "array", "items": {"type": "integer", "minimum": 0},
                          "minItems": 2},
              "label": {"type": "string"}}, ["kind", "parent", "indices"]),
    ]
}

_SPACE_DEF = {
    "oneOf": [
        _obj(
            {
                "kind": {"const": "lattice"},
                "dim": {"type": "integer", "minimum": 1, "maximum": 9},
                "metric": {"enum": ["linf", "l1"]},
                "fiber": {"type": "integer", "minimum": 1},
                "basepoint": _INT_VEC,
            }
        ),
        _obj(
            {
                "kind": {"const": "graph"},
                "adjacency": {
                    "type": "object",
                    "patternProperties": {"^-?[0-9]+$": _INT_VEC},
                    "additionalProperties": False,
                },
                "basepoint": {"type": "integer"},
            },
            ["kind", "adjacency"],
        ),
    ]
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "space": {"$ref": "#/$defs/space"},
        "operator": _OP_REF,
        "projection": _obj({"predicate": _PRED_REF}, ["predicate"]),
        "sequences": {"type": "array", "items": _SEQ_REF},
        "task": {"type": "object"},
    },
    "required": ["space"],
    "additionalProperties": False,
    "$defs": {
        "space": _SPACE_DEF,
        "field": _FIELD_DEF,
        "predicate": _PRED_DEF,
        "operator": _OP_DEF,
        "sequence": _SEQ_DEF,
    },
}


def _num(minimum=None):
    out = {"type": "number"}
    if minimum is not None:
        out["exclusiveMinimum"] = minimum
    return out


def _int(minimum=1):
    return {"type": "integer", "minimum": minimum}


def _int_list():
    return {"type": "array", "items": _int(), "minItems": 1}


TASK_SCHEMAS = {
    "geometry": _obj({"rMax": _int(), "probeRadius": _int(0), "probeCenter": _INT_VEC}),
    "covering": _obj({"scopeRadius": _int(), "r": _int(), "center": _INT_VEC}),
    "partition": _obj({
        "variation": _num(0.0), "scopeRadius": _int(), "scopeFactor": _int(),
        "maxPoints": _int(),
    }),
    "bdo-diagnostic": _obj({
        "tGrid": {"type": "array", "items": _num(0.0), "minItems": 2},
        "scopeRadius": _int(), "p": _num(1.0),
    }),
    "limits": _obj({"radii": _int_list(), "tol": _num(0.0), "budget": _int(),
                    "p": _num(1.0)}),
    "compactness": _obj({"radii": _int_list(), "tol": _num(0.0), "budget": _int(),
                         "p": _num(1.0)}),
    "fredholm": _obj({
        "schedule": _int_list(), "tau": _num(0.0), "p": _num(1.0),
        "radii": _int_list(), "tol": _num(0.0), "budget": _int(),
    }),
    "essential-spectrum": _obj({
        "tau": _num(0.0), "pitch": _num(0.0), "windowRadius": _int(),
        "zBox": {"oneOf": [{"type": "null"},
                           {"type": "array", "items": {"type": "number"},
                            "minItems": 4, "maxItems": 4}]},
        "thetaGrid": _int(8),
        "method": {"enum": ["auto", "symbol", "symbolOracle", "floquet", "nuGrid"]},
        "radii": _int_list(), "tol": _num(0.0), "budget": _int(),
    }),
    "ess-norm": _obj({"schedule": _int_list(), "radii": _int_list(),
                      "tol": _num(0.0), "budget": _int()}),
}


def full_schema():
    return {
        "schemaVersion": SCHEMA_VERSION,
        "config": CONFIG_SCHEMA,
        "tasks": TASK_SCHEMAS,
    }


@functools.cache
def _validator(task):
    """Validator for the config schema (``task`` None) or a task's schema. The
    schemas are constants, so they are not meta-checked here but once, in
    ``tests/test_cli.py::test_print_schema_is_valid_jsonschema``."""
    from jsonschema.validators import validator_for

    schema = CONFIG_SCHEMA if task is None else TASK_SCHEMAS[task]
    return validator_for(schema)(schema)


def _validate(instance, task):
    """Raise the error ``jsonschema.validate`` would raise for ``instance``."""
    from jsonschema.exceptions import best_match

    error = best_match(_validator(task).iter_errors(instance))
    if error is not None:
        raise error


# -- helpers ---------------------------------------------------------------------


def _plain(obj):
    """Recursively convert numpy containers and complex numbers into plain
    JSON-serializable values."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return _plain(_cplx(obj))
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    return obj


_INDENT = "  "
_BOOL_JSON = {True: "true", False: "false"}


def _float_json(x):
    """``float.__repr__``, with json's spellings of the non-finite values."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _dumps(obj):
    """The bytes of ``json.dumps(_plain(obj), sort_keys=True, indent=2)``,
    written in one pass: bool, int and float arrays are formatted straight
    from numpy, everything else as ``_plain`` and the stdlib encoder would."""
    out = []
    _write(obj, 0, out)
    return "".join(out)


def _write(obj, level, out):
    """Append the JSON text of ``obj``, nested ``level`` indents deep."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, np.ndarray):
        _write_array(obj, level, out)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        items = {str(k): v for k, v in obj.items()}
        inner = "\n" + _INDENT * (level + 1)
        sep = "{"
        for k in sorted(items):
            out.append(sep + inner)
            out.append(encode_basestring_ascii(k) + ": ")
            _write(items[k], level + 1, out)
            sep = ","
        out.append("\n" + _INDENT * level + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = "\n" + _INDENT * (level + 1)
        sep = "["
        for v in obj:
            out.append(sep + inner)
            _write(v, level + 1, out)
            sep = ","
        out.append("\n" + _INDENT * level + "]")
    elif isinstance(obj, (complex, np.complexfloating)):
        _write(_cplx(obj), level, out)
    elif isinstance(obj, (bool, np.bool_)):
        out.append(_BOOL_JSON[bool(obj)])
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_json(float(obj)))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _float_leaves(flat):
    """The JSON text of each entry of a 1-d float array, formatting each
    distinct bit pattern once and expanding through the inverse index. It
    keys on bits, not values: 0.0 == -0.0, but the two print differently."""
    bits, inverse = np.unique(flat.view(f"u{flat.itemsize}"), return_inverse=True)
    values = bits.view(flat.dtype)
    fmt = float.__repr__ if np.isfinite(values).all() else _float_json
    text = np.array(list(map(fmt, values.tolist())), dtype=object)
    return text[inverse].tolist()


def _write_array(a, level, out):
    """Append a bool, int or float array in one join: the separator between
    two leaves closes and reopens as many brackets as axes their indices
    cross, and each axis's separator is built once. Floats are formatted
    once per distinct bit pattern (``_float_leaves``); ints and bools leaf
    by leaf. Other arrays (complex, object, extended precision) go through
    ``tolist``."""
    kind = a.dtype.kind
    if kind not in "biuf" or a.dtype.itemsize > 8:
        _write(a.tolist(), level, out)
        return
    shape = a.shape
    # below the first empty axis every sub-array prints as []
    depth = shape.index(0) if 0 in shape else a.ndim
    if depth < a.ndim:
        leaves = ["[]"] * math.prod(shape[:depth])
    elif kind == "b":
        leaves = list(map(_BOOL_JSON.__getitem__, a.ravel().tolist()))
    elif kind == "f":
        leaves = _float_leaves(a.ravel())
    else:
        leaves = list(map(int.__repr__, a.ravel().tolist()))
    ind = ["\n" + _INDENT * (level + k) for k in range(depth + 1)]
    n = len(leaves)
    seps = ["," + ind[depth]] * (n - 1)
    stride = 1
    for axis in range(depth - 1, 0, -1):
        # leaves whose indices differ first at axis - 1: close the lists of
        # axes >= axis, then reopen them
        stride *= shape[axis]
        cross = ("".join(ind[k] + "]" for k in range(depth - 1, axis - 1, -1))
                 + "," + ind[axis]
                 + "".join("[" + ind[k + 1] for k in range(axis, depth)))
        seps[stride - 1::stride] = [cross] * ((n - 1) // stride)
    pieces = [None] * (2 * n - 1)
    pieces[::2] = leaves
    pieces[1::2] = seps
    out.append("".join("[" + ind[k + 1] for k in range(depth)))
    out.append("".join(pieces))
    out.append("".join(ind[k] + "]" for k in range(depth - 1, -1, -1)))


def _fill_seeds(node, seed):
    if isinstance(node, dict):
        if node.get("type") == "seededRandom" and "seed" not in node:
            node["seed"] = int(seed)
        for v in node.values():
            _fill_seeds(v, seed)
    elif isinstance(node, list):
        for v in node:
            _fill_seeds(v, seed)


def _space(cfg):
    return Space.from_descriptor(cfg["space"])


def _operator(cfg, space):
    if "operator" not in cfg:
        raise LimitOpsError("this task needs an 'operator' entry in the config")
    return operator_from_descriptor(space, cfg["operator"])


def _projection(cfg, space):
    if "projection" not in cfg:
        return None
    return SubspaceProjection(space, predicate_from_descriptor(
        cfg["projection"]["predicate"]))


def _sequences(cfg):
    seqs = [sequence_from_descriptor(d) for d in cfg.get("sequences", [])]
    if not seqs:
        raise LimitOpsError("this task needs a nonempty 'sequences' list")
    return seqs


def _window(space, center, radius):
    c = tuple(center) if center is not None else space.basepoint
    return Window(space, c, int(radius))


# -- task runners -----------------------------------------------------------------


def _run_geometry(cfg, prm, args):
    space = _space(cfg)
    probe = _window(space, prm.get("probeCenter"), prm["probeRadius"])
    prof = geometry_profile(space, prm["rMax"], probe)
    return {"profile": [[r, n] for r, n in prof],
            "space": space.to_descriptor()}, 0


def _run_covering(cfg, prm, args):
    space = _space(cfg)
    scope = _window(space, prm.get("center"), prm["scopeRadius"])
    cov = build_covering(space, scope, prm["r"])
    report = cov.verify()
    out = {"report": report, "cells": cov.ncells, "r": prm["r"]}
    if cov.ncells <= NET_CAP:
        out["net"] = cov.net
    else:
        out["netOmitted"] = {"points": cov.ncells, "cap": NET_CAP}
    return out, 0


def _run_partition(cfg, prm, args):
    space = _space(cfg)
    t = float(prm["variation"])
    if "scopeRadius" in prm:
        scope = _window(space, None, prm["scopeRadius"])
        pou = build_partition(space, scope, t)
    else:
        probe = build_partition(space, _window(space, None, 1), t)
        scope = _window(space, None, prm["scopeFactor"] * probe.support_diam)
        pou = build_partition(space, scope, t)
    return pou.export(max_points=prm["maxPoints"]), 0


def _run_bdo(cfg, prm, args):
    space = _space(cfg)
    A = _operator(cfg, space)
    scope = _window(space, None, prm["scopeRadius"])
    return bdo_diagnostic(A, tuple(prm["tGrid"]), scope, p=prm["p"]), 0


def _run_limits(cfg, prm, args):
    space = _space(cfg)
    A = _operator(cfg, space)
    seqs = _sequences(cfg)
    entries = []
    diverged = 0
    for seq in seqs:
        out = limit_operator(A, seq, radii=tuple(prm["radii"]), tol=prm["tol"],
                             budget=prm["budget"], p=prm["p"])
        if isinstance(out, DivergenceReport):
            diverged += 1
            entries.append({"status": "divergent", **out.to_descriptor()})
        else:
            entries.append({"status": "limit", **out.to_descriptor()})
    code = 2 if diverged == len(seqs) else 0
    return {"limits": entries}, code


def _run_compactness(cfg, prm, args):
    space = _space(cfg)
    A = _operator(cfg, space)
    seqs = _sequences(cfg)
    rep = compactness_test(A, seqs, radii=tuple(prm["radii"]), tol=prm["tol"],
                           budget=prm["budget"], p=prm["p"])
    code = 2 if not rep["sequences"] and rep["divergences"] else 0
    return rep, code


def _run_fredholm(cfg, prm, args):
    space = _space(cfg)
    A = _operator(cfg, space)
    seqs = _sequences(cfg)
    proj = _projection(cfg, space)
    rep = fredholm_test(A, proj, seqs, schedule=tuple(prm["schedule"]),
                        tau=prm["tau"], p=prm["p"], radii=tuple(prm["radii"]),
                        tol=prm["tol"], budget=prm["budget"])
    code = 2 if not rep["sequences"] and rep["divergences"] else 0
    return rep, code


def _run_essential_spectrum(cfg, prm, args):
    space = _space(cfg)
    A = _operator(cfg, space)
    seqs = _sequences(cfg)
    proj = _projection(cfg, space)
    method = {"symbol": "symbolOracle"}.get(prm["method"], prm["method"])
    rep = essential_spectrum_estimate(
        A, proj, seqs, tau=prm["tau"], pitch=prm["pitch"],
        radius=prm["windowRadius"],
        z_box=tuple(prm["zBox"]) if prm["zBox"] else None,
        theta_grid=prm["thetaGrid"], method=method, radii=tuple(prm["radii"]),
        tol=prm["tol"], budget=prm["budget"], threads=args.threads,
    )
    out = {
        "estimates": [e.to_descriptor() for e in rep["estimates"]],
        "unionCloud": np.stack([rep["unionCloud"].real, rep["unionCloud"].imag], axis=1),
        "divergences": rep["divergences"],
        "caveat": rep["caveat"],
        "params": rep["params"],
    }
    code = 2 if not rep["estimates"] and rep["divergences"] else 0
    return out, code


def _run_ess_norm(cfg, prm, args):
    space = _space(cfg)
    A = _operator(cfg, space)
    seqs = _sequences(cfg)
    proj = _projection(cfg, space)
    rep = ess_norm_estimate(A, proj, seqs, schedule=tuple(prm["schedule"]),
                            radii=tuple(prm["radii"]), tol=prm["tol"],
                            budget=prm["budget"])
    code = 2 if not rep["perLimit"] and rep["divergences"] else 0
    return rep, code


RUNNERS = {
    "geometry": _run_geometry,
    "covering": _run_covering,
    "partition": _run_partition,
    "bdo-diagnostic": _run_bdo,
    "limits": _run_limits,
    "compactness": _run_compactness,
    "fredholm": _run_fredholm,
    "essential-spectrum": _run_essential_spectrum,
    "ess-norm": _run_ess_norm,
}


# -- output -----------------------------------------------------------------------


def _csv_rows(task, result):
    if task == "geometry":
        yield "r,count"
        for r, n in result["profile"]:
            yield f"{r},{n}"
    elif task == "bdo-diagnostic":
        yield "t,value,normalized"
        for t, v, s in zip(result["t_grid"], result["values"], result["normalized"]):
            yield f"{t},{v},{s}"
    elif task == "essential-spectrum":
        yield "label,method,re,im,indicator"
        for est in result["estimates"]:
            for re_, im_, ind in est["points"]:
                yield f"{est['limitOperatorLabel']},{est['method']},{re_},{im_},{ind}"
    elif task == "limits":
        yield "sequence,status,radius,index,gap"
        for entry in result["limits"]:
            label = entry.get("sequence") or entry.get("label", "")
            for cert in entry.get("certificate", []):
                yield (f"{label},{entry['status']},{cert['radius']},"
                       f"{cert['index']},{cert['gap']}")
            if entry["status"] == "divergent":
                yield f"{label},divergent,,,"
    elif task == "compactness":
        yield "sequence,maxLimitNorm,verdict"
        for entry in result["sequences"]:
            yield f"{entry['sequence']},{max(entry['limitNorms'])},{result['verdict']}"
    elif task == "fredholm":
        yield "sequence,verdict,margin"
        for entry in result["sequences"]:
            est = entry["estimate"]
            yield f"{entry['sequence']},{est['verdict']},{est['margin']}"
    elif task == "ess-norm":
        yield "bound,value"
        yield f"lower,{result['lower']}"
        yield f"upper,{result['upper']}"
    else:
        yield "key,value"

        def walk(prefix, node):
            if isinstance(node, dict):
                for k in sorted(node):
                    yield from walk(f"{prefix}{k}.", node[k])
            elif isinstance(node, list):
                yield f"{prefix[:-1]},{json.dumps(node, sort_keys=True)}"
            else:
                yield f"{prefix[:-1]},{node}"

        yield from walk("", result)


def _emit(args, payload, task):
    if args.format == "csv":
        text = "\n".join(_csv_rows(task, _plain(payload["result"]))) + "\n"
    else:
        text = _dumps(payload) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- entry point --------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="limitops",
        description="window-based diagnostics for band operators on lattices",
    )
    ap.add_argument("--print-schema", action="store_true",
                    help="print the config file JSON schema and exit")
    sub = ap.add_subparsers(dest="task")
    for name in TASKS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="path to the JSON config file")
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for seeded random coefficients lacking one")
        sp.add_argument("--threads", type=int, default=1)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--print-schema", action="store_true")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.print_schema:
        sys.stdout.write(_dumps(full_schema()) + "\n")
        return 0
    if args.task is None:
        sys.stderr.write("error: choose a task subcommand or --print-schema\n")
        return 1
    if not args.config:
        sys.stderr.write("error: --config is required\n")
        return 1
    t0 = time.perf_counter()
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        _validate(cfg, None)
        prm = dict(TASK_DEFAULTS[args.task])
        prm.update(cfg.get("task", {}))
        _validate(cfg.get("task", {}), args.task)
        cfg = copy.deepcopy(cfg)
        _fill_seeds(cfg, args.seed)
        t1 = time.perf_counter()
        result, code = RUNNERS[args.task](cfg, prm, args)
        t2 = time.perf_counter()
    except (LimitOpsError, KeyError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except Exception as exc:  # jsonschema.ValidationError and friends
        if type(exc).__module__.startswith("jsonschema"):
            path = "/".join(str(p) for p in getattr(exc, "absolute_path", []))
            msg = getattr(exc, "message", str(exc))
            where = f" at {path}" if path else ""
            sys.stderr.write(f"config rejected{where}: {msg}\n")
            return 1
        raise
    payload = {
        "schemaVersion": SCHEMA_VERSION,
        "task": args.task,
        # threads and output format never affect results, so they stay out of
        # the payload and repeated runs compare byte-identical modulo timings
        "resolved": {"config": cfg, "task": prm, "seed": args.seed},
        "result": result,
        "timings": {
            "totalSeconds": round(time.perf_counter() - t0, 6),
            "validateSeconds": round(t1 - t0, 6),
            "taskSeconds": round(t2 - t1, 6),
        },
    }
    try:
        _emit(args, payload, args.task)
    except OSError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
