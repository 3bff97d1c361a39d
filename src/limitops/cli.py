"""Command line interface: JSON config in, JSON or CSV report out.

One binary with a subcommand per task. Output is deterministic for a fixed
config file, seed, and format (wall-clock timings sit under the separate
"timings" key so they can be stripped before byte comparison). Exit codes:
0 success, 1 invalid input, 2 every declared sequence of a limit task
diverged (``_exit_code``).
"""

import argparse
import errno
import functools
import inspect
import json
import math
import os
import re
import sys
import time
from json.encoder import encode_basestring_ascii
from operator import ge, gt, le

import numpy as np

from .descriptors import (
    DEFS,
    _INT_VEC,
    _obj,
    _ref,
    operator_from_descriptor,
    sequence_from_descriptor,
    space_from_descriptor,
)
from .errors import LimitOpsError
from .fields import _cplx
from .operator import bdo_diagnostic
from .shifts import DivergenceReport, limit_operator
from .space import (
    PartitionOfUnity,
    Window,
    build_covering,
    build_partition,
    geometry_profile,
)
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

# -- config schema ----------------------------------------------------------------

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "space": _ref("space"),
        "operator": _ref("operator"),
        "projection": _obj({"predicate": _ref("predicate")}, ["predicate"]),
        "sequences": {"type": "array", "items": _ref("sequence")},
        "task": {"type": "object"},
    },
    "required": ["space"],
    "additionalProperties": False,
    "$defs": DEFS,
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


# -- the task table ----------------------------------------------------------------

_OPTIONAL = object()


def _feeds(keyword, schema):
    """A key the runner forwards to its library call as ``keyword``; its
    default is the one that keyword has in the call's signature."""
    return keyword, schema, _OPTIONAL


def _own(schema, default=_OPTIONAL):
    """A key only the runner reads, with its own default (an optional key
    has none)."""
    return None, schema, default


_LIMIT_KEYS = {"radii": _feeds("radii", _int_list()), "tol": _feeds("tol", _num(0.0)),
               "budget": _feeds("budget", _int())}
_P_KEYS = {"p": _feeds("p", _num(1.0))}

# task -> (the library call its forwarded keys feed, {JSON key: row}). The
# task schemas, the resolved defaults and each runner's keyword arguments are
# all read off this table.
TASK_TABLE = {
    "geometry": (None, {"rMax": _own(_int(), 8), "probeRadius": _own(_int(0), 2),
                        "probeCenter": _own(_INT_VEC)}),
    "covering": (None, {"scopeRadius": _own(_int(), 20), "r": _own(_int(), 2),
                        "center": _own(_INT_VEC)}),
    "partition": (PartitionOfUnity.export, {
        "variation": _own(_num(0.0), 0.5), "scopeRadius": _own(_int()),
        "scopeFactor": _own(_int(), 4), "maxPoints": _feeds("max_points", _int()),
    }),
    "bdo-diagnostic": (bdo_diagnostic, {
        "tGrid": _own({"type": "array", "items": _num(0.0), "minItems": 2}, (0.5, 0.25)),
        "scopeRadius": _own(_int(), 64), **_P_KEYS,
    }),
    "limits": (limit_operator, {**_LIMIT_KEYS, **_P_KEYS}),
    "compactness": (compactness_test, {**_LIMIT_KEYS, **_P_KEYS}),
    "fredholm": (fredholm_test, {"schedule": _feeds("schedule", _int_list()),
                                 "tau": _feeds("tau", _num(0.0)), **_P_KEYS, **_LIMIT_KEYS}),
    "essential-spectrum": (essential_spectrum_estimate, {
        "tau": _feeds("tau", _num(0.0)), "pitch": _feeds("pitch", _num(0.0)),
        "windowRadius": _feeds("radius", _int()),
        "zBox": _feeds("z_box", {"oneOf": [{"type": "null"},
                                           {"type": "array", "items": {"type": "number"},
                                            "minItems": 4, "maxItems": 4}]}),
        "thetaGrid": _feeds("theta_grid", _int(8)),
        "method": _feeds("method", {"enum": ["auto", "symbol", "symbolOracle", "floquet",
                                             "nuGrid"]}),
        **_LIMIT_KEYS,
    }),
    "ess-norm": (ess_norm_estimate, {"schedule": _feeds("schedule", _int_list()),
                                     **_LIMIT_KEYS}),
}
TASKS = tuple(TASK_TABLE)
TASK_SCHEMAS = {task: _obj({key: schema for key, (_, schema, _) in rows.items()})
                for task, (_, rows) in TASK_TABLE.items()}


def _defaults(call, rows):
    """Each key's default: a forwarded key's from the signature of ``call``,
    an own key's from its row; an optional key has none."""
    params = inspect.signature(call).parameters if call else {}
    out = {}
    for key, (keyword, _, default) in rows.items():
        if keyword:
            default = params[keyword].default
        if default is not _OPTIONAL:
            out[key] = default
    return out


TASK_DEFAULTS = {task: _defaults(*row) for task, row in TASK_TABLE.items()}


def _kwargs(task, prm):
    """The library keywords of a task's forwarded keys, read from the
    resolved parameters."""
    return {keyword: prm[key] for key, (keyword, _, _) in TASK_TABLE[task][1].items()
            if keyword}


def full_schema():
    return {"schemaVersion": SCHEMA_VERSION, "config": CONFIG_SCHEMA, "tasks": TASK_SCHEMAS}


def _schema(task):
    """The config schema (``task`` None) or a task's schema."""
    return CONFIG_SCHEMA if task is None else TASK_SCHEMAS[task]


@functools.cache
def _validator(task):
    """jsonschema's validator for ``_schema(task)``, built only to word a
    rejection (``_validate``). The schemas are constants, so they are not
    meta-checked here but once, in
    ``tests/test_cli.py::test_print_schema_is_valid_jsonschema``."""
    from jsonschema.validators import validator_for

    schema = _schema(task)
    return validator_for(schema)(schema)


def _validate(instance, task):
    """Return when ``_accepts`` says ``instance`` is valid; otherwise raise
    the error ``jsonschema.validate`` would raise for it, if any. So a valid
    run never imports jsonschema."""
    schema = _schema(task)
    if _accepts(schema, instance, schema.get("$defs", {})):
        return
    from jsonschema.exceptions import best_match

    error = best_match(_validator(task).iter_errors(instance))
    if error is not None:
        raise error


# -- the accept check ----------------------------------------------------------------
#
# One-way, like the window certificates: True from the walker implies that
# jsonschema (draft 2020-12) accepts the instance; False only sends it to
# jsonschema, which words the rejection. So the walker may be stricter than
# jsonschema, never looser. It reads exactly the keywords the CLI schemas use,
# and on those schemas and JSON values it is exact.

_DIALECT = "https://json-schema.org/draft/2020-12/schema"

# draft 2020-12 types: 1.0 is an integer, True is neither number nor integer
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "null": lambda x: x is None,
    "number": lambda x: type(x) is int or type(x) is float,
    "integer": lambda x: type(x) is int or (type(x) is float and x.is_integer()),
}
# a bound fails a non-number, where jsonschema skips it: the CLI schemas never
# bound a value without typing it
_BOUNDS = {"minimum": ge, "maximum": le, "exclusiveMinimum": gt}
_SIZES = {"minItems": ge, "maxItems": le}


def _accepts(node, x, defs):
    """True only where jsonschema accepts ``x`` under the schema ``node``,
    whose ``$ref``s name entries of ``defs``. False where it rejects ``x``,
    and wherever the walk meets a keyword or keyword value it does not read
    (a ``pattern``, a non-boolean ``additionalProperties``, ...)."""
    try:
        return _walk(node, x, defs)
    except (AttributeError, KeyError, TypeError, re.error):
        return False


def _walk(node, x, defs):
    """``_accepts`` without the catch: an unread keyword or value raises, so
    a ``oneOf`` branch the walker cannot decide leaves the whole instance to
    jsonschema instead of counting as a miss."""
    for key, value in node.items():
        if key == "type":
            if not _TYPES[value](x):
                return False
        elif key == "properties":
            # in schema order, so a wrong oneOf branch fails at its tag
            if isinstance(x, dict):
                for name, sub in value.items():
                    if name in x and not _walk(sub, x[name], defs):
                        return False
        elif key == "required":
            if isinstance(x, dict):
                for name in value:
                    if name not in x:
                        return False
        elif key == "additionalProperties":
            if type(value) is not bool:
                raise TypeError(key)
            if not value and isinstance(x, dict):
                props, patterns = node.get("properties", {}), node.get("patternProperties", {})
                for name in x:
                    if name not in props and not any(re.search(p, name) for p in patterns):
                        return False
        elif key == "const":
            if not (isinstance(x, str) and x == value):
                return False
        elif key == "items":
            if isinstance(x, list):
                for item in x:
                    if not _walk(value, item, defs):
                        return False
        elif key in _SIZES:
            if isinstance(x, list) and not _SIZES[key](len(x), value):
                return False
        elif key in _BOUNDS:
            if not (_TYPES["number"](x) and _BOUNDS[key](x, value)):
                return False
        elif key == "$ref":
            if value[:8] != "#/$defs/" or not value[8:].isidentifier():
                raise KeyError(value)
            if not _walk(defs[value[8:]], x, defs):
                return False
        elif key == "oneOf":
            matches = 0
            for sub in value:
                matches += _walk(sub, x, defs)
                if matches > 1:  # exactly one branch may match
                    return False
            if not matches:
                return False
        elif key == "enum":
            if type(value) is not list:
                raise TypeError(key)
            if not (isinstance(x, str) and x in value):
                return False
        elif key == "patternProperties":
            # re.search, as jsonschema: "$" also matches before a final "\n"
            if isinstance(x, dict):
                for pattern, sub in value.items():
                    for name, item in x.items():
                        if re.search(pattern, name) and not _walk(sub, item, defs):
                            return False
        elif key != "$defs" and (key != "$schema" or value != _DIALECT):
            raise KeyError(key)  # another keyword, or another dialect
    return True


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
    from numpy, everything else as ``_plain`` and the stdlib encoder would.
    The int and float leaves of every array come from one table that lives
    for this call (``_leaves``), so each distinct leaf is formatted once per
    payload, not once per array."""
    out = []
    _write(obj, 0, out, {})
    return "".join(out)


def _write(obj, level, out, table):
    """Append the JSON text of ``obj``, nested ``level`` indents deep;
    ``table`` is the payload's leaf table (``_leaves``)."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, np.ndarray):
        _write_array(obj, level, out, table)
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
            _write(items[k], level + 1, out, table)
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
            _write(v, level + 1, out, table)
            sep = ","
        out.append("\n" + _INDENT * level + "]")
    elif isinstance(obj, (complex, np.complexfloating)):
        _write(_cplx(obj), level, out, table)
    elif isinstance(obj, (bool, np.bool_)):
        out.append(_BOOL_JSON[bool(obj)])
    elif isinstance(obj, (int, np.integer)):
        out.append(int.__repr__(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_json(float(obj)))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _format(values):
    """The JSON text of each entry of a 1-d int or float array, leaf by
    leaf: ``int.__repr__`` or, for floats, ``_float_json``."""
    if values.dtype.kind == "f":
        fmt = float.__repr__ if np.isfinite(values).all() else _float_json
        return list(map(fmt, values.tolist()))
    return list(map(int.__repr__, values.tolist()))


def _leaves(flat, table):
    """The JSON text of each entry of a 1-d int or float array, from the
    payload's leaf table {dtype.str: {key: text}}. A float keys on its bit
    pattern (0.0 == -0.0, but the two print differently), an int on its
    value; the dtype level keeps float32 bits apart from float64 ones and
    int 1 apart from float 1.0. Only the array's distinct keys not yet in
    the table are formatted (``_format``), and the leaves expand through
    the inverse index."""
    raw = flat.view(f"u{flat.itemsize}") if flat.dtype.kind == "f" else flat
    keys, inverse = np.unique(raw, return_inverse=True)
    known = table.setdefault(flat.dtype.str, {})
    keys = keys.tolist()
    new = [k for k in keys if k not in known]
    if new:
        known.update(zip(new, _format(np.array(new, dtype=raw.dtype).view(flat.dtype))))
    text = np.array(list(map(known.__getitem__, keys)), dtype=object)
    return text[inverse].tolist()


def _write_array(a, level, out, table):
    """Append a bool, int or float array in one join: the separator between
    two leaves closes and reopens as many brackets as axes their indices
    cross, and each axis's separator is built once. Int and float leaves
    come from the payload's leaf table (``_leaves``), bools leaf by leaf.
    Other arrays (complex, object, extended precision) go through
    ``tolist``."""
    kind = a.dtype.kind
    if kind not in "biuf" or a.dtype.itemsize > 8:
        _write(a.tolist(), level, out, table)
        return
    shape = a.shape
    # below the first empty axis every sub-array prints as []
    depth = shape.index(0) if 0 in shape else a.ndim
    if depth < a.ndim:
        leaves = ["[]"] * math.prod(shape[:depth])
    elif kind == "b":
        leaves = list(map(_BOOL_JSON.__getitem__, a.ravel().tolist()))
    else:
        leaves = _leaves(a.ravel(), table)
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


def _refuse_constant(name):
    """``json.load``'s hook for the non-standard NaN, Infinity and -Infinity."""
    raise LimitOpsError(f"the config holds {name}; every number in it must be finite")


def _space(cfg):
    return space_from_descriptor(cfg["space"])


def _operator(cfg, space):
    if "operator" not in cfg:
        raise LimitOpsError("this task needs an 'operator' entry in the config")
    return operator_from_descriptor(space, cfg["operator"])


def _projection(cfg, space):
    if "projection" not in cfg:
        return None
    return SubspaceProjection.from_descriptor(space, cfg["projection"])


def _sequences(cfg):
    seqs = [sequence_from_descriptor(d) for d in cfg.get("sequences", [])]
    if not seqs:
        raise LimitOpsError("this task needs a nonempty 'sequences' list")
    return seqs


def _limit_inputs(cfg):
    """The space, the operator and the declared sequences of a limit task."""
    space = _space(cfg)
    return space, _operator(cfg, space), _sequences(cfg)


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
    return pou.export(**_kwargs("partition", prm)), 0


def _run_bdo(cfg, prm, args):
    space = _space(cfg)
    A = _operator(cfg, space)
    scope = _window(space, None, prm["scopeRadius"])
    return bdo_diagnostic(A, prm["tGrid"], scope, **_kwargs("bdo-diagnostic", prm)), 0


def _exit_code(divergences, sequences):
    """The one exit rule of the limit tasks: 2 when every declared sequence
    diverged (each gives one limit or one divergence), else 0."""
    return 2 if len(divergences) == len(sequences) else 0


def _run_limits(cfg, prm, args):
    _, A, seqs = _limit_inputs(cfg)
    entries = []
    for seq in seqs:
        out = limit_operator(A, seq, **_kwargs("limits", prm))
        status = "divergent" if isinstance(out, DivergenceReport) else "limit"
        entries.append({"status": status, **out.to_descriptor()})
    diverged = [e for e in entries if e["status"] == "divergent"]
    return {"limits": entries}, _exit_code(diverged, seqs)


_TAKES_PROJ = {task for task, (call, _) in TASK_TABLE.items()
               if call and "proj" in inspect.signature(call).parameters}


def _run_report(task, cfg, prm, args):
    """A report task: its library call (``TASK_TABLE``) on the operator, the
    declared sequences and, when the call has a ``proj`` parameter
    (``_TAKES_PROJ``, read once off the signatures), the projection."""
    space, A, seqs = _limit_inputs(cfg)
    proj = {"proj": _projection(cfg, space)} if task in _TAKES_PROJ else {}
    rep = TASK_TABLE[task][0](A, sequences=seqs, **proj, **_kwargs(task, prm))
    return rep, _exit_code(rep["divergences"], seqs)


def _run_essential_spectrum(cfg, prm, args):
    rep, code = _run_report("essential-spectrum", cfg, prm, args)
    cloud = rep["unionCloud"]
    return {**rep, "estimates": [e.to_descriptor() for e in rep["estimates"]],
            "unionCloud": np.stack([cloud.real, cloud.imag], axis=1)}, code


RUNNERS = {
    "geometry": _run_geometry,
    "covering": _run_covering,
    "partition": _run_partition,
    "bdo-diagnostic": _run_bdo,
    "limits": _run_limits,
    "compactness": functools.partial(_run_report, "compactness"),
    "fredholm": functools.partial(_run_report, "fredholm"),
    "essential-spectrum": _run_essential_spectrum,
    "ess-norm": functools.partial(_run_report, "ess-norm"),
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


def _check_out(path):
    """Raise, before the task runs, the OSError that writing ``path`` would
    raise when its folder is missing, not a directory or not writable."""
    folder = os.path.dirname(os.path.abspath(path))
    for code, ok in ((errno.ENOENT, os.path.exists(folder)), (errno.ENOTDIR, os.path.isdir(folder)),
                     (errno.EACCES, os.access(folder, os.W_OK))):
        if not ok:
            raise OSError(code, os.strerror(code), path)


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


class _Parser(argparse.ArgumentParser):
    """argparse, with usage errors exiting 1 like every other usage error of
    the CLI (2 means that every limit extraction diverged)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser():
    ap = _Parser(
        prog="limitops",
        description="window-based diagnostics for band operators on lattices",
    )
    ap.add_argument("task", nargs="?", choices=TASKS, help="the subcommand to run")
    ap.add_argument("--config", help="path to the JSON config file")
    ap.add_argument("--out", help="write the report here instead of stdout")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for seeded random coefficients lacking one")
    ap.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility; has no effect")
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    ap.add_argument("--print-schema", action="store_true",
                    help="print the config file JSON schema and exit")
    return ap


# parse_args keeps no state between calls, so one parser serves every call
_parser = functools.cache(build_parser)


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.print_schema:
        sys.stdout.write(_dumps(full_schema()) + "\n")
        return 0
    if args.task is None:
        sys.stderr.write("error: choose a task subcommand or --print-schema\n")
        return 1
    if not args.config:
        sys.stderr.write("error: --config is required\n")
        return 1
    if args.threads < 1:
        sys.stderr.write("error: --threads must be at least 1\n")
        return 1
    t0 = time.perf_counter()
    try:
        with open(args.config) as fh:
            cfg = json.load(fh, parse_constant=_refuse_constant)
        _validate(cfg, None)
        prm = {**TASK_DEFAULTS[args.task], **cfg.get("task", {})}
        _validate(cfg.get("task", {}), args.task)
        _fill_seeds(cfg, args.seed)
        if args.out:
            _check_out(args.out)
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
        # --threads and the output format never affect results, so they stay
        # out of the payload and repeated runs compare byte-identical modulo
        # timings
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
