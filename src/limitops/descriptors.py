"""Config descriptors: one table per family (space, field, predicate,
operator, sequence).

Each row maps a tag to the JSON-schema properties of its descriptor, the keys
it requires besides the tag, and the parser that builds the object. Both the
config schema's ``$defs`` and the public ``*_from_descriptor`` parsers are read
off these tables, so the two cannot drift. The tag key is required on every
row except the family's default one. The inverse direction, object to
descriptor, is each class's ``to_descriptor``.
"""

import functools

import numpy as np

from .errors import InvalidConfigError
from .fields import (
    AndPredicate,
    ConstantField,
    EmptyPredicate,
    ExpressionField,
    ExpressionPredicate,
    FiniteSetPredicate,
    FullPredicate,
    HalfspacePredicate,
    IndicatorField,
    NotPredicate,
    PeriodicField,
    ProductField,
    ScaledField,
    SeededRandomField,
    SublatticePredicate,
    SumField,
    TableField,
    _GenericConj,
    _GenericShifted,
)
from .operator import BandOperator, identity, laplacian_stencil, multiplication, shift_operator
from .shifts import ExplicitSequence, Ray, Subsequence
from .space import Space

# -- schema fragments ------------------------------------------------------------

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
_POS_INTS = {"type": "array", "items": {"type": "integer", "minimum": 1}}
_STRING = {"type": "string"}


def _ref(family):
    return {"$ref": f"#/$defs/{family}"}


def _some(family):
    return {"type": "array", "items": _ref(family), "minItems": 1}


def _obj(props, required=()):
    return {
        "type": "object",
        "properties": props,
        "required": list(required),
        "additionalProperties": False,
    }


def _complex(v):
    if isinstance(v, dict):
        return complex(v.get("re", 0.0), v.get("im", 0.0))
    return complex(v)


# -- parsers the tables share ------------------------------------------------------


def _periodic(d):
    vals = np.asarray([_complex(v) for v in d["values"]], dtype=np.complex128)
    return PeriodicField(vals.reshape(d.get("shape") or d["period"]), d["period"])


def _table(d):
    entries = {tuple(e["point"]): _complex(e["value"]) for e in d["entries"]}
    return TableField(entries, _complex(d.get("default", 0.0)))


def _band(d, space):
    stencil = {}
    for item in d["stencil"]:
        k = tuple(int(c) for c in item["offset"])
        f = field_from_descriptor(item["coeff"])
        stencil[k] = stencil[k].plus(f) if k in stencil else f
    return BandOperator(space, stencil)


def _fold(space, descs, join, what):
    """Operators of ``descs`` joined left to right; an empty list is refused."""
    ops = [operator_from_descriptor(space, t) for t in descs]
    if not ops:
        raise InvalidConfigError(f"operator {what} needs at least one operand")
    return functools.reduce(join, ops)


def _graph(d):
    adj = {int(u): [int(v) for v in vs] for u, vs in d["adjacency"].items()}
    return Space(kind="graph", adjacency=adj, basepoint=d.get("basepoint"))


# -- the tables: tag -> (schema properties, required keys, parse) ------------------

SPACES = {
    "lattice": (
        {"dim": {"type": "integer", "minimum": 1, "maximum": 9},
         "metric": {"enum": ["linf", "l1"]},
         "fiber": {"type": "integer", "minimum": 1},
         "basepoint": _INT_VEC},
        [],
        lambda d: Space(kind="lattice", dim=int(d.get("dim", 1)),
                        metric=d.get("metric", "linf"), fiber=int(d.get("fiber", 1)),
                        basepoint=d.get("basepoint")),
    ),
    "graph": (
        {"adjacency": {"type": "object", "patternProperties": {"^-?[0-9]+$": _INT_VEC},
                       "additionalProperties": False},
         "basepoint": {"type": "integer"}},
        ["adjacency"],
        _graph,
    ),
}

FIELDS = {
    "constant": ({"value": _COMPLEX}, ["value"],
                 lambda d: ConstantField(_complex(d["value"]))),
    "periodic": (
        {"values": {"type": "array", "items": _COMPLEX, "minItems": 1},
         "period": _POS_INTS, "shape": _POS_INTS},
        ["values", "period"],
        _periodic,
    ),
    "expression": ({"source": _STRING}, ["source"], lambda d: ExpressionField(d["source"])),
    "table": (
        {"entries": {"type": "array",
                     "items": _obj({"point": _INT_VEC, "value": _COMPLEX}, ["point", "value"])},
         "default": _COMPLEX},
        ["entries"],
        _table,
    ),
    "seededRandom": (
        {"seed": {"type": "integer"}, "mode": {"enum": ["disk", "phase", "real"]},
         "scale": _COMPLEX},
        [],
        lambda d: SeededRandomField(d["seed"], d.get("mode", "disk"),
                                    _complex(d.get("scale", 1.0))),
    ),
    "indicator": ({"predicate": _ref("predicate")}, ["predicate"],
                  lambda d: IndicatorField(predicate_from_descriptor(d["predicate"]))),
    "sum": ({"parts": _some("field")}, ["parts"],
            lambda d: SumField([field_from_descriptor(p) for p in d["parts"]])),
    "product": ({"parts": _some("field")}, ["parts"],
                lambda d: ProductField([field_from_descriptor(p) for p in d["parts"]])),
    "scaled": ({"base": _ref("field"), "factor": _COMPLEX}, ["base", "factor"],
               lambda d: ScaledField(field_from_descriptor(d["base"]), _complex(d["factor"]))),
    "shifted": ({"base": _ref("field"), "offset": _INT_VEC}, ["base", "offset"],
                lambda d: _GenericShifted(field_from_descriptor(d["base"]), tuple(d["offset"]))),
    "conj": ({"base": _ref("field")}, ["base"],
             lambda d: _GenericConj(field_from_descriptor(d["base"]))),
}

PREDICATES = {
    "full": ({}, [], lambda d: FullPredicate()),
    "empty": ({}, [], lambda d: EmptyPredicate()),
    "halfspace": ({"normal": _NUM_VEC, "threshold": {"type": "number"}},
                  ["normal", "threshold"],
                  lambda d: HalfspacePredicate(d["normal"], d["threshold"])),
    "sublattice": (
        {"modulus": _INT_VEC, "residue": _INT_VEC}, ["modulus"],
        lambda d: SublatticePredicate(d["modulus"], d.get("residue")),
    ),
    "finiteSet": ({"points": {"type": "array", "items": _INT_VEC}}, ["points"],
                  lambda d: FiniteSetPredicate(d["points"])),
    "expressionPredicate": ({"source": _STRING, "offset": _INT_VEC}, ["source"],
                            lambda d: ExpressionPredicate(d["source"], d.get("offset"))),
    "not": ({"base": _ref("predicate")}, ["base"],
            lambda d: NotPredicate(predicate_from_descriptor(d["base"]))),
    "and": ({"parts": _some("predicate")}, ["parts"],
            lambda d: AndPredicate([predicate_from_descriptor(p) for p in d["parts"]])),
}

OPERATORS = {
    "band": (
        {"stencil": {"type": "array",
                     "items": _obj({"offset": _INT_VEC, "coeff": _ref("field")},
                                   ["offset", "coeff"])}},
        ["stencil"],
        _band,
    ),
    "identity": ({}, [], lambda d, space: identity(space)),
    "laplacian": ({}, [], lambda d, space: laplacian_stencil(space)),
    "shift": ({"v": _INT_VEC}, ["v"],
              lambda d, space: shift_operator(space, tuple(int(c) for c in d["v"]))),
    "multiplication": ({"field": _ref("field")}, ["field"],
                       lambda d, space: multiplication(space, field_from_descriptor(d["field"]))),
    "sum": ({"terms": _some("operator")}, ["terms"],
            lambda d, space: _fold(space, d["terms"], lambda a, b: a + b, "sum")),
    "product": ({"factors": _some("operator")}, ["factors"],
                lambda d, space: _fold(space, d["factors"], lambda a, b: a @ b, "product")),
    "scaled": ({"operator": _ref("operator"), "factor": _COMPLEX}, ["operator", "factor"],
               lambda d, space: operator_from_descriptor(space, d["operator"]).scaled(
                   _complex(d["factor"]))),
    "adjoint": ({"operator": _ref("operator")}, ["operator"],
                lambda d, space: operator_from_descriptor(space, d["operator"]).adjoint()),
    "translated": ({"operator": _ref("operator"), "x": _INT_VEC}, ["operator", "x"],
                   lambda d, space: operator_from_descriptor(space, d["operator"]).translated(
                       tuple(int(c) for c in d["x"]))),
}

SEQUENCES = {
    "ray": ({"v": _INT_VEC, "w": _INT_VEC, "label": _STRING}, ["v"],
            lambda d: Ray(tuple(d["v"]), tuple(d.get("w") or ()), d.get("label", ""))),
    "explicit": (
        {"points": {"type": "array", "items": _INT_VEC, "minItems": 2}, "label": _STRING},
        ["points"],
        lambda d: ExplicitSequence(tuple(tuple(p) if isinstance(p, list) else p
                                         for p in d["points"]),
                                   d.get("label", "explicit")),
    ),
    "subsequence": (
        {"parent": _ref("sequence"),
         "indices": {"type": "array", "items": {"type": "integer", "minimum": 0},
                     "minItems": 2},
         "label": _STRING},
        ["parent", "indices"],
        lambda d: Subsequence(sequence_from_descriptor(d["parent"]), tuple(d["indices"]),
                              d.get("label", "subsequence")),
    ),
}

# family -> (tag key, default tag, table)
FAMILIES = {
    "space": ("kind", "lattice", SPACES),
    "field": ("type", None, FIELDS),
    "predicate": ("type", None, PREDICATES),
    "operator": ("kind", "band", OPERATORS),
    "sequence": ("kind", "ray", SEQUENCES),
}

DEFS = {
    family: {"oneOf": [
        _obj({key: {"const": tag}, **props}, required if tag == default else [key, *required])
        for tag, (props, required, _) in table.items()
    ]}
    for family, (key, default, table) in FAMILIES.items()
}


def _parse(family, desc, *args):
    key, default, table = FAMILIES[family]
    if not isinstance(desc, dict):
        raise InvalidConfigError(f"{family} descriptor must be an object")
    tag = desc.get(key, default)
    if not isinstance(tag, str) or tag not in table:
        raise InvalidConfigError(f"unknown {family} {key} {tag!r}")
    return table[tag][2](desc, *args)


def space_from_descriptor(desc):
    return _parse("space", desc)


def field_from_descriptor(desc):
    return _parse("field", desc)


def predicate_from_descriptor(desc):
    return _parse("predicate", desc)


def operator_from_descriptor(space, desc):
    """Build a band operator from a descriptor, flattening composite
    expressions (sums, products, scalar multiples, adjoints, translates)
    eagerly into a single stencil."""
    return _parse("operator", desc, space)


def sequence_from_descriptor(desc):
    return _parse("sequence", desc)
