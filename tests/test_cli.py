import copy
import hashlib
import importlib.util
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from jsonschema.validators import validator_for

from limitops import (
    AndPredicate, BandOperator, ConstantField, EmptyPredicate, ExplicitSequence,
    ExpressionField, ExpressionPredicate, FiniteSetPredicate, FullPredicate,
    HalfspacePredicate, IndicatorField, InvalidConfigError, NotPredicate, PeriodicField,
    ProductField, Ray, ScaledField, SeededRandomField, Space, Subsequence,
    SublatticePredicate, SumField, TableField, Window, _kernels, cli,
    essential_spectrum_estimate, field_from_descriptor, identity, laplacian_stencil,
    multiplication, nu_grid_indicator, operator_from_descriptor, predicate_from_descriptor,
    sequence_from_descriptor, shift_operator, space_from_descriptor, spectrum_estimate_for,
)
from limitops.cli import (
    CONFIG_SCHEMA, TASK_SCHEMAS, _csv_rows, _dumps, _plain, full_schema, main,
)
from limitops.descriptors import FAMILIES


Z1 = {"kind": "lattice", "dim": 1}
Z2 = {"kind": "lattice", "dim": 2}

PERIODIC_OP = {
    "kind": "sum",
    "terms": [
        {"kind": "laplacian"},
        {"kind": "multiplication",
         "field": {"type": "periodic", "values": [0.3, -0.4], "period": [2]}},
    ],
}

NU_GRID_CFG = {
    "space": Z1, "operator": PERIODIC_OP,
    "sequences": [{"v": [2], "label": "even"}],
    "task": {"method": "nuGrid", "windowRadius": 20, "pitch": 0.25,
             "zBox": [-3.0, 3.0, -1.0, 1.0], "tau": 0.1},
}

RANDOM_OP = {
    "kind": "sum",
    "terms": [
        {"kind": "laplacian"},
        {"kind": "multiplication", "field": {"type": "seededRandom"}},
    ],
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def payload_without_timings(text):
    data = json.loads(text)
    assert "timings" in data
    del data["timings"]
    return json.dumps(data, sort_keys=True)


# -- schema -------------------------------------------------------------------


def meta_check(schema):
    """Check ``schema`` against its metaschema, with the validator class the
    CLI builds for it. The CLI itself never does: its schemas are constants,
    so this check runs here, once, instead of in every CLI process."""
    validator_for(schema).check_schema(schema)


def test_print_schema_is_valid_jsonschema(capsys):
    code, out, _ = run(["--print-schema"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["schemaVersion"] == "1"
    assert set(blob["tasks"]) == set(TASK_SCHEMAS)
    schema = full_schema()
    for task, sch in [(None, schema["config"]), *schema["tasks"].items()]:
        meta_check(sch)
        assert type(cli._validator(task)) is validator_for(sch)


@pytest.mark.parametrize("where", ["properties", "$defs"])
def test_meta_check_rejects_a_broken_schema(where):
    broken = copy.deepcopy(CONFIG_SCHEMA)
    broken[where]["space"] = {"type": 5}
    with pytest.raises(jsonschema.SchemaError):
        meta_check(broken)


def _roundtrip_cases():
    """(family, space, descriptor, reference). First the payload fragments
    that once failed to load back, then at least one case per row of every
    descriptor table. The descriptor is what the reference emits, except for
    the composite operator kinds, which no emitter writes (operators emit
    "band"): theirs is written out."""
    z1 = Space(kind="lattice", dim=1)
    z2 = Space(kind="lattice", dim=2)
    fib = Space(kind="lattice", dim=1, fiber=2)
    ops = [
        (z2, laplacian_stencil(z2) + multiplication(z2, PeriodicField([[2.5], [-2.5]]))),
        (z1, BandOperator(z1, {(0,): TableField({(0,): 3.0, (1,): -1j}, 0.5),
                               (2,): 0.25 - 0.5j})),
        (fib, BandOperator(fib, {(1, 0): 1.0, (-1, 0): 1.0, (0, 1): 0.6 - 0.1j})),
    ]
    sequences = [Ray((1, 0)), Ray((1, 0), (2, 0)), ExplicitSequence(((0, 0), (3, 1), (7, 2))),
                 Subsequence(Ray((1, 2), (0, -1)), (1, 4, 9), label="sparse")]
    spaces = [Space(kind="lattice", dim=2, metric="l1", fiber=3, basepoint=(1, -1, 2)),
              Space(kind="graph", adjacency={0: [1], 1: [0, 2], 2: [1]}, basepoint=1)]
    table = TableField({(1, 0): 2.0, (-2, 3): 1j}, -1.0)
    sub = SublatticePredicate((2, 3), (1, 0))
    fields = [
        ConstantField(2 - 3j), PeriodicField([[1, 2j], [3, 4]]),
        ExpressionField("sin(n1) + i*n2"), table,
        SeededRandomField(11, mode="phase", scale=0.5), IndicatorField(sub),
        SumField([ConstantField(1.5), ExpressionField("n1")]),
        ProductField([ExpressionField("n2"), PeriodicField([[1, -1]])]),
        ScaledField(ExpressionField("n1*n2"), 0.5 + 2j),
        ExpressionField("n1^2 - n2").shifted(z2, (3, -1)), ExpressionField("i*n1").conj(),
    ]
    half = HalfspacePredicate((1, -0.5), 0.5)
    predicates = [
        FullPredicate(), EmptyPredicate(), half, sub,
        FiniteSetPredicate([(0, 0), (1, -1)]), ExpressionPredicate("n1 - n2", (1, 0)),
        NotPredicate(half), AndPredicate([half, sub]),
    ]
    emitted = ([("operator", sp, op) for sp, op in ops]
               + [("sequence", z2, q) for q in sequences]
               + [("space", None, x) for x in spaces]
               + [("field", z2, f) for f in fields]
               + [("predicate", z2, p) for p in predicates])
    shift = shift_operator(z2, (1, 0))
    mult = multiplication(z2, ExpressionField("n1 + 2*n2"))
    written = [
        (z1, {"stencil": [{"offset": [1], "coeff": {"type": "constant", "value": 1.0}}]},
         shift_operator(z1, (1,))),
        (z2, {"kind": "identity"}, identity(z2)),
        (z2, {"kind": "laplacian"}, laplacian_stencil(z2)),
        (z2, {"kind": "shift", "v": [1, 0]}, shift),
        (z2, {"kind": "multiplication", "field": table.to_descriptor()},
         multiplication(z2, table)),
        (z2, {"kind": "sum", "terms": [{"kind": "laplacian"}, {"kind": "shift", "v": [1, 0]}]},
         laplacian_stencil(z2) + shift),
        (z2, {"kind": "product", "factors": [{"kind": "shift", "v": [1, 0]},
                                             mult.to_descriptor()]}, shift @ mult),
        (z2, {"kind": "scaled", "operator": {"kind": "laplacian"},
              "factor": {"re": 0.0, "im": 2.0}}, laplacian_stencil(z2).scaled(2j)),
        (z2, {"kind": "adjoint", "operator": mult.to_descriptor()}, mult.adjoint()),
        (z2, {"kind": "translated", "operator": mult.to_descriptor(), "x": [1, -1]},
         mult.translated((1, -1))),
    ]
    return ([(family, sp, x.to_descriptor(), x) for family, sp, x in emitted]
            + [("operator", sp, d, op) for sp, d, op in written])


_ROUNDTRIP_CASES = _roundtrip_cases()


def _row(family, desc):
    key, default, _ = FAMILIES[family]
    return family, desc.get(key, default)


def _case_id(family, desc):
    key, _, _ = FAMILIES[family]
    return "-".join(_row(family, desc)) + ("" if key in desc else "-untagged")


def test_roundtrip_cases_cover_every_table_row():
    # a new kind cannot land without a round-trip case
    assert ({_row(family, desc) for family, _, desc, _ in _ROUNDTRIP_CASES}
            == {(family, tag) for family, (_, _, table) in FAMILIES.items() for tag in table})


@pytest.mark.parametrize("family", FAMILIES)
def test_unknown_tag_is_refused(family):
    key, _, _ = FAMILIES[family]
    with pytest.raises(InvalidConfigError, match=f"^unknown {family} {key} 'bogus'$"):
        parse(family, Space(kind="lattice", dim=1), {key: "bogus"})


_PROBE = np.array([[0, 0], [1, -2], [5, 3], [-4, 7], [2, 0], [3, 3]])


def assert_same(family, space, back, ref):
    """``back`` and ``ref`` agree where it can be seen: equal spaces, equal
    field values and predicate tests on probe points, equal operator blocks
    on a window, equal sequence points."""
    if family == "space":
        assert back == ref
    elif family == "field":
        np.testing.assert_array_equal(back.eval(space, _PROBE), ref.eval(space, _PROBE))
    elif family == "predicate":
        assert back.test(space, _PROBE).tolist() == ref.test(space, _PROBE).tolist()
    elif family == "operator":
        w = Window(space, space.basepoint, 4)
        np.testing.assert_array_equal(back.block(w, w), ref.block(w, w))
    else:
        b1, b2 = ref.bind(space), back.bind(space)
        assert b1.finite == b2.finite
        every = range(b1.finite or 6)  # a ray: its first six points
        assert [b1.point(n) for n in every] == [b2.point(n) for n in every]


def parse(family, space, desc):
    if family == "operator":
        return operator_from_descriptor(space, desc)
    return {"space": space_from_descriptor, "field": field_from_descriptor,
            "predicate": predicate_from_descriptor,
            "sequence": sequence_from_descriptor}[family](desc)


def load_back(family, space, desc):
    """Write ``desc`` as a payload would, check it against the schema's
    ``$defs`` entry for ``family`` and parse it."""
    desc = json.loads(_dumps(desc))
    jsonschema.validate(desc, {"$schema": CONFIG_SCHEMA["$schema"],
                               "$defs": CONFIG_SCHEMA["$defs"],
                               "$ref": f"#/$defs/{family}"})
    return parse(family, space, desc)


@pytest.mark.parametrize("family, space, desc, ref", _ROUNDTRIP_CASES,
                         ids=["z2-periodic", "table", "fiber2", "ray", "ray-offset"]
                         + [_case_id(c[0], c[2]) for c in _ROUNDTRIP_CASES[5:]])
def test_emitted_descriptors_load_back(family, space, desc, ref):
    # what the library writes into payloads is a valid config fragment, and
    # every row of the descriptor tables parses what the schema accepts
    assert_same(family, space, load_back(family, space, desc), ref)


_Z2 = Space(kind="lattice", dim=2)
_INTS = st.integers(-4, 4)
_VEC = st.tuples(_INTS, _INTS)
_SMALL = st.sampled_from([0.5, -2.0, 1j, 0.25 - 0.75j])
_PREDICATES = st.recursive(
    st.one_of(
        st.tuples(st.sampled_from([1.0, -0.5, 2.0]), st.sampled_from([0.0, 1.0]), _INTS)
        .map(lambda t: HalfspacePredicate(t[:2], t[2])),
        st.tuples(st.integers(1, 3), st.integers(1, 3), _VEC)
        .map(lambda t: SublatticePredicate(t[:2], t[2])),
        st.lists(_VEC, max_size=3).map(FiniteSetPredicate),
        st.tuples(st.sampled_from(["n1 - n2", "n1*n2 - 1"]), _VEC)
        .map(lambda t: ExpressionPredicate(*t)),
    ),
    lambda inner: st.one_of(inner.map(NotPredicate),
                            st.lists(inner, min_size=1, max_size=3).map(AndPredicate)),
    max_leaves=4)
_FIELD_LEAVES = st.one_of(
    _SMALL.map(ConstantField),
    st.lists(_SMALL, min_size=2, max_size=2).map(lambda v: PeriodicField([v, v[::-1]])),
    st.sampled_from(["n1 + 2*n2", "cos(n1) - i*n2"]).map(ExpressionField),
    st.dictionaries(_VEC, _SMALL, max_size=3).map(TableField),
    st.integers(0, 2 ** 40).map(SeededRandomField),
    _PREDICATES.map(IndicatorField),
)
_FIELDS = st.recursive(_FIELD_LEAVES, lambda inner: st.one_of(
    st.tuples(inner, inner).map(lambda t: t[0].plus(t[1])),
    st.tuples(inner, inner).map(lambda t: t[0].times(t[1])),
    st.tuples(inner, _SMALL).map(lambda t: t[0].scaled(t[1])),
    st.tuples(inner, _VEC).map(lambda t: t[0].shifted(_Z2, t[1])),
    inner.map(lambda f: f.conj()),
), max_leaves=6)


@settings(max_examples=50, deadline=None)
@given(_FIELDS)
def test_field_trees_round_trip(field):
    assert_same("field", _Z2, load_back("field", _Z2, field.to_descriptor()), field)


def test_limit_operator_loads_as_a_config(tmp_path, capsys):
    code, out, _ = run(["limits", "--config", write_cfg(tmp_path, {
        "space": Z1, "operator": PERIODIC_OP,
        "sequences": [{"v": [2], "label": "even"}]})], capsys)
    assert code == 0
    limit = json.loads(out)["result"]["limits"][0]["operator"]
    assert limit["kind"] == "band" and "omega" not in limit
    code, out, _ = run(["essential-spectrum", "--config", write_cfg(tmp_path, {
        "space": Z1, "operator": limit,
        "sequences": [{"v": [2], "label": "even"}]}, "limit.json")], capsys)
    assert code == 0
    assert [e["method"] for e in json.loads(out)["result"]["estimates"]] == ["floquet"]


def test_subcommand_print_schema(capsys):
    code, out, _ = run(["geometry", "--print-schema"], capsys)
    assert code == 0
    assert json.loads(out)["config"] == CONFIG_SCHEMA


@pytest.mark.parametrize("argv", [["--print-schema"], ["geometry", "--print-schema"]])
def test_print_schema_bytes(capsys, argv):
    code, out, _ = run(argv, capsys)
    assert code == 0
    assert out == json.dumps(full_schema(), sort_keys=True, indent=2) + "\n"


def test_no_task_is_an_error(capsys):
    code, _, err = run([], capsys)
    assert code == 1
    assert "task" in err


@pytest.mark.parametrize("argv", [["nosuch"], ["geometry", "--threads", "x"],
                                  ["geometry", "--format", "xml"], ["geometry", "--bogus"]])
def test_usage_errors_exit_1(capsys, argv):
    # argparse would exit 2, the code that says every limit extraction diverged
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: limitops") and "error:" in err


@pytest.mark.parametrize("argv", [["--help"], ["fredholm", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: limitops") and "--config" in out


def test_one_parser_serves_independent_calls(tmp_path, capsys):
    # main builds its parser once per process; no option of one call may
    # reach the next
    cfg = write_cfg(tmp_path, {"space": Z1, "task": {"rMax": 2}})
    csv = tmp_path / "profile.csv"
    assert main(["geometry", "--config", cfg, "--seed", "5", "--format", "csv",
                 "--out", str(csv)]) == 0
    code, out, _ = run(["geometry", "--config", cfg], capsys)
    assert code == 0
    assert json.loads(out)["resolved"]["seed"] == 0
    assert csv.read_text() == "r,count\n1,3\n2,5\n"
    code, out, _ = run(["--print-schema"], capsys)
    assert (code, json.loads(out)) == (0, json.loads(_dumps(full_schema())))
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()


def test_usage_error_exit_code_of_the_process():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "limitops.cli", "nosuch"], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    assert "invalid choice" in proc.stderr


def test_missing_config_is_an_error(capsys):
    code, _, err = run(["geometry"], capsys)
    assert code == 1
    assert "--config" in err


def test_unknown_top_level_key_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": Z1, "bogus": 1})
    code, _, err = run(["geometry", "--config", cfg], capsys)
    assert code == 1
    assert "config rejected" in err


def test_bad_task_parameter_rejected(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": Z1, "task": {"rMax": 0}})
    code, _, err = run(["geometry", "--config", cfg], capsys)
    assert code == 1
    assert "config rejected" in err
    assert "rMax" in err


@pytest.mark.parametrize("cfg, line", [
    # the first error jsonschema finds is the oneOf under "space"; the best
    # match is the leaf it contains
    ({"space": {"kind": "lattice", "dim": 0}, "sequences": [{"v": "x"}]},
     "config rejected at space/dim: 0 is less than the minimum of 1\n"),
    ({"space": Z1, "task": {"rMax": 0, "bogus": 1}},
     "config rejected: Additional properties are not allowed ('bogus' was unexpected)\n"),
])
def test_rejection_message_is_the_best_match(tmp_path, capsys, cfg, line):
    path = write_cfg(tmp_path, cfg)
    first = run(["geometry", "--config", path], capsys)
    second = run(["geometry", "--config", path], capsys)
    assert first == second == (1, "", line)


def _indicator_op(predicate):
    return {"kind": "multiplication", "field": {"type": "indicator", "predicate": predicate}}


@pytest.mark.parametrize("operator, where", [
    # an integer modulus reached SublatticePredicate and raised a TypeError
    (_indicator_op({"type": "sublattice", "modulus": 2, "residue": 1}),
     "operator/field/predicate/modulus"),
    # a stencil entry without a coefficient was parsed as field None
    ({"kind": "band", "stencil": [{"offset": [1]}]}, "operator/stencil/0"),
    # a fractional offset was truncated to an integer shift
    (_indicator_op({"type": "expressionPredicate", "source": "n1", "offset": [0.9]}),
     "operator/field/predicate/offset/0"),
], ids=["integer-modulus", "stencil-without-coeff", "fractional-offset"])
def test_descriptors_the_parsers_cannot_take_are_rejected(tmp_path, capsys, operator, where):
    cfg = write_cfg(tmp_path, {"space": Z1, "operator": operator, "sequences": [{"v": [1]}]})
    code, out, err = run(["limits", "--config", cfg], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"config rejected at {where}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("source", [
    "-" * 1000 + "1", "(" * 250 + "1" + ")" * 250, "abs(" * 250 + "1" + ")" * 250,
    "+".join(["1"] * 1000), "^".join(["2"] * 5000), "n1\u00b2",
], ids=["unary", "parentheses", "calls", "sum", "power", "superscript"])
def test_bad_expression_sources_are_one_error_line(tmp_path, capsys, source):
    # the nested ones once ended in a RecursionError traceback, n1² in int()'s
    # ValueError
    field = {"type": "expression", "source": source}
    cfg = write_cfg(tmp_path, {"space": Z1, "operator": {"kind": "multiplication", "field": field},
                               "sequences": [{"v": [1]}]})
    code, out, err = run(["limits", "--config", cfg], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert ("nested" in err) == (source != "n1\u00b2")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("source", ["1/0", "n + 1/0", "10^400", "(0-8)^(1/3)"])
def test_non_finite_constant_expressions_are_an_error(tmp_path, capsys, source):
    # the first three once ended in a ZeroDivisionError or OverflowError
    # traceback, and the last exited 0 on the real part of a complex power
    field = {"type": "expression", "source": source}
    cfg = write_cfg(tmp_path, {"space": Z1, "operator": {"kind": "multiplication", "field": field},
                               "sequences": [{"v": [1]}]})
    code, out, err = run(["limits", "--config", cfg], capsys)
    assert (code, out) == (1, "")
    assert "Traceback" not in err and err.splitlines()[-1].startswith("error: ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("source", ["1/0", "(0-8)^(1/3)"])
@pytest.mark.parametrize("with_laplacian", [False, True], ids=["alone", "plus-laplacian"])
def test_non_finite_coefficients_are_named_before_the_svd(tmp_path, capsys, source,
                                                          with_laplacian):
    # each once exited 1 with "error: SVD did not converge"; then 1/0 was
    # named as the gap's inf - inf = nan, after two RuntimeWarnings
    mult = {"kind": "multiplication", "field": {"type": "expression", "source": source}}
    op = {"kind": "sum", "terms": [{"kind": "laplacian"}, mult]} if with_laplacian else mult
    cfg = write_cfg(tmp_path, {"space": Z1, "operator": op, "sequences": [{"v": [1]}]})
    code, out, err = run(["limits", "--config", cfg], capsys)
    assert (code, out) == (1, "")
    value = "inf" if source == "1/0" else "nan"
    assert err == (f"error: non-finite coefficient a(u, v) = {value} at u = [0], v = [0]: "
                   "band operators need finite coefficients\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_non_finite_coefficient_past_the_first_window_is_named_at_its_point(tmp_path, capsys):
    # the gap conjugate(A, 128) - conjugate(A, 64) holds it at u = 2 in its
    # own frame, which the message once named
    mult = {"kind": "multiplication", "field": {"type": "expression", "source": "1/(n-130)"}}
    cfg = write_cfg(tmp_path, {"space": Z1, "operator": mult, "sequences": [{"v": [1]}]})
    code, out, err = run(["limits", "--config", cfg], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: non-finite coefficient a(u, v) = inf at u = [130], v = [130]: "
                   "band operators need finite coefficients\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("p", [1.5, 2])
def test_bdo_diagnostic_names_a_non_finite_coefficient(tmp_path, capsys, p):
    # at p = 2 it once exited 1 with "error: Eigenvalues did not converge"
    # after a RuntimeWarning
    op = {"kind": "sum", "terms": [{"kind": "shift", "v": [1]}, {
        "kind": "multiplication", "field": {"type": "expression", "source": "1/n"}}]}
    cfg = write_cfg(tmp_path, {"space": Z1, "operator": op,
                               "task": {"tGrid": [0.5, 0.25], "scopeRadius": 10, "p": p}})
    code, out, err = run(["bdo-diagnostic", "--config", cfg], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: non-finite coefficient a(u, v) = inf at u = [0], v = [0]: "
                   "band operators need finite coefficients\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_p_norms_name_a_non_finite_coefficient(tmp_path, capsys):
    # at p = 1.5 fredholm once exited 0 on an inf table entry; the config now
    # refuses Infinity itself, so the inf comes from an expression
    op = {"kind": "sum", "terms": [
        {"kind": "identity"},
        {"kind": "scaled", "operator": {"kind": "shift", "v": [1]}, "factor": 0.3},
        {"kind": "multiplication", "field": {"type": "expression", "source": "1/(n-2)"}}]}
    cfg = write_cfg(tmp_path, {"space": Z1, "operator": op, "sequences": [{"v": [1]}],
                               "task": {"p": 1.5, "schedule": [4, 8]}})
    code, out, err = run(["fredholm", "--config", cfg], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: non-finite coefficient a(u, v) = inf at u = [2], v = [2]: "
                   "band operators need finite coefficients\n")


LAPLACIAN_Z1 = {"space": Z1, "operator": {"kind": "laplacian"}, "sequences": [{"v": [1]}]}


@pytest.mark.parametrize("task, block, constant", [
    # once an OverflowError traceback from the grid
    ("essential-spectrum", {"method": "nuGrid", "zBox": [-3, math.inf, -1, 1]}, "Infinity"),
    # once exit 0 with "tau": NaN in the payload and the verdict inconclusive
    ("fredholm", {"tau": math.nan}, "NaN"),
    # once "error: cannot convert float NaN to integer"
    ("essential-spectrum", {"method": "nuGrid", "pitch": math.nan}, "NaN"),
    ("essential-spectrum", {"method": "nuGrid", "zBox": [-math.inf, 3, -1, 1]}, "-Infinity"),
], ids=["zBox-Infinity", "tau-NaN", "pitch-NaN", "zBox-minus-Infinity"])
def test_json_constants_are_refused_when_the_config_is_loaded(tmp_path, capsys, task, block,
                                                               constant):
    # json.dumps writes the non-standard constants NaN, Infinity and -Infinity
    cfg = write_cfg(tmp_path, {**LAPLACIAN_Z1, "task": block})
    assert constant in open(cfg).read()
    code, out, err = run([task, "--config", cfg], capsys)
    assert (code, out) == (1, "")
    assert err == f"error: the config holds {constant}; every number in it must be finite\n"


def test_a_zbox_too_wide_to_grid_is_one_error_line(tmp_path, capsys):
    # once an OverflowError traceback: the axis width 2e308 overflows to inf
    cfg = write_cfg(tmp_path, {**LAPLACIAN_Z1,
                               "task": {"method": "nuGrid", "zBox": [-1e308, 1e308, -1, 1]}})
    code, out, err = run(["essential-spectrum", "--config", cfg], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: zBox [-1e+308, 1e+308, -1, 1] is too wide to grid at pitch 0.02: "
                   "its axis count overflows\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_gram_that_overflows_is_refused_without_warnings(tmp_path, capsys):
    # once two lines of "RuntimeWarning: overflow encountered in multiply"
    # before the error line
    op = {"kind": "sum", "terms": [{"kind": "laplacian"}, {
        "kind": "multiplication", "field": {"type": "constant", "value": 1e300}}]}
    cfg = write_cfg(tmp_path, {"space": Z1, "operator": op, "sequences": [{"v": [1]}],
                               "task": {"method": "nuGrid", "windowRadius": 20, "pitch": 0.1,
                                        "zBox": [-1, 1, -1, 1]}})
    code, out, err = run(["essential-spectrum", "--config", cfg], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: the window's Gram bands overflow: a coefficient is too large to "
                   "square in float64\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bdo_diagnostic_refuses_a_gram_that_overflows(tmp_path, capsys):
    # once "RuntimeWarning: overflow encountered in matmul", then "error:
    # Eigenvalues did not converge": the band route handed the overflowing
    # Gram to the dense one
    op = {"kind": "band", "stencil": [
        {"offset": [1], "coeff": {"type": "constant", "value": 1e300}},
        {"offset": [0], "coeff": {"type": "constant", "value": 1.0}}]}
    cfg = write_cfg(tmp_path, {"space": Z1, "operator": op, "task": {"scopeRadius": 10}})
    code, out, err = run(["bdo-diagnostic", "--config", cfg], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: the window's Gram bands overflow: a coefficient is too large to "
                   "square in float64\n")


def test_a_scope_beyond_int64_is_one_error_line(tmp_path, capsys):
    # once "error: point box (18446744073709551620,) is too large to index by
    # int64 keys": the scope's points wrapped past 2^63 - 1
    cfg = write_cfg(tmp_path, {"space": Z1, "task": {"center": [2 ** 63 - 2], "scopeRadius": 3}})
    code, out, err = run(["covering", "--config", cfg], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: window of radius 3 about [9223372036854775806] leaves int64: "
                   "center +- floor(radius) must fit on every axis\n")


@pytest.mark.parametrize("config", [
    {"operator": {"kind": "multiplication", "field": {
        "type": "table", "entries": [{"point": [2 ** 70], "value": 3.0}]}},
     "sequences": [{"v": [1]}]},
    {"operator": {"kind": "identity"},
     "sequences": [{"kind": "explicit", "points": [[1], [2 ** 70]]}]},
], ids=["table-key", "explicit-point"])
def test_integers_outside_int64_are_one_error_line(tmp_path, capsys, config):
    # both once ended in an OverflowError traceback
    cfg = write_cfg(tmp_path, {"space": Z1, **config})
    code, out, err = run(["limits", "--config", cfg], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "does not fit in int64" in err


def test_unreadable_config_is_an_error(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(["geometry", "--config", str(bad)], capsys)
    assert code == 1
    assert "error" in err


def test_operator_required_for_operator_tasks(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": Z1, "sequences": [{"v": [1]}]})
    code, _, err = run(["limits", "--config", cfg], capsys)
    assert code == 1
    assert "operator" in err


# -- the task table ------------------------------------------------------------

LAPLACIAN_Z1 = {"space": Z1, "operator": {"kind": "laplacian"}, "sequences": [{"v": [1]}]}
# what a run with no task block resolves to; the forwarded values are the
# defaults of the library signatures
RESOLVED_DEFAULTS = {
    "geometry": {"probeRadius": 2, "rMax": 8},
    "covering": {"r": 2, "scopeRadius": 20},
    "partition": {"maxPoints": 200000, "scopeFactor": 4, "variation": 0.5},
    "bdo-diagnostic": {"p": 2, "scopeRadius": 64, "tGrid": [0.5, 0.25]},
    "limits": {"budget": 1048576, "p": 2, "radii": [5, 10, 20], "tol": 1e-08},
    "compactness": {"budget": 1048576, "p": 2, "radii": [5, 10, 20], "tol": 1e-09},
    "fredholm": {"budget": 1048576, "p": 2, "radii": [5, 10, 20],
                 "schedule": [50, 100, 200, 400], "tau": 0.05, "tol": 1e-08},
    "essential-spectrum": {"budget": 1048576, "method": "auto", "pitch": 0.02,
                           "radii": [5, 10, 20], "tau": 0.05, "thetaGrid": 2048,
                           "tol": 1e-08, "windowRadius": 400, "zBox": None},
    "ess-norm": {"budget": 1048576, "radii": [5, 10, 20], "schedule": [25, 50, 100],
                 "tol": 1e-08},
}


@pytest.mark.parametrize("task", cli.TASKS)
def test_task_defaults_validate_against_the_task_schema(task):
    # as the JSON a user would write: tuples become arrays
    jsonschema.validate(json.loads(json.dumps(cli.TASK_DEFAULTS[task])), TASK_SCHEMAS[task])


@pytest.mark.parametrize("task", cli.TASKS)
def test_run_without_task_block_resolves_the_defaults(tmp_path, capsys, task):
    code, out, _ = run([task, "--config", write_cfg(tmp_path, LAPLACIAN_Z1)], capsys)
    assert code == 0
    assert json.loads(out)["resolved"]["task"] == RESOLVED_DEFAULTS[task]


def test_symbol_method_is_echoed_as_given_and_runs_the_symbol_oracle(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {**LAPLACIAN_Z1, "task": {"method": "symbol", "thetaGrid": 64}})
    code, out, _ = run(["essential-spectrum", "--config", cfg], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["resolved"]["task"]["method"] == "symbol"
    assert data["result"]["params"]["method"] == "symbolOracle"
    assert [e["method"] for e in data["result"]["estimates"]] == ["symbolOracle"]


# -- payloads ----------------------------------------------------------------


def test_geometry_payload(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": Z2, "task": {"rMax": 4}})
    code, out, _ = run(["geometry", "--config", cfg], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["schemaVersion"] == "1"
    assert data["task"] == "geometry"
    assert data["result"]["profile"] == [[r, (2 * r + 1) ** 2] for r in range(1, 5)]
    assert data["resolved"]["seed"] == 0
    timings = data["timings"]
    assert set(timings) == {"totalSeconds", "validateSeconds", "taskSeconds"}
    for key in ("validateSeconds", "taskSeconds"):
        assert 0 <= timings[key] <= timings["totalSeconds"]


def test_geometry_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": Z1, "task": {"rMax": 3}})
    code, out, _ = run(["geometry", "--config", cfg, "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,count"
    assert lines[1:] == ["1,3", "2,5", "3,7"]


def test_covering_payload(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": Z2, "task": {"scopeRadius": 10, "r": 2}})
    code, out, _ = run(["covering", "--config", cfg], capsys)
    assert code == 0
    rep = json.loads(out)["result"]["report"]
    assert rep["ok"]
    assert rep["diam_ok"] and rep["neighbor_ok"]


@pytest.mark.parametrize("ncells_over_cap", [0, 1])
def test_covering_net_beyond_the_cap_is_flagged(tmp_path, capsys, monkeypatch,
                                                ncells_over_cap):
    cfg = write_cfg(tmp_path, {"space": Z1, "task": {"scopeRadius": 12, "r": 1}})
    code, out, _ = run(["covering", "--config", cfg], capsys)
    assert code == 0
    full = json.loads(out)["result"]
    assert full["cells"] == 13 and "netOmitted" not in full
    monkeypatch.setattr(cli, "NET_CAP", full["cells"] - ncells_over_cap)
    code, out, _ = run(["covering", "--config", cfg], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    if ncells_over_cap:
        assert "net" not in res
        assert res.pop("netOmitted") == {"points": 13, "cap": 12}
        del full["net"]
    assert res == full


def test_partition_payload(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": Z1, "task": {"variation": 0.5,
                                                     "scopeRadius": 40}})
    code, out, _ = run(["partition", "--config", cfg], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["pitch"] == 9
    assert res["support_diam"] == 16
    assert res["variation"] == 0.5


def test_limits_success_and_divergence_exit_codes(tmp_path, capsys):
    ok = write_cfg(tmp_path, {
        "space": Z1, "operator": PERIODIC_OP,
        "sequences": [{"v": [2], "label": "even"}],
    }, "ok.json")
    code, out, _ = run(["limits", "--config", ok], capsys)
    assert code == 0
    entry = json.loads(out)["result"]["limits"][0]
    assert entry["status"] == "limit"
    assert entry["exact"]

    bad = write_cfg(tmp_path, {
        "space": Z1, "operator": RANDOM_OP,
        "sequences": [{"v": [1]}],
        "task": {"budget": 256, "radii": [3, 6]},
    }, "bad.json")
    code2, out2, _ = run(["limits", "--config", bad], capsys)
    assert code2 == 2
    assert json.loads(out2)["result"]["limits"][0]["status"] == "divergent"


@pytest.mark.parametrize("task", ["limits", "compactness", "fredholm", "essential-spectrum",
                                  "ess-norm"])
def test_limit_tasks_exit_2_only_when_every_sequence_diverged(tmp_path, capsys, task):
    # the one exit rule: the period-2 potential cycles along v = 1 and has a
    # limit along v = 2
    for seqs, want in (([{"v": [1]}], 2), ([{"v": [1]}, {"v": [2]}], 0)):
        cfg = write_cfg(tmp_path, {"space": Z1, "operator": PERIODIC_OP, "sequences": seqs})
        code, out, err = run([task, "--config", cfg], capsys)
        assert (code, err) == (want, "")
        result = json.loads(out)["result"]
        if task == "limits":
            assert [e["status"] for e in result["limits"]] == ["divergent", "limit"][: len(seqs)]
        else:
            assert len(result["divergences"]) == 1


def test_periodic_table_longer_than_its_period_is_refused(tmp_path, capsys):
    # this table once gave an exact limit with coefficient 4 where the truth
    # is 2, and certificate gaps of 0.0
    cfg = write_cfg(tmp_path, {
        "space": Z1,
        "operator": {"kind": "multiplication", "field": {
            "type": "periodic", "values": [1, 2, 3, 4], "shape": [4], "period": [2]}},
        "sequences": [{"v": [2], "w": [1]}],
    })
    code, out, err = run(["limits", "--config", cfg], capsys)
    assert (code, out) == (1, "")
    assert "does not start with the period" in err


def test_subsequence_past_a_finite_parent_is_one_error_line(tmp_path, capsys):
    # the parent has 3 points; indices 5 and 9 once read its last point, and
    # the run exited 0 with a limit of gap 0.0
    cfg = write_cfg(tmp_path, {
        "space": Z1,
        "operator": {"kind": "multiplication",
                     "field": {"type": "expression", "source": "sin(n)"}},
        "sequences": [{"kind": "subsequence", "indices": [1, 5, 9],
                       "parent": {"kind": "explicit", "points": [[10], [20], [40]]}}],
        "task": {"radii": [2]},
    })
    code, out, err = run(["limits", "--config", cfg], capsys)
    assert (code, out) == (1, "")
    assert err == "error: index 5 lies outside the sequence 'explicit' of 3 points\n"


def test_fredholm_cli_end_to_end(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "space": Z1,
        "operator": {"kind": "shift", "v": [1]},
        "projection": {"predicate": {"type": "halfspace", "normal": [1],
                                     "threshold": 0}},
        "sequences": [{"v": [1], "label": "right"}, {"v": [-1], "label": "left"}],
        "task": {"schedule": [25, 50]},
    })
    code, out, _ = run(["fredholm", "--config", cfg], capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["verdict"] == "Fredholm-consistent"


@pytest.mark.parametrize("task, cfg", [
    ("partition", {"space": Z2, "task": {"variation": 0.5, "scopeRadius": 12}}),
    ("covering", {"space": Z2, "task": {"scopeRadius": 10, "r": 2}}),
    ("essential-spectrum", NU_GRID_CFG),
])
def test_csv_rows_match_json_payload(tmp_path, capsys, task, cfg):
    """CSV cells format the plain values of the result: each row equals the
    row rebuilt from the stdlib-parsed JSON payload of the same config. A
    list cell sorts its dict keys, as the JSON payload does."""
    path = write_cfg(tmp_path, cfg)
    code, text, _ = run([task, "--config", path], capsys)
    assert code == 0
    expected = list(_csv_rows(task, json.loads(text)["result"]))
    code, out, _ = run([task, "--config", path, "--format", "csv"], capsys)
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == len(expected) > 1
    assert rows == expected


REPORT_CSV = {
    "bdo-diagnostic": (
        {"space": Z1, "operator": {"kind": "laplacian"},
         "task": {"tGrid": [0.5, 0.25], "scopeRadius": 10}},
        "t,value,normalized",
        lambda r: [f"{t},{v},{s}" for t, v, s in zip(r["t_grid"], r["values"], r["normalized"])]),
    "limits": (
        {"space": Z1, "operator": PERIODIC_OP,
         "sequences": [{"v": [2], "label": "even"}, {"v": [1], "label": "all"}]},
        "sequence,status,radius,index,gap",
        lambda r: [f"{e['sequence']},limit,{c['radius']},{c['index']},{c['gap']}"
                   for e in r["limits"] if e["status"] == "limit" for c in e["certificate"]]
        + [f"{e['sequence']},divergent,,," for e in r["limits"] if e["status"] == "divergent"]),
    "fredholm": (
        {"space": Z1, "operator": {"kind": "shift", "v": [1]},
         "projection": {"predicate": {"type": "halfspace", "normal": [1], "threshold": 0}},
         "sequences": [{"v": [1], "label": "right"}, {"v": [-1], "label": "left"}],
         "task": {"schedule": [25, 50]}},
        "sequence,verdict,margin",
        lambda r: [f"{e['sequence']},{e['estimate']['verdict']},{e['estimate']['margin']}"
                   for e in r["sequences"]]),
    "ess-norm": (
        {"space": Z1, "operator": PERIODIC_OP, "sequences": [{"v": [2]}],
         "task": {"schedule": [10, 20]}},
        "bound,value",
        lambda r: [f"lower,{r['lower']}", f"upper,{r['upper']}"]),
}


@pytest.mark.parametrize("task", list(REPORT_CSV))
def test_report_csv_rows_match_json_payload(tmp_path, capsys, task):
    """The documented header, then one row per t (bdo-diagnostic), per
    certificate entry and divergence (limits), per sequence (fredholm), or a
    lower and an upper row (ess-norm), read from the JSON payload."""
    cfg, header, rows = REPORT_CSV[task]
    path = write_cfg(tmp_path, cfg)
    code, text, _ = run([task, "--config", path], capsys)
    result = json.loads(text)["result"]
    code_csv, out, _ = run([task, "--config", path, "--format", "csv"], capsys)
    assert code_csv == code
    expected = rows(result)
    assert {"bdo-diagnostic": 2, "limits": 4, "fredholm": 2, "ess-norm": 2}[task] == len(expected)
    assert out.splitlines() == [header, *expected]


def test_compactness_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {
        "space": Z1,
        "operator": {"kind": "multiplication",
                     "field": {"type": "table",
                               "entries": [{"point": [0], "value": 2.0}]}},
        "sequences": [{"v": [1], "label": "right"}],
    })
    code, out, _ = run(["compactness", "--config", cfg, "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "sequence,maxLimitNorm,verdict"
    assert lines[1] == "right,0.0,compact-consistent"


def test_out_writes_file(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"space": Z1, "task": {"rMax": 2}})
    dest = tmp_path / "report.json"
    code, out, _ = run(["geometry", "--config", cfg, "--out", str(dest)], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(dest.read_text())["task"] == "geometry"


def test_unwritable_out_is_an_error(tmp_path, capsys, monkeypatch):
    # the destination is checked before the task runs, with the message
    # writing it would give
    def boom(*args):
        raise AssertionError("the task ran")

    monkeypatch.setitem(cli.RUNNERS, "essential-spectrum", boom)
    cfg = write_cfg(tmp_path, {"space": {"kind": "lattice", "dim": 1},
                               "operator": {"kind": "shift", "v": [1]}})
    (tmp_path / "file").write_text("")
    for dest, error in ((tmp_path / "missing" / "report.json", "[Errno 2] No such file or directory"),
                        (tmp_path / "file" / "report.json", "[Errno 20] Not a directory")):
        code, out, err = run(["essential-spectrum", "--config", cfg, "--out", str(dest)],
                             capsys)
        assert (code, out, err) == (1, "", f"error: {error}: {str(dest)!r}\n")
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    dest = tmp_path / "report.json"
    code, out, err = run(["essential-spectrum", "--config", cfg, "--out", str(dest)], capsys)
    assert (code, out, err) == (1, "", f"error: [Errno 13] Permission denied: {str(dest)!r}\n")
    assert not dest.exists()


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_threads_below_one_is_an_error(tmp_path, capsys, monkeypatch, threads):
    # no silent clamp to one thread: the value is refused before the config
    # is read (a missing config file gives the same error) or the task runs
    def boom(*args):
        raise AssertionError("the task ran")

    monkeypatch.setitem(cli.RUNNERS, "essential-spectrum", boom)
    for cfg in (write_cfg(tmp_path, NU_GRID_CFG), str(tmp_path / "missing.json")):
        code, out, err = run(["essential-spectrum", "--config", cfg, "--threads", threads],
                             capsys)
        assert (code, out, err) == (1, "", "error: --threads must be at least 1\n")


# -- cold start -----------------------------------------------------------------


def run_fresh(script, *argv):
    """Run ``script`` in a fresh interpreter that imports limitops from the
    tree under test; return what it prints, parsed as JSON."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout)


def test_cli_import_loads_no_thread_pool():
    """The sweep runs on one thread, so the CLI imports no executor (nor the
    logging and queue modules it brings)."""
    loaded = run_fresh("import json, sys, limitops.cli\n"
                       "print(json.dumps([m in sys.modules for m in"
                       " ('concurrent.futures', 'logging')]))")
    assert loaded == [False, False]


def test_cli_import_leaves_scipy_unloaded():
    loaded = run_fresh("import json, sys, limitops.cli\n"
                       "print(json.dumps(sorted(m for m in sys.modules"
                       " if m.split('.')[0] == 'scipy')))")
    assert loaded == []


_LEAN_JOBS = [
    ("geometry", {"space": Z2, "task": {"rMax": 3}}),
    ("covering", {"space": Z2, "task": {"scopeRadius": 6, "r": 2}}),
    ("partition", {"space": Z1, "task": {"variation": 0.5, "scopeRadius": 20}}),
]

_BDO_CFG = {"space": Z1, "operator": RANDOM_OP, "task": {"tGrid": [0.5, 0.25], "scopeRadius": 20}}


_FREDHOLM_CFG = {
    "space": Z1,
    "operator": {"kind": "sum", "terms": [
        {"kind": "identity"},
        {"kind": "scaled", "operator": {"kind": "shift", "v": [1]}, "factor": 0.3}]},
    "sequences": [{"v": [1]}, {"v": [-1]}],
    "task": {"schedule": [4, 8]},
}


def test_lapack_loads_on_first_use(tmp_path, capsys):
    """Jobs that touch no band matrix load no LAPACK; the first band job (a
    bdo-diagnostic, whose commutator Gram is a band) loads the compiled
    module alone, nuGrid and fredholm jobs give the in-process payload, and
    none of them imports the scipy.linalg package."""
    jobs = [*_LEAN_JOBS, ("bdo-diagnostic", _BDO_CFG), ("essential-spectrum", NU_GRID_CFG),
            ("fredholm", _FREDHOLM_CFG)]
    calls = [(task, write_cfg(tmp_path, cfg, f"{i}.json"), str(tmp_path / f"{i}.out"))
             for i, (task, cfg) in enumerate(jobs)]
    steps = run_fresh(
        "import json, sys\n"
        "from limitops.cli import main\n"
        "steps = []\n"
        "for task, cfg, out in json.loads(sys.argv[1]):\n"
        "    code = main([task, '--config', cfg, '--out', out])\n"
        "    steps.append([task, code, 'scipy.linalg._flapack' in sys.modules,\n"
        "                  'scipy.linalg' in sys.modules])\n"
        "print(json.dumps(steps))\n",
        json.dumps(calls))
    lean = [[task, 0, False, False] for task, _ in _LEAN_JOBS]
    assert steps == lean + [[task, 0, True, False]
                            for task in ("bdo-diagnostic", "essential-spectrum", "fredholm")]
    for task, cfg, out in calls[-2:]:
        code, text, _ = run([task, "--config", cfg], capsys)
        assert code == 0
        assert payload_without_timings(Path(out).read_text()) == payload_without_timings(text)


def test_essential_spectrum_leaves_numpy_ma_unloaded(tmp_path):
    """A plain np.unique imports numpy.ma (numpy 2.x); the union cloud is
    formed without it, on the nuGrid and on the auto (Floquet) route."""
    auto = {**NU_GRID_CFG, "task": {"method": "auto", "pitch": 0.25}}
    calls = [write_cfg(tmp_path, cfg, f"{i}.json") for i, cfg in enumerate((NU_GRID_CFG, auto))]
    steps = run_fresh(
        "import json, sys\n"
        "from limitops.cli import main\n"
        "steps = []\n"
        "for cfg in json.loads(sys.argv[1]):\n"
        "    code = main(['essential-spectrum', '--config', cfg, '--out', cfg + '.out'])\n"
        "    steps.append([code, 'numpy.ma' in sys.modules])\n"
        "print(json.dumps(steps))\n",
        json.dumps(calls))
    assert steps == [[0, False], [0, False]]
    assert all(json.loads(Path(cfg + ".out").read_text())["result"]["unionCloud"]
               for cfg in calls)


_PROJECTED_CFG = {"space": Z1, "operator": PERIODIC_OP,
                  "projection": {"predicate": {"type": "halfspace", "normal": [1],
                                               "threshold": 0}},
                  "sequences": [{"v": [2], "label": "even"}], "task": {"schedule": [4, 8]}}


def test_valid_configs_leave_jsonschema_unloaded(tmp_path):
    """The compiled check accepts a valid config of every subcommand without
    importing jsonschema; a rejection imports it and words the line that
    test_rejection_message_is_the_best_match pins."""
    jobs = [*_LEAN_JOBS, ("bdo-diagnostic", _BDO_CFG),
            ("limits", {**LAPLACIAN_Z1, "task": {"radii": [3, 6]}}),
            ("compactness", {**LAPLACIAN_Z1, "task": {"radii": [3, 6]}}),
            ("fredholm", _FREDHOLM_CFG), ("essential-spectrum", NU_GRID_CFG),
            ("ess-norm", _PROJECTED_CFG)]
    assert sorted(task for task, _ in jobs) == sorted(cli.TASKS)
    calls = [(task, write_cfg(tmp_path, cfg, f"{i}.json"), str(tmp_path / f"{i}.out"))
             for i, (task, cfg) in enumerate(jobs)]
    rejected = write_cfg(tmp_path, {"space": {"kind": "lattice", "dim": 0},
                                    "sequences": [{"v": "x"}]}, "rejected.json")
    steps = run_fresh(
        "import contextlib, io, json, sys\n"
        "from limitops.cli import main\n"
        "steps = []\n"
        "for task, cfg, out in json.loads(sys.argv[1]):\n"
        "    steps.append([task, main([task, '--config', cfg, '--out', out]),\n"
        "                  'jsonschema' in sys.modules])\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        "    code = main(['geometry', '--config', sys.argv[2]])\n"
        "steps.append([code, err.getvalue(), 'jsonschema' in sys.modules])\n"
        "print(json.dumps(steps))\n",
        json.dumps(calls), rejected)
    assert steps[:-1] == [[task, 0, False] for task, _ in jobs]
    assert steps[-1] == [1, "config rejected at space/dim: 0 is less than the minimum of 1\n",
                         True]


def test_scipy_linalg_reuses_the_loaded_lapack_module():
    """Concurrent first calls load one module, and a later import of
    scipy.linalg re-exports its routines rather than loading a second copy."""
    same = run_fresh(
        "import json, sys, threading\n"
        "from limitops import _kernels\n"
        "sys.setswitchinterval(1e-6)\n"
        "start, got = threading.Barrier(4, timeout=60), []\n"
        "def first():\n"
        "    start.wait()\n"
        "    got.append(_kernels._lapack())\n"
        "threads = [threading.Thread(target=first) for _ in range(4)]\n"
        "for t in threads: t.start()\n"
        "for t in threads: t.join(timeout=60)\n"
        "assert not any(t.is_alive() for t in threads)\n"
        "import scipy.linalg\n"
        "mod = sys.modules['scipy.linalg._flapack']\n"
        "print(json.dumps([len(got) == 4 and all(m is mod for m in got),\n"
        "                  _kernels._lapack() is mod,\n"
        "                  scipy.linalg.lapack.dpbtrf is mod.dpbtrf,\n"
        "                  scipy.linalg.lapack.zhbevx is mod.zhbevx]))\n")
    assert same == [True, True, True, True]
    # here scipy.linalg may have been imported first: its module is reused
    import scipy.linalg
    from limitops import _kernels
    assert _kernels._lapack() is sys.modules["scipy.linalg._flapack"]
    assert _kernels._lapack().dsbevx is scipy.linalg.lapack.dsbevx


def test_first_lapack_use_in_a_fresh_sweep_gives_the_same_payload(tmp_path, capsys):
    """A fresh process whose first LAPACK call comes from the sweep loads
    scipy's LAPACK module there and writes the payload of this process, where
    the module may already be loaded; ``--threads 2`` is accepted on the way
    and changes nothing."""
    cfg = write_cfg(tmp_path, SPECTRUM_CFG)
    out = str(tmp_path / "two.out")
    loaded = run_fresh(
        "import json, sys\n"
        "from limitops.cli import main\n"
        "before = 'scipy.linalg._flapack' in sys.modules\n"
        "code = main(['essential-spectrum', '--config', sys.argv[1], '--threads', '2',\n"
        "             '--out', sys.argv[2]])\n"
        "print(json.dumps([before, code, 'scipy.linalg._flapack' in sys.modules]))\n",
        cfg, out)
    assert loaded == [False, 0, True]
    code, one, _ = run(["essential-spectrum", "--config", cfg, "--threads", "1"], capsys)
    assert code == 0
    assert payload_without_timings(Path(out).read_text()) == payload_without_timings(one)


# -- seeds and determinism ------------------------------------------------------


def test_seed_fills_unseeded_random_fields(tmp_path, capsys):
    cfg = {
        "space": Z1, "operator": RANDOM_OP,
        "sequences": [{"v": [1]}],
        "task": {"budget": 256, "radii": [3, 6]},
    }
    implicit = write_cfg(tmp_path, cfg, "implicit.json")
    explicit_cfg = json.loads(json.dumps(cfg))
    explicit_cfg["operator"]["terms"][1]["field"]["seed"] = 9
    explicit = write_cfg(tmp_path, explicit_cfg, "explicit.json")

    _, out_a, _ = run(["limits", "--config", implicit, "--seed", "9"], capsys)
    _, out_b, _ = run(["limits", "--config", explicit, "--seed", "9"], capsys)
    assert payload_without_timings(out_a) == payload_without_timings(out_b)
    assert json.loads(out_a)["resolved"]["config"]["operator"]["terms"][1][
        "field"]["seed"] == 9

    _, out_c, _ = run(["limits", "--config", implicit, "--seed", "10"], capsys)
    assert payload_without_timings(out_a) != payload_without_timings(out_c)


SPECTRUM_CFG = {
    "space": Z1,
    "operator": PERIODIC_OP,
    "sequences": [{"v": [2], "label": "even"}],
    "task": {
        "method": "nuGrid", "windowRadius": 50, "pitch": 0.1,
        "zBox": [-3.0, 3.0, -1.0, 1.0], "tau": 0.1,
    },
}


def test_repeated_runs_byte_identical(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SPECTRUM_CFG)
    _, a, _ = run(["essential-spectrum", "--config", cfg, "--seed", "3"], capsys)
    _, b, _ = run(["essential-spectrum", "--config", cfg, "--seed", "3"], capsys)
    assert payload_without_timings(a) == payload_without_timings(b)


def test_spectrum_sweeps_each_pass_in_one_call(tmp_path, capsys, monkeypatch):
    """The 1,281-point grid folds to 671 real-kernel points, valued by one
    sigma_min_sweep call; no library entry point takes a thread count."""
    calls = []
    sweep = _kernels.sigma_min_sweep

    def recording(gb, sl, su, zs, tau=None):
        calls.append(zs.size)
        return sweep(gb, sl, su, zs, tau)

    monkeypatch.setattr(_kernels, "sigma_min_sweep", recording)
    cfg = write_cfg(tmp_path, SPECTRUM_CFG)
    code, out, _ = run(["essential-spectrum", "--config", cfg, "--threads", "2"], capsys)
    assert code == 0 and json.loads(out)["result"]["unionCloud"]
    assert calls == [671]
    for fn in (nu_grid_indicator, spectrum_estimate_for, essential_spectrum_estimate):
        assert "threads" not in inspect.signature(fn).parameters


def test_thread_count_does_not_change_bytes(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SPECTRUM_CFG)
    _, a, _ = run(["essential-spectrum", "--config", cfg, "--threads", "1"], capsys)
    _, b, _ = run(["essential-spectrum", "--config", cfg, "--threads", "8"], capsys)
    assert payload_without_timings(a) == payload_without_timings(b)
    cloud = json.loads(a)["result"]["unionCloud"]
    assert len(cloud) > 0


# Payload bytes, less the trailing "timings" block, as the writer gave them
# when these hashes were taken; byte identity is checked on every Python the
# CI matrix runs.
_GRID_ADJ = {str(i * 7 + j): [a * 7 + b for a, b in ((i - 1, j), (i + 1, j), (i, j - 1),
                                                     (i, j + 1))
                              if 0 <= a < 6 and 0 <= b < 7]
             for i in range(6) for j in range(7)}
_GOLDEN = [
    ("partition", {"space": {"kind": "lattice", "dim": 2, "basepoint": [-7, 3]},
                   "task": {"variation": 0.5, "scopeRadius": 30}},
     "f0e09261cd5f88901eae32bcca65c520af3bf888497b975564287b8d9cfcfa4d"),
    ("partition", {"space": {"kind": "lattice", "dim": 1, "fiber": 3},
                   "task": {"variation": 0.3, "scopeRadius": 25}},
     "e28892fcf5e5fe4f4985e8835c999756ff57beceb869dfbf2733620c02c9704c"),
    ("covering", {"space": Z2, "task": {"scopeRadius": 10, "r": 2, "center": [-3, 4]}},
     "3b623b7b563fe13c91e84650026bca311513b19748d20a0ba29b3456d5514fdd"),
    ("covering", {"space": {"kind": "graph", "adjacency": _GRID_ADJ, "basepoint": 17},
                  "task": {"scopeRadius": 6, "r": 1}},
     "ccd9a236109b36969d1a1c78d574887e6a2607d3d4452e1dae1f457b24ac71d4"),
    ("geometry", {"space": {"kind": "lattice", "dim": 3, "metric": "l1"},
                  "task": {"rMax": 5, "probeCenter": [2, -1, 4]}},
     "bd11e92cda76b1b6ba94e2d9ebfb2b8eeb6fd49121309859ded08745dc9c719d"),
]


@pytest.mark.parametrize("task, cfg, digest", _GOLDEN,
                         ids=["partition-z2", "partition-z1-fiber", "covering-z2",
                              "covering-grid-graph", "geometry-z3-l1"])
def test_payload_bytes_are_pinned(tmp_path, capsys, task, cfg, digest):
    code, out, _ = run([task, "--config", write_cfg(tmp_path, cfg)], capsys)
    assert code == 0
    head = out[: out.index(',\n  "timings": {')]
    assert hashlib.sha256(head.encode()).hexdigest() == digest


# -- payload writer -------------------------------------------------------------

_ARRAY_DTYPES = (np.bool_, np.int8, np.int64, np.uint64, np.float16, np.float32,
                 np.float64, np.complex128)
_ARRAYS = st.one_of(
    st.sampled_from(_ARRAY_DTYPES).flatmap(lambda dt: hnp.arrays(
        dt, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3))),
    st.sampled_from([np.int64, np.float64]).map(lambda dt: np.empty((0, 2), dt)),
)


def _pool(dtype, values, nan_bits=()):
    """Values of one dtype plus NaNs with the given bit patterns."""
    vals = np.array(values, dtype=dtype)
    nans = np.array(nan_bits, dtype=f"u{vals.itemsize}").view(vals.dtype)
    return np.concatenate([vals, nans])


# few distinct entries, so arrays repeat them: 0.0 beside -0.0, NaNs that
# differ in sign and payload bits, infinities, subnormals, big uint64s
_POOLS = (
    _pool(np.float64, [0.0, -0.0, np.inf, -np.inf, 5e-324, 0.1, -2.5],
          [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001]),
    _pool(np.float32, [0.0, -0.0, np.inf, -np.inf, 1e-45, 0.1],
          [0x7FC00000, 0xFFC00001, 0x7F800001]),
    _pool(np.float16, [0.0, -0.0, np.inf, -np.inf, 6e-08, 0.1], [0x7E00, 0xFE01, 0x7C01]),
    _pool(np.uint64, [0, 1, 2 ** 63, 2 ** 63 + 5, 2 ** 64 - 1]),
)
_POOLED_ARRAYS = st.sampled_from(_POOLS).flatmap(lambda pool: hnp.arrays(
    np.intp, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
    elements=st.integers(0, pool.size - 1)).map(pool.__getitem__))
_NUMPY_SCALARS = st.one_of(
    st.booleans().map(np.bool_),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.complex_numbers().map(np.complex128),
)
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.integers(2 ** 63, 2 ** 80), st.integers(-2 ** 80, -2 ** 63),
    st.floats(), st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(), st.complex_numbers(), _NUMPY_SCALARS, _ARRAYS, _POOLED_ARRAYS,
)
_KEYS = st.one_of(st.text(max_size=4), st.integers(), st.floats(), st.booleans(),
                  st.none())
_PAYLOADS = st.recursive(_LEAVES, lambda inner: st.one_of(
    st.lists(inner, max_size=4),
    st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(_KEYS, inner, max_size=4),
), max_leaves=12)


@settings(max_examples=400, deadline=None)
@given(_PAYLOADS)
@example(np.full((2, 0, 3), 1.0))
@example(np.array([0.0, -0.0, 0.0, -0.0]))
@example(np.arange(24).reshape(2, 3, 4))
@example({"a": [np.array([[np.nan, -0.0], [np.inf, -np.inf]]), (1, "é\n")]})
@example({1: np.array([[1 + 2j, 3.0], [complex(np.nan, 1), -0.0]]), (2,): np.array(2.5),
          None: np.array([[True], [False]]), 2.5: np.float32(0.1)})
# equal values and equal bit patterns across dtypes in one payload: the leaf
# table keys on the dtype first (float32 0x7E00 is a subnormal, float16
# 0x7E00 a NaN; uint64 2^63 has the bits of float64 -0.0)
@example([np.array([1, 2]), np.array([1.0, 2.0]), np.float32([0.1]), np.array([0.1]),
          np.array([-0.0]), np.array([0.0]), np.float32([-0.0, 0.0]),
          np.array([0x7E00, 0x7E01], np.uint16).view(np.float16),
          np.array([0x7E00, 0x7FC00001], np.uint32).view(np.float32),
          np.array([0x7E00, 0x7FF8000000000001], np.uint64).view(np.float64),
          np.array([2 ** 63, 0x7E00], np.uint64), np.array([1], np.int8)])
def test_writer_matches_stdlib(obj):
    assert _dumps(obj) == json.dumps(_plain(obj), sort_keys=True, indent=2)


def test_writer_formats_each_distinct_leaf_once_per_payload(monkeypatch):
    # arrays that share values, within and across dtypes: each distinct
    # (dtype, bit pattern or value) is formatted once, by one _format call
    # per array that brings new leaves
    formatted = []

    def counting(values):
        key = values.view(f"u{values.itemsize}") if values.dtype.kind == "f" else values
        formatted.extend((values.dtype.str, k) for k in key.tolist())
        return format_(values)

    format_ = cli._format
    monkeypatch.setattr(cli, "_format", counting)
    ints = np.arange(-3, 4)
    floats = np.array([0.5, -0.0, 0.0, np.nan, 0.5, 1.0])
    obj = {"a": [ints, ints[::-1], np.tile(ints, (3, 2))],
           "b": {"x": floats, "y": floats.reshape(2, 3), "z": floats.astype(np.float32)},
           "c": [np.array([1, 2]), np.array([1.0, 2.0]), np.int64(5), 0.5]}
    assert _dumps(obj) == json.dumps(_plain(obj), sort_keys=True, indent=2)
    # 7 ints (1 and 2 are among them), 5 float64 and 5 float32 bit patterns
    # (0.0 and -0.0 apart), and float64 2.0
    leaves = {("<i8", k) for k in range(-3, 4)}
    for a in (floats, floats.astype(np.float32), np.array([2.0])):
        leaves |= {(a.dtype.str, k) for k in a.view(f"u{a.itemsize}").tolist()}
    assert len(leaves) == 18
    assert sorted(formatted) == sorted(leaves)


def test_writer_rejects_what_json_rejects():
    for obj in ({"a": object()}, [{1, 2}]):
        with pytest.raises(TypeError):
            json.dumps(_plain(obj))
        with pytest.raises(TypeError):
            _dumps(obj)


# -- the accept check -------------------------------------------------------------


def _perfbench_jobs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", Path(__file__).resolve().parents[1] / "perfbench" / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [job.config for seed in range(1, 11) for workload in module.WORKLOADS
            for job in module.jobs_for(workload, seed)]


def _configs_here(node):
    """Every config (a dict with a "space" object) this module holds at top
    level or inside a list or tuple."""
    if isinstance(node, dict) and isinstance(node.get("space"), dict):
        yield node
    elif isinstance(node, (list, tuple)):
        for item in node:
            yield from _configs_here(item)


# (schema kind, instance): "config" is checked against the config schema,
# "task" against all nine task schemas
_CONFIGS = [json.loads(json.dumps(cfg)) for cfg in
            [*_configs_here(list(globals().values())), *_perfbench_jobs()]]
_BASES = [("config", cfg) for cfg in _CONFIGS] + [
    ("task", block) for block in [*(cfg["task"] for cfg in _CONFIGS if "task" in cfg),
                                  *json.loads(json.dumps(list(cli.TASK_DEFAULTS.values())))]]
# two branches of this oneOf take every integer: a oneOf needs exactly one
_OVERLAP = {"oneOf": [{"type": "number"}, {"type": "integer"}]}


def _names(node):
    """Every property name and string constant of a schema."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "properties":
                yield from value
            elif key in ("const", "enum"):
                yield from value if isinstance(value, list) else [value]
            yield from _names(value)
    elif isinstance(node, list):
        for item in node:
            yield from _names(item)


_WORDS = sorted(set(_names(full_schema())))
_KEYS = st.sampled_from([*_WORDS, "bogus", "1", "-2", "1\n", "a1", "01", ""])
_VALUES = st.one_of(
    st.sampled_from([0, 1, -1, 2, 9, 10, 1.0, 0.5, -0.0, 1e300, -1e300, True, False, None,
                     "", "x", [], [1], [1.0], [0, 0], [1, 2, 3, 4], [1, 2, 3, 4, 5],
                     [0] * 11, {}, {"re": 1.0},
                     {"re": 1, "im": True}, {"kind": "laplacian"},
                     {"type": "constant", "value": 1}]),
    st.sampled_from(_WORDS))


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutate(draw, doc):
    """``doc`` with one node, drawn at random, replaced, nudged or reshaped."""
    path = draw(st.sampled_from(list(_paths(doc))))
    node = doc
    for key in path:
        node = node[key]
    ops = ["replace"]
    if type(node) in (int, float):
        ops += ["float", "int", "up", "down", "negate"]
    if isinstance(node, dict):
        ops += ["add", "drop"] if node else ["add"]
    if isinstance(node, list) and node:
        ops += ["drop", "repeat", "empty"]
    op = draw(st.sampled_from(ops))
    # drawn values are copied: the sampled ones are shared between examples
    if op == "replace":
        new = copy.deepcopy(draw(_VALUES))
    elif op == "float":
        new = float(node)
    elif op == "int":
        new = int(node) if math.isfinite(node) else node
    elif op in ("up", "down", "negate"):
        new = {"up": node + 1, "down": node - 1, "negate": -node}[op]
    elif op == "add":
        new = {**node, draw(_KEYS): copy.deepcopy(draw(_VALUES))}
    elif op == "drop":
        key = draw(st.sampled_from(list(node.keys()) if isinstance(node, dict)
                                   else range(len(node))))
        new = copy.copy(node)
        del new[key]
    elif op == "repeat":
        new = node + node[-1:]
    else:
        new = []
    if not path:
        return new
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = new
    return doc


@st.composite
def _mutants(draw):
    if draw(st.integers(0, 9)) == 0:
        return "overlap", copy.deepcopy(draw(_VALUES))
    kind, doc = draw(st.sampled_from(_BASES))
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        doc = _mutate(draw, doc)
    return kind, doc


def _walker(schema):
    return lambda x: cli._accepts(schema, x, schema.get("$defs", {}))


def _pairs(kind):
    """(the walker on a schema, its jsonschema validator) for each schema of
    ``kind``."""
    if kind == "overlap":
        return [(_walker(_OVERLAP), validator_for(_OVERLAP)(_OVERLAP))]
    tasks = [None] if kind == "config" else cli.TASKS
    return [(_walker(cli._schema(task)), cli._validator(task)) for task in tasks]


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_mutants())
# 1.0 and 1e300 are integers in draft 2020-12, True is not one, and a
# maximum still applies to 1e300
@example(("config", {"space": {"dim": 1.0}}))
@example(("config", {"space": {"dim": True}}))
@example(("config", {"space": {"dim": 1e300}}))
@example(("config", {"space": {"dim": 1, "fiber": 1e300}}))
@example(("task", {"rMax": 1.0, "probeRadius": 0.0}))
@example(("task", {"rMax": True}))
@example(("task", {"budget": 1e300, "radii": [1e300, 2]}))
@example(("task", {"tol": 0, "p": 1}))
# True is neither an integer nor a number, also where no bound refuses it
@example(("config", {"space": {"dim": 1, "basepoint": [True]}}))
@example(("task", {"zBox": [True, 1, -1, 1]}))
# one item past maxItems
@example(("config", {"space": {"dim": 1, "basepoint": [0] * 11}}))
@example(("task", {"zBox": [-1, 1, -1, 1, 0]}))
# a value two oneOf branches take
@example(("overlap", 1))
@example(("overlap", 1.0))
@example(("overlap", 0.5))
# adjacency keys must match ^-?[0-9]+$ by re.search, which lets "$" match
# before a trailing newline
@example(("config", {"space": {"kind": "graph", "adjacency": {"a1": [1]}}}))
@example(("config", {"space": {"kind": "graph", "adjacency": {"1\n": [1]}}}))
@example(("config", {"space": {"kind": "graph", "adjacency": {"1\n": "x"}}}))
# an extra key where additionalProperties is false
@example(("config", {"space": {"dim": 1, "bogus": 1}}))
@example(("config", {"space": Z1, "operator": {"kind": "laplacian", "v": [1]}}))
@example(("task", {"rMax": 2, "bogus": 1}))
def test_the_accept_check_is_sound(case):
    # the contract is one way: accepted means jsonschema accepts; on JSON
    # values the check is also exact, so no valid config pays for jsonschema
    kind, instance = case
    for accepts, validator in _pairs(kind):
        accepted, valid = accepts(instance), validator.is_valid(instance)
        assert valid or not accepted, instance
        assert accepted == valid, instance


def test_every_valid_config_takes_the_fast_path(monkeypatch):
    # each base instance, with the schemas jsonschema accepts it under
    cases = [(doc, [task for task in ([None] if kind == "config" else cli.TASKS)
                    if cli._validator(task).is_valid(doc)]) for kind, doc in _BASES]
    assert len(cases) > 250 and all(tasks for _, tasks in cases)

    def no_jsonschema(task):
        raise AssertionError("a valid config reached jsonschema")

    monkeypatch.setattr(cli, "_validator", no_jsonschema)
    for doc, tasks in cases:
        for task in tasks:
            cli._validate(doc, task)


# each schema, with an instance jsonschema accepts that only the keyword or
# value the walker does not read can decide
_UNREAD = [
    ({"type": "string", "pattern": "x"}, "xy"),
    ({"enum": ["a", 1]}, 1),
    ({"const": 0}, 0),
    ({"type": "object", "additionalProperties": {"type": "string"}}, {"a": "b"}),
    ({"$ref": "#/$defs/missing", "$defs": {}}, 1),
    ({"$ref": "https://example.com/schema"}, 1),
    ({"$schema": "http://json-schema.org/draft-04/schema#", "type": "integer"}, 1),
    ({"type": ["string", "null"]}, "a"),
    ({"type": "boolean"}, True),
    ({"type": "object", "properties": {"a": True}}, {"a": 1}),
    ({"type": "array", "items": {"type": "string", "format": "date"}}, ["x"]),
    # no $ref reads these $defs, so nothing is left to decide
    ({"$defs": []}, None),
    # a branch the walker cannot decide must not count as a miss: "xy" takes
    # both branches
    ({"oneOf": [{"type": "string", "pattern": "x"}, {"type": "string"}]}, "y"),
]
# instances the walker must not accept where jsonschema rejects them
_PROBES = [None, True, False, 0, 1, 1.0, 0.5, "", "a", "x", "xy", "y", [], ["x"], [1],
           {}, {"a": 1}, {"a": "b"}]


@pytest.mark.parametrize("schema, unread", _UNREAD,
                         ids=[f"schema{i}" for i in range(len(_UNREAD))])
def test_unknown_keywords_and_values_are_refused(schema, unread):
    accepts = _walker(schema)
    if "$ref" in schema:
        # jsonschema cannot resolve this $ref here (and would try to fetch the
        # remote one), so the walker must accept nothing
        assert not any(map(accepts, [*_PROBES, unread]))
        return
    validator = validator_for(schema)(schema)
    assert validator.is_valid(unread)
    assert accepts(unread) is (schema == {"$defs": []})
    for x in _PROBES:
        assert validator.is_valid(x) or not accepts(x), x


def test_a_refused_schema_is_left_to_jsonschema():
    schema = {"type": "string", "pattern": "x"}
    kept = cli.TASK_SCHEMAS["geometry"]
    cli.TASK_SCHEMAS["geometry"] = schema
    cli._validator.cache_clear()
    try:
        cli._validate("xy", "geometry")
        with pytest.raises(jsonschema.ValidationError, match="'y' does not match 'x'"):
            cli._validate("y", "geometry")
    finally:
        cli.TASK_SCHEMAS["geometry"] = kept
        cli._validator.cache_clear()
