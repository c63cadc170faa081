"""Command-line front end: exit codes, wire formats, and file round-trips.

Everything runs in-process through main(argv) so exit codes and stderr
diagnostics are asserted directly.
"""

import csv
import json
import math
import warnings

import numpy as np
import pytest

from pvarkit import cli, lab, operators, spaces, variation
from pvarkit.cli import EXIT_CLAIM, EXIT_INVARIANT, EXIT_OK, EXIT_PARSE, main
from pvarkit.errors import TooLarge
from pvarkit.lab import gen_example3
from pvarkit.operators import Generator
from pvarkit.paths import DiscretePath
from pvarkit.spaces import Vector
from pvarkit.variation import PVarResult, pvar


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def step_path_doc():
    p = DiscretePath(
        [0.0, 1.0, 2.0, 3.0],
        [Vector.dense([x]) for x in (0.0, 1.0, 2.0, 2.0)],
        (0.0, 3.0),
    )
    return p, p.to_json()


def test_pvar_round_trip_is_bit_identical(tmp_path):
    path, doc = step_path_doc()
    inp = write_json(tmp_path / "path.json", doc)
    out = tmp_path / "res.json"
    assert main(["pvar", "--input", inp, "--p", "2", "--out", str(out)]) == EXIT_OK
    got = PVarResult.from_json(json.loads(out.read_text()))
    want = pvar(path, 2.0)
    assert got == want
    assert got.value == 4.0 and got.partition == [0, 3]


def test_pvar_prints_summary(tmp_path, capsys):
    _, doc = step_path_doc()
    inp = write_json(tmp_path / "path.json", doc)
    out = tmp_path / "r.json"
    assert main(["pvar", "--input", inp, "--p", "2", "--out", str(out)]) == EXIT_OK
    printed = capsys.readouterr().out
    assert "p-variation" in printed and "4" in printed


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    out = str(tmp_path / "r.json")
    assert main(["pvar", "--input", str(bad), "--p", "2", "--out", out]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_schema_error_exit_code(tmp_path, capsys):
    inp = write_json(tmp_path / "p.json", {"times": [0, 1]})
    out = str(tmp_path / "r.json")
    assert main(["pvar", "--input", inp, "--p", "2", "--out", out]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_invariant_violation_exit_code_names_invariant(tmp_path, capsys):
    _, doc = step_path_doc()
    doc["times"] = [0.0, 2.0, 1.0, 3.0]
    inp = write_json(tmp_path / "p.json", doc)
    out = str(tmp_path / "r.json")
    assert main(["pvar", "--input", inp, "--p", "2", "--out", out]) == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "invariant violation" in err
    assert "strictly increasing" in err


def test_invalid_exponent_is_invariant_violation(tmp_path, capsys):
    _, doc = step_path_doc()
    inp = write_json(tmp_path / "p.json", doc)
    out = str(tmp_path / "r.json")
    assert main(["pvar", "--input", inp, "--p", "0.5", "--out", out]) == EXIT_INVARIANT
    assert "invariant violation" in capsys.readouterr().err


def test_compose_writes_composed_path(tmp_path):
    _, doc = step_path_doc()
    inp = write_json(tmp_path / "p.json", doc)
    gen = write_json(tmp_path / "g.json", {"name": "power", "beta": 0.5})
    out = tmp_path / "c.json"
    assert main(["compose", "--input", inp, "--gen", gen, "--out", str(out)]) == EXIT_OK
    composed = DiscretePath.from_json(json.loads(out.read_text()))
    assert composed.values[1] == Vector.dense([1.0])
    assert composed.values[2] == Vector.dense([math.sqrt(2.0)])


def test_holder_command(tmp_path, capsys):
    pts = {
        "space": {"kind": "dense", "dim": 1, "norm": "l2"},
        "points": [{"dense": [0.0]}, {"dense": [0.25]}, {"dense": [1.0]}],
    }
    inp = write_json(tmp_path / "pts.json", pts)
    gen = write_json(tmp_path / "g.json", {"name": "power", "beta": 0.5})
    out = tmp_path / "h.json"
    code = main(
        ["holder", "--points", inp, "--gen", gen, "--alpha", "0.5", "--out", str(out)]
    )
    assert code == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["constant"] == 1.0
    assert doc["pair_count"] == 3
    assert doc["infinite"] is False


def test_bound_check_pass_and_fail(tmp_path, capsys):
    _, doc = step_path_doc()
    inp = write_json(tmp_path / "p.json", doc)
    gen = write_json(tmp_path / "g.json", {"name": "identity"})
    assert main(
        ["bound-check", "--input", inp, "--gen", gen, "--p", "1", "--q", "2"]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert "holds" in out

    # a map the estimate cannot see: constant on the sampled range except at
    # one point never paired... not constructible, so force failure with q < p
    assert main(
        ["bound-check", "--input", inp, "--gen", gen, "--p", "2", "--q", "1"]
    ) == EXIT_INVARIANT


def test_bound_check_nan_image_is_invariant_violation(tmp_path, capsys, monkeypatch):
    _, doc = step_path_doc()
    inp = write_json(tmp_path / "p.json", doc)
    gen = write_json(tmp_path / "g.json", {"name": "identity"})
    nan_map = Generator.custom(lambda v: Vector(v.space, np.array([math.nan])))
    monkeypatch.setattr(cli, "_load_generator", lambda path: nan_map)
    assert main(
        ["bound-check", "--input", inp, "--gen", gen, "--p", "1", "--q", "2"]
    ) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert "finite" in captured.err and "FAILS" not in captured.out


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
def test_shared_non_finite_object_exits_3(tmp_path, capsys, monkeypatch, bad):
    # one non-finite value object held by most samples, as a path built in
    # process shares it: pvar and compose check each distinct object once
    space = Vector.dense([0.0]).space
    worst = Vector(space, np.array([bad]))
    path = DiscretePath(np.arange(6.0), [Vector.dense([1.0]), worst, worst, worst, worst, worst])
    monkeypatch.setattr(cli, "_load_path", lambda name: path)
    inp = write_json(tmp_path / "p.json", {})
    out = tmp_path / "r.json"
    assert main(["pvar", "--input", inp, "--p", "2", "--out", str(out)]) == EXIT_INVARIANT
    assert "values must have finite coordinates" in capsys.readouterr().err
    gen = write_json(tmp_path / "g.json", {"name": "identity"})
    assert main(["compose", "--input", inp, "--gen", gen, "--out", str(out)]) == EXIT_INVARIANT
    assert "values must have finite coordinates" in capsys.readouterr().err
    # a finite path whose shared image is not
    image = Generator.custom(lambda v: worst)
    monkeypatch.setattr(cli, "_load_path", lambda name: DiscretePath([0.0, 1.0], [space.zero()] * 2))
    monkeypatch.setattr(cli, "_load_generator", lambda name: image)
    assert main(["compose", "--input", inp, "--gen", gen, "--out", str(out)]) == EXIT_INVARIANT
    assert "values must have finite coordinates" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("route", ["table", "batched", "scan", "pruned"])
def test_overflowing_pvar_exits_3_without_a_warning(tmp_path, capsys, monkeypatch, route):
    # steps of about 1e8 at p = 40: every power overflows, on each route;
    # JSON has no infinity, so nothing is written, and numpy stays quiet
    n, dim = (40, 1) if route == "table" else (100, 8 if route == "scan" else 1)
    if route == "pruned":  # the batched route, bounding blocks from the first value
        monkeypatch.setattr(variation, "PRUNE_MIN_VALUES", 0)
    xs = [1.0 if t % 2 == 0 else -1e8 for t in range(n)]
    if route != "table":  # every value distinct: past the gain table
        xs = [x + t for t, x in enumerate(xs)]
    doc = {
        "interval": [0.0, n - 1.0],
        "times": [float(t) for t in range(n)],
        "space": {"kind": "dense", "dim": dim, "norm": "l2"},
        "values": [{"dense": [x] * dim} for x in xs],
    }
    inp = write_json(tmp_path / "p.json", doc)
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["pvar", "--input", inp, "--p", "40", "--out", str(out)]) == EXIT_INVARIANT
        assert pvar(cli._load_path(inp), 40.0).value == math.inf  # the library keeps inf
    captured = capsys.readouterr()
    assert captured.err == (
        "invariant violation: the p-variation is inf: "
        "the p-th powers of the path's increments overflow\n"
    )
    assert captured.out == "" and not out.exists()


# var_q = L_hat^2 var_p in real arithmetic; the floats miss it by 4.8e-7
EXACT_BOUND_PATH = {
    "interval": [0.0, 2.0],
    "times": [0.0, 1.0, 2.0],
    "space": {"kind": "dense", "dim": 1, "norm": "l2"},
    "values": [{"dense": [x]} for x in (0.0, 30669.833739880964, 61339.66747976193)],
}


def test_bound_check_allows_rounding_error_at_scale(tmp_path, capsys):
    inp = write_json(tmp_path / "p.json", EXACT_BOUND_PATH)
    gen = write_json(tmp_path / "g.json", {"name": "identity"})
    argv = ["bound-check", "--input", inp, "--gen", gen, "--p", "1", "--q", "2"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    var_q, _, rest = out.partition("var_q=")[2].partition(" -> ")
    assert rest.strip() == "holds"
    l_hat = float(out.partition("L_hat=")[2].split()[0])
    var_p = float(out.partition("var_p=")[2].split()[0])
    assert float(var_q) - l_hat ** 2 * var_p > 1e-7  # above the old fixed slack of 1e-9


@pytest.mark.parametrize("excess", [3e-13, 1e-9])
def test_bound_check_flags_a_real_violation_at_scale(tmp_path, capsys, monkeypatch, excess):
    # var_q of the composed path raised by a relative 3e-13 (about 1.1e-3
    # here, 1.5 times the slack) or 1e-9: beyond rounding error, so it fails
    inp = write_json(tmp_path / "p.json", EXACT_BOUND_PATH)
    gen = write_json(tmp_path / "g.json", {"name": "identity"})
    calls = []

    def inflated(path, p):
        calls.append(p)
        res = pvar(path, p)
        return PVarResult(p, res.value * (1.0 + excess) if p == 2.0 else res.value, res.partition)

    monkeypatch.setattr(operators, "pvar", inflated)
    argv = ["bound-check", "--input", inp, "--gen", gen, "--p", "1", "--q", "2"]
    assert main(argv) == EXIT_CLAIM
    assert calls == [1.0, 2.0]
    assert capsys.readouterr().out.rstrip().endswith("-> FAILS")


@pytest.mark.parametrize(
    "xs, gen, q, named",
    [
        # the l2 distances overflow: var_p is inf, every ratio 0, L_hat 0.0
        ([0.0, 7e199, 2e199, 1.3e200], {"name": "power", "beta": 0.5}, "2", "var_p is inf"),
        # every ratio inf / inf: an L_hat of -1.0 to a fractional power
        ([0.0, 1e200, 2e200], {"name": "identity"}, "1.5", "L_hat is undefined"),
    ],
)
def test_bound_check_with_overflowing_norms_exits_3(tmp_path, capsys, xs, gen, q, named):
    doc = {
        "interval": [0.0, len(xs) - 1.0],
        "times": [float(t) for t in range(len(xs))],
        "space": {"kind": "dense", "dim": 1, "norm": "l2"},
        "values": [{"dense": [x]} for x in xs],
    }
    inp = write_json(tmp_path / "p.json", doc)
    gen = write_json(tmp_path / "g.json", gen)
    out = tmp_path / "r.json"
    argv = ["bound-check", "--input", inp, "--gen", gen, "--p", "1", "--q", q, "--out", str(out)]
    with np.errstate(all="ignore"):
        assert main(argv) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert "invariant violation: %s" % named in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize(
    "xs, gen, q, message",
    [
        ([0.0, 7e199, 2e199, 1.3e200], {"name": "power", "beta": 0.5}, "2",
         "var_p is inf: the norms of the path overflow"),
        ([0.0, 1e200, 2e200], {"name": "identity"}, "1.5",
         "L_hat is undefined: every Holder ratio is NaN, as norms overflow"),
    ],
)
def test_bound_check_with_overflowing_norms_exits_3_without_a_warning(
    tmp_path, capsys, xs, gen, q, message
):
    # the cases above under numpy's own error state: the scalar steps stay quiet
    doc = {
        "interval": [0.0, len(xs) - 1.0],
        "times": [float(t) for t in range(len(xs))],
        "space": {"kind": "dense", "dim": 1, "norm": "l2"},
        "values": [{"dense": [x]} for x in xs],
    }
    inp = write_json(tmp_path / "p.json", doc)
    gen = write_json(tmp_path / "g.json", gen)
    argv = ["bound-check", "--input", inp, "--gen", gen, "--p", "1", "--q", q]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert captured.err == "invariant violation: %s\n" % message
    assert captured.out == ""


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_compose_non_finite_breakpoint_is_parse_error(tmp_path, capsys, bad):
    _, doc = step_path_doc()
    inp = write_json(tmp_path / "p.json", doc)
    gen = write_json(
        tmp_path / "g.json", {"name": "scalar_lipschitz", "breakpoints": [[0, 0], [1, bad]]}
    )
    out = tmp_path / "c.json"
    assert main(["compose", "--input", inp, "--gen", gen, "--out", str(out)]) == EXIT_PARSE
    assert "parse error: breakpoints must be finite" in capsys.readouterr().err
    assert not out.exists()


def sparse_doc(entries):
    return {
        "interval": [0.0, 1.0],
        "times": [0.0, 1.0],
        "space": {"kind": "sparse", "norm": "l2"},
        "values": [{"sparse": entries}, {"sparse": {}}],
    }


def test_compose_non_finite_image_is_invariant_violation(tmp_path, capsys):
    # l2_sup scores index 2 at 2 (2e308 - 1): an infinite image
    inp = write_json(tmp_path / "p.json", sparse_doc({"2": 1e308}))
    gen = write_json(tmp_path / "g.json", {"name": "l2_sup"})
    out = tmp_path / "c.json"
    assert main(["compose", "--input", inp, "--gen", gen, "--out", str(out)]) == EXIT_INVARIANT
    captured = capsys.readouterr()
    assert "invariant violation: values must have finite coordinates" in captured.err
    assert captured.out == "" and not out.exists()


def test_l2_sup_index_beyond_float_range_is_invariant_violation(tmp_path, capsys):
    inp = write_json(tmp_path / "p.json", sparse_doc({str(10 ** 400): 0.5}))
    gen = write_json(tmp_path / "g.json", {"name": "l2_sup"})
    out = tmp_path / "c.json"
    named = "l2_sup cannot score index %d," % 10 ** 400
    assert main(["compose", "--input", inp, "--gen", gen, "--out", str(out)]) == EXIT_INVARIANT
    assert named in capsys.readouterr().err
    assert not out.exists()
    argv = ["bound-check", "--input", inp, "--gen", gen, "--p", "1", "--q", "2"]
    assert main(argv) == EXIT_INVARIANT
    assert named in capsys.readouterr().err


@pytest.mark.parametrize(
    "space, message",
    [
        ({"kind": "dense", "norm": {"lp": math.inf}, "dim": 1}, "finite exponent r >= 1"),
        ({"kind": "dense", "norm": "l2", "dim": 2.5}, "integer dimension >= 1, got 2.5"),
        ({"kind": "dense", "norm": "l2", "dim": True}, "integer dimension >= 1, got True"),
        ({"kind": "dense", "norm": "l2", "dim": "3"}, "integer dimension >= 1, got '3'"),
    ],
    ids=["lp_inf", "dim_float", "dim_bool", "dim_str"],
)
def test_space_schema_errors_are_parse_errors(tmp_path, capsys, space, message):
    _, doc = step_path_doc()
    doc["space"] = space
    inp = write_json(tmp_path / "p.json", doc)
    out = tmp_path / "r.json"
    assert main(["pvar", "--input", inp, "--p", "2", "--out", str(out)]) == EXIT_PARSE
    assert message in capsys.readouterr().err
    assert not out.exists()


def sparse_step_doc():
    doc = sparse_doc({"1": 0.5})
    doc["values"][1]["sparse"] = {"2": 1.0}
    return doc


def set_path_field(doc, field, bad):
    if field == "interval":
        doc["interval"][1] = bad
    elif field == "times":
        doc["times"][1] = bad
    elif field == "dense":
        doc["values"][1]["dense"][0] = bad
    elif field == "sparse":
        doc["values"][0]["sparse"]["1"] = bad
    else:
        doc["space"]["norm"] = {"lp": bad}
    return doc


@pytest.mark.parametrize("bad", ["1", True, None, [1.0]], ids=["str", "bool", "null", "list"])
@pytest.mark.parametrize(
    "field, message",
    [
        ("interval", "interval: expected a number"),
        ("times", "times: expected a number"),
        ("dense", "coordinates: expected a number"),
        ("sparse", "coordinates: expected a number"),
        ("lp", "lp exponent: expected a number"),
    ],
)
def test_path_fields_must_be_json_numbers(tmp_path, capsys, field, message, bad):
    doc = sparse_step_doc() if field == "sparse" else step_path_doc()[1]
    inp = write_json(tmp_path / "p.json", set_path_field(doc, field, bad))
    out = tmp_path / "r.json"
    assert main(["pvar", "--input", inp, "--p", "2", "--out", str(out)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert "parse error: %s, got %s" % (message, type(bad).__name__) in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("bad", [[1, 2], "x", 1.5, None], ids=["list", "str", "number", "null"])
def test_sparse_vector_must_be_an_object(tmp_path, capsys, bad):
    doc = sparse_step_doc()
    doc["values"][1]["sparse"] = bad
    inp = write_json(tmp_path / "p.json", doc)
    out = tmp_path / "r.json"
    assert main(["pvar", "--input", inp, "--p", "2", "--out", str(out)]) == EXIT_PARSE
    captured = capsys.readouterr()
    message = "parse error: sparse vector: expected an object, got %s" % type(bad).__name__
    assert message in captured.err
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("bad", ["0.5", True, None], ids=["str", "bool", "null"])
@pytest.mark.parametrize(
    "gen, message",
    [
        ({"name": "power", "beta": "BAD"}, "power exponent: expected a number"),
        ({"name": "scalar_lipschitz", "breakpoints": [[0, 0], [1, "BAD"]]}, "breakpoints: expected a number"),
    ],
    ids=["power", "scalar_lipschitz"],
)
def test_generator_arguments_must_be_json_numbers(tmp_path, capsys, gen, message, bad):
    inp = write_json(tmp_path / "p.json", step_path_doc()[1])
    text = json.dumps(gen).replace('"BAD"', json.dumps(bad))
    gen_file = tmp_path / "g.json"
    gen_file.write_text(text)
    out = tmp_path / "c.json"
    argv = ["compose", "--input", inp, "--gen", str(gen_file), "--out", str(out)]
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert "parse error: %s, got %s" % (message, type(bad).__name__) in captured.err
    assert captured.out == "" and not out.exists()


def test_embedding_above_the_size_limit_is_invariant_violation(tmp_path, capsys, monkeypatch):
    # gen_example3(3) embeds 4 samples in 3 columns: 96 bytes
    monkeypatch.setattr(spaces, "MAX_EMBED_BYTES", 95)
    path = gen_example3(3)
    with pytest.raises(TooLarge, match="96 bytes"):
        path.coordinate_matrix()
    inp = write_json(tmp_path / "p.json", path.to_json())
    out = str(tmp_path / "r.json")
    assert main(["pvar", "--input", inp, "--p", "1", "--out", out]) == EXIT_INVARIANT
    assert "above the limit of 95" in capsys.readouterr().err
    monkeypatch.setattr(spaces, "MAX_EMBED_BYTES", 96)
    assert main(["pvar", "--input", inp, "--p", "1", "--out", out]) == EXIT_OK


def test_lab_example3_with_a_non_finite_row_is_invariant_violation(tmp_path, capsys, monkeypatch):
    # a generator's rows are checked as any embedding, when pvar first reads them
    def gen(depth):
        rows = np.zeros((depth + 1, depth))
        rows[:depth, 0], rows[depth // 2, -1] = 1.0, math.nan
        times = [1.0 - 1.0 / n for n in range(1, depth + 1)] + [1.0]
        space = spaces.VectorSpace("sparse", spaces.LINF)
        return DiscretePath._from_rows(times, (0.0, 1.0), space, rows, np.arange(1, depth + 1))

    monkeypatch.setattr(lab, "gen_example3", gen)
    out = tmp_path / "r.csv"
    argv = ["lab", "--experiment", "example3", "--depths", "3", "--out", str(out)]
    assert main(argv) == EXIT_INVARIANT
    assert "invariant violation: values must have finite coordinates" in capsys.readouterr().err
    assert not out.exists()


def test_lab_step4_writes_csv_and_json(tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        ["lab", "--experiment", "step4", "--depths", "1,2", "--out", str(out)]
    )
    assert code == EXIT_OK
    with open(out, newline="") as fp:
        rows = list(csv.reader(fp))
    assert rows[0] == ["depth", "quantity", "claimed_bound", "satisfied"]
    assert len(rows) == 3
    assert rows[1][0] == "1" and rows[1][3] == "true"
    # floats round-trip at 17 significant digits
    assert float(rows[1][1]) >= float(rows[1][2])
    summary = json.loads((tmp_path / "report.json").read_text())
    assert summary["all_satisfied"] is True
    assert summary["depths"] == [1, 2]


def test_lab_summary_names_the_side_of_its_claims(tmp_path):
    for experiment, depths, key in (
        ("example3", "10,100", "claimed_upper_bounds"),
        ("step4", "1,2", "claimed_lower_bounds"),
    ):
        out = tmp_path / (experiment + ".csv")
        code = main(
            ["lab", "--experiment", experiment, "--depths", depths, "--out", str(out)]
        )
        assert code == EXIT_OK
        summary = json.loads((tmp_path / (experiment + ".json")).read_text())
        assert list(summary) == ["depths", "quantities", key, "all_satisfied"]
        with open(out, newline="") as fp:
            header = next(csv.reader(fp))
        assert header == ["depth", "quantity", "claimed_bound", "satisfied"]


@pytest.mark.parametrize(
    "experiment, flags",
    [
        ("step4", ["--p", "nan"]),
        ("step4", ["--q", "inf"]),
        ("thm6", ["--p", "nan"]),
        ("remark", ["--q", "nan"]),
    ],
)
def test_lab_non_finite_exponent_is_invariant_violation(tmp_path, capsys, experiment, flags):
    gen = write_json(tmp_path / "g.json", {"name": "power", "beta": 0.25})
    out = str(tmp_path / "r.csv")
    code = main(["lab", "--experiment", experiment, "--gen", gen, "--out", out] + flags)
    assert code == EXIT_INVARIANT
    err = capsys.readouterr().err
    assert "exponent " + flags[0][2:] in err and "NoViolatorFound" not in err


@pytest.mark.parametrize("flags", [["--p", "0.5"], ["--cap", "1"]])
def test_lab_out_of_range_flag_is_invariant_violation(tmp_path, capsys, flags):
    # also with a smooth map, whose pair search would fail as a claim
    gen = write_json(tmp_path / "g.json", {"name": "identity"})
    out = str(tmp_path / "r.csv")
    for extra in ([], ["--gen", gen]):
        argv = ["lab", "--experiment", "step4", "--depths", "1,4", "--out", out]
        assert main(argv + flags + extra) == EXIT_INVARIANT
        assert "invariant violation" in capsys.readouterr().err


def test_lab_identity_generator_reports_no_violator(tmp_path, capsys):
    gen = write_json(tmp_path / "g.json", {"name": "identity"})
    out = tmp_path / "r.csv"
    code = main(
        ["lab", "--experiment", "step4", "--gen", gen, "--out", str(out)]
    )
    assert code == EXIT_CLAIM
    err = capsys.readouterr().err
    assert "NoViolatorFound" in err
    assert "n=3" in err


def test_lab_gen_rejected_for_fixed_constructions(tmp_path, capsys):
    gen = write_json(tmp_path / "g.json", {"name": "identity"})
    out = tmp_path / "r.csv"
    code = main(
        ["lab", "--experiment", "example5", "--gen", gen, "--out", str(out)]
    )
    assert code == EXIT_PARSE


def test_lab_example5_csv_values_exact(tmp_path):
    out = tmp_path / "e5.csv"
    code = main(
        ["lab", "--experiment", "example5", "--depths", "1,2,3", "--out", str(out)]
    )
    assert code == EXIT_OK
    with open(out, newline="") as fp:
        rows = list(csv.reader(fp))[1:]
    assert [r[1] for r in rows] == ["1", "2", "3"]


def test_lab_thm6_and_remark_run_clean(tmp_path):
    assert main(
        ["lab", "--experiment", "thm6", "--depths", "1,2", "--seed", "0",
         "--out", str(tmp_path / "t.csv")]
    ) == EXIT_OK
    assert main(
        ["lab", "--experiment", "remark", "--depths", "1,4",
         "--out", str(tmp_path / "r.csv")]
    ) == EXIT_OK


def test_lab_example3_covering_note(tmp_path, capsys):
    code = main(
        ["lab", "--experiment", "example3", "--depths", "10,100",
         "--out", str(tmp_path / "e3.csv")]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "epsilon-net" in out


def test_depth_schedule_validation(tmp_path, capsys):
    out = tmp_path / "x.csv"
    code = main(
        ["lab", "--experiment", "step4", "--depths", "4,2", "--out", str(out)]
    )
    assert code == EXIT_PARSE
    code = main(
        ["lab", "--experiment", "step4", "--depths", "0,1", "--out", str(out)]
    )
    assert code == EXIT_PARSE


def test_missing_input_file_is_parse_error(tmp_path, capsys):
    out = str(tmp_path / "r.json")
    assert main(
        ["pvar", "--input", str(tmp_path / "nope.json"), "--p", "2", "--out", out]
    ) == EXIT_PARSE
