import dataclasses
import json
import math

import pytest

from pupilcover import OptimizerConfig, Point, Pupil, PupilConfig
from pupilcover.cli import ConfigError, main, parse_config, serialize_config
from pupilcover.coverage import build_analysis
from tests.conftest import g4_lattice
from tests.test_coverage import _dict_fan_out


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


GOOD = {"objective_radius": 1.0, "pupils": [{"x": 0.0, "y": 0.0, "r": 0.5}]}
UNCOVERED = {"objective_radius": 1.0, "pupils": [{"x": 0.0, "y": 0.0, "r": 0.3}]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_config_round_trip():
    cfg = PupilConfig(
        [Pupil(Point(0.1, -0.25), 0.125), Pupil(Point(1 / 3, 2 / 7), 0.0)], 0.875
    )
    doc = json.dumps(serialize_config(cfg)).encode()
    parsed, _ = parse_config(doc)
    assert parsed == cfg
    again, _ = parse_config(json.dumps(serialize_config(parsed)).encode())
    assert again == cfg


@pytest.mark.parametrize(
    "payload,fragment",
    [
        ({"objective_radius": 1.0}, "pupils"),
        ({"objective_radius": 1.0, "pupils": []}, "pupils"),
        ({"objective_radius": -1.0, "pupils": [{"x": 0, "y": 0, "r": 0.1}]}, "objective_radius"),
        ({"objective_radius": 1.0, "pupils": [{"x": 0, "y": 0, "r": -0.1}]}, "pupils[0].r"),
        ({"objective_radius": 1.0, "pupils": [{"x": 0, "y": 0}]}, "pupils[0].r"),
        ({"objective_radius": 1.0, "pupils": [{"x": 0, "y": 0, "r": 0.1, "w": 2}]}, "unknown"),
        ({"objective_radius": 1.0, "pupils": [{"x": 0, "y": 0, "r": 0.1}], "extra": 1}, "unknown"),
        (
            {"objective_radius": 1.0, "pupils": [{"x": 0, "y": 0, "r": 0.1}], "objective_center": [1, 0]},
            "objective_center",
        ),
        (
            {"objective_radius": 1.0, "pupils": [{"x": 0, "y": 0, "r": 0.1}], "options": {"bogus": 1}},
            "unknown",
        ),
        *(
            ({"objective_radius": 1.0, "pupils": [{"x": 0, "y": 0, "r": 0.1}], "options": {key: value}},
             key)
            for key, value in [
                ("max_iterations", 2.5),
                ("max_iterations", 0),
                ("max_iterations", -3),
                ("max_iterations", True),
                ("relocation_iterations", "3"),
                ("relocation_iterations", -2),
                ("forbid_overlap", "no"),
                ("forbid_overlap", 1),
                ("epsilon", True),
                ("epsilon", "1e-6"),
                ("theta", None),
                ("min_radius", [0.1]),
                ("max_radius", False),
                ("epsilon", 10**400),
                ("epsilon", math.nan),
                ("theta", 10**400),
                ("theta", math.inf),
                ("min_radius", 10**400),
                ("max_radius", 10**400),
                ("max_radius", math.inf),
            ]
        ),
        ({"objective_radius": 10**400, "pupils": [{"x": 0, "y": 0, "r": 0.1}]}, "objective_radius"),
        ({"objective_radius": 1.0, "pupils": [{"x": 10**400, "y": 0, "r": 0.1}]}, "pupils[0].x"),
        ({"objective_radius": 1.0, "pupils": [{"x": -1e308, "y": 0, "r": 0.1},
                                              {"x": 1e308, "y": 0, "r": 0.1}]}, "overflow"),
        ({"objective_radius": 1.0, "pupils": [{"x": 0, "y": 0, "r": 1e308}]}, "overflow"),
        *(
            ({"objective_radius": 1.0, "pupils": [{"x": 0, "y": 0, "r": 0.1}], "options": {key: value}},
             key)
            for key, value in [("min_radius", 5e307), ("min_radius", 1e308), ("max_radius", 1e308),
                               ("min_radius", 1e151)]
        ),
        *(
            ({"objective_radius": 1.0, "pupils": [{"x": 0, "y": 0, "r": 0.1}], "objective_center": center},
             "objective_center")
            for center in ([False, False], [0, False])
        ),
    ],
)
def test_config_validation_errors(payload, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(payload).encode())
    assert fragment in str(err.value)


def test_every_optimizer_field_is_an_option(tmp_path, capsys):
    """Each OptimizerConfig field is accepted under "options" and reaches the
    optimizer: the defaults written out in full run like no options."""
    defaults = OptimizerConfig()
    options = {f.name: getattr(defaults, f.name) for f in dataclasses.fields(OptimizerConfig)}
    _, parsed = parse_config(json.dumps({**UNCOVERED, "options": options}).encode())
    assert parsed == options and OptimizerConfig(**parsed) == defaults
    code, out, _ = run(capsys, "minsum", write_config(tmp_path, {**UNCOVERED, "options": options}))
    assert code == 0
    code, plain, _ = run(capsys, "minsum", write_config(tmp_path, UNCOVERED, "plain.json"))
    assert json.loads(out)["result"] == json.loads(plain)["result"]


def test_decide_exit_codes(tmp_path, capsys):
    code, out, _ = run(capsys, "decide", write_config(tmp_path, GOOD))
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["result"]["covered"] is True
    assert report["result"]["witness"] is None

    code, out, _ = run(capsys, "decide", write_config(tmp_path, UNCOVERED))
    assert code == 1
    report = json.loads(out)
    assert report["result"]["covered"] is False
    wx, wy = report["result"]["witness"]
    assert math.hypot(wx, wy) == pytest.approx(1.0, abs=1e-9)

    bad = {"objective_radius": 1.0, "pupils": [{"x": 0, "y": 0, "r": -1.0}]}
    code, _, err = run(capsys, "decide", write_config(tmp_path, bad))
    assert code == 2
    assert "pupils[0].r" in err


def test_decide_missing_file(capsys):
    code, _, err = run(capsys, "decide", "/nonexistent/path.json")
    assert code == 2
    assert "cannot read" in err


def test_alpha_report(tmp_path, capsys):
    code, out, _ = run(capsys, "alpha", write_config(tmp_path, UNCOVERED))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["alpha_star"] == pytest.approx(0.4, abs=1e-9)
    assert result["per_disk_alpha"]["0,0"] == pytest.approx(0.4, abs=1e-9)
    assert result["r_star"] == pytest.approx(0.6, abs=1e-9)


def test_alpha_report_pairs_are_the_disk_fan_out(tmp_path, capsys):
    """The report's per-pair object is the JSON of the per-pair dict, keys
    sorted, on a lattice with merged labels and None values."""
    cfg = g4_lattice("square", 0.9 * math.sqrt(2.0) / 4.0, 2.5)
    code, out, _ = run(capsys, "alpha", write_config(tmp_path, serialize_config(cfg)))
    assert code == 0
    want = {f"{i},{j}": v for (i, j), v in sorted(_dict_fan_out(build_analysis(cfg)).items())}
    got = json.loads(out)["result"]["per_disk_alpha"]
    assert json.dumps(got, indent=2) == json.dumps(want, indent=2, sort_keys=True)


def test_minsum_report_and_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "minsum", write_config(tmp_path, UNCOVERED), "--out", str(out_path)
    )
    assert code == 0
    assert out == ""
    report = json.loads(out_path.read_text())
    final = report["result"]["trace"]["final_config"]
    assert final["pupils"][0]["r"] == pytest.approx(0.5, abs=1e-9)
    assert report["result"]["covered"] is True


def test_minsum_infeasible_exit_3(tmp_path, capsys):
    code, out, _ = run(
        capsys, "minsum", write_config(tmp_path, UNCOVERED), "--max-radius", "0.01"
    )
    assert code == 3
    report = json.loads(out)
    assert report["error"]["type"] == "Infeasible"


def test_minsum_iteration_limit_exit_3(tmp_path, capsys):
    cfg = {
        "objective_radius": 1.0,
        "pupils": [
            {"x": -0.4, "y": 0.1, "r": 0.25},
            {"x": 0.3, "y": -0.2, "r": 0.25},
            {"x": 0.1, "y": 0.45, "r": 0.25},
        ],
    }
    code, out, _ = run(
        capsys, "minsum", write_config(tmp_path, cfg), "--max-iterations", "3"
    )
    assert code == 3
    assert json.loads(out)["error"]["type"] == "IterationLimit"


@pytest.mark.parametrize("command,flag,value,field", [
    ("minsum", "--max-iterations", "0", "max_iterations"),
    ("minarea", "--max-iterations", "-3", "max_iterations"),
    ("move", "--iterations", "-2", "relocation_iterations"),
    ("minsum", "--min-radius", "1e400", "min_radius"),
    ("minarea", "--max-radius", "inf", "max_radius"),
    ("move", "--epsilon", "nan", "epsilon"),
    ("exhaustive", "--theta", "inf", "theta"),
])
def test_option_flags_out_of_range_exit_2(tmp_path, capsys, command, flag, value, field):
    code, out, err = run(capsys, command, write_config(tmp_path, UNCOVERED), flag, value)
    assert code == 2 and out == ""
    assert field in err


@pytest.mark.parametrize("command,payload,fragment", [
    ("decide", {"objective_radius": 10**400, "pupils": [{"x": 0, "y": 0, "r": 0.1}]},
     "objective_radius"),
    ("minsum", {**UNCOVERED, "options": {"max_radius": 10**400}}, "max_radius"),
    ("exhaustive", {**UNCOVERED, "options": {"theta": math.inf}}, "theta"),
    ("decide", {"objective_radius": 1.0, "pupils": [{"x": -1e308, "y": 0, "r": 0.1},
                                                    {"x": 1e308, "y": 0, "r": 0.1}]}, "overflow"),
    ("alpha", {"objective_radius": 1.0, "pupils": [{"x": 0, "y": 0, "r": 1e308}]}, "overflow"),
    ("minarea", {**UNCOVERED, "options": {"min_radius": 5e307}}, "min_radius"),
    ("minsum", {**UNCOVERED, "options": {"min_radius": 1e308}}, "min_radius"),
], ids=["huge objective", "huge max_radius", "infinite theta", "far pupils", "huge radius",
        "finite min_radius past the radius limit", "finite min_radius past the row sums"])
def test_unrepresentable_numbers_exit_2(tmp_path, capsys, command, payload, fragment):
    """Numbers that are no finite float, designs whose difference disks
    overflow, and radius options past the limit of the radius programs are
    input errors, not tracebacks or verdicts."""
    code, out, err = run(capsys, command, write_config(tmp_path, payload))
    assert code == 2 and out == ""
    assert fragment in err and "Traceback" not in err


@pytest.mark.parametrize("center, code", [([False, False], 2), ([0, False], 2), ([0, 0.0], 0)])
def test_objective_center_takes_numbers_only(tmp_path, capsys, center, code):
    """objective_center must be two finite numbers equal to 0; booleans,
    which compare equal to 0, are rejected like in every other number
    field."""
    got, _, err = run(capsys, "decide", write_config(tmp_path, {**GOOD, "objective_center": center}))
    assert got == code
    assert ("objective_center" in err) == (code == 2)


def test_radius_options_up_to_the_limit_solve(tmp_path, capsys):
    """min_radius at the accepted limit still gives a radius program that
    solves, with every pupil at the bound."""
    code, out, _ = run(capsys, "minsum", write_config(
        tmp_path, {**UNCOVERED, "options": {"min_radius": 1e150}}))
    assert code == 0
    assert json.loads(out)["result"]["trace"]["final_config"]["pupils"][0]["r"] == 1e150


@pytest.mark.parametrize("command", ["minsum", "minarea"])
@pytest.mark.parametrize("min_radius", [1e18, 1e20])
def test_radius_programs_solve_at_a_huge_min_radius(tmp_path, capsys, command, min_radius):
    """The radius programs are solved in units of the largest power of two at
    most the radius bounds, so a lower bound of 1e18 or 1e20 leaves no
    residual of one ulp of the bound against an absolute tolerance."""
    code, out, _ = run(capsys, command, write_config(
        tmp_path, {**UNCOVERED, "options": {"min_radius": min_radius}}))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["covered"] is True
    assert result["trace"]["final_config"]["pupils"][0]["r"] == pytest.approx(min_radius, rel=1e-12)


@pytest.mark.parametrize("command", ["minsum", "minarea"])
@pytest.mark.parametrize("scale", [1e16, 1e17, 3e18, 1e19, 1e30])
def test_radius_programs_solve_at_any_scale(tmp_path, capsys, command, scale):
    """The two-pupil design (0, 0, 0.3 R), (0.4 R, 0.1 R, 0.2 R) ends where it
    ends at R = 1, at radii (0.5 R, 0.4 R), whatever the scale R.  The
    verdict is not checked: TOL is absolute, so at R = 3e18 the area loop's
    first radius, two ulps short of R / 2, reads as uncovered."""
    pupils = [{"x": 0.0, "y": 0.0, "r": 0.3 * scale}, {"x": 0.4 * scale, "y": 0.1 * scale, "r": 0.2 * scale}]
    code, out, _ = run(capsys, command, write_config(
        tmp_path, {"objective_radius": scale, "pupils": pupils}))
    assert code == 0
    result = json.loads(out)["result"]
    radii = [p["r"] for p in result["trace"]["final_config"]["pupils"]]
    assert radii == pytest.approx([0.5 * scale, 0.4 * scale], rel=1e-12)


def test_minarea_with_a_huge_max_radius_solves(tmp_path, capsys):
    """An upper bound of 1e20 that never binds leaves the area program as it
    is: each row's violation test scales with its own right side, so the
    bound rows hide no violation of the covering rows."""
    code, out, _ = run(capsys, "minarea", write_config(
        tmp_path, {**UNCOVERED, "options": {"max_radius": 1e20}}))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["covered"] is True
    assert result["trace"]["final_config"]["pupils"][0]["r"] == pytest.approx(0.5, abs=1e-9)


@pytest.mark.parametrize("pupils,radius_sum", [
    (UNCOVERED["pupils"], 0.5),
    ([*UNCOVERED["pupils"], {"x": 0.4, "y": 0.1, "r": 0.2}], 0.9),
], ids=["one pupil", "two pupils"])
def test_minsum_with_a_huge_max_radius_solves(tmp_path, capsys, pupils, radius_sum):
    """Upper bounds of 1e20 on radii with a positive cost never enter the
    dual simplex's working set, so they leave the radius program as it is."""
    code, out, _ = run(capsys, "minsum", write_config(
        tmp_path, {"objective_radius": 1.0, "pupils": pupils, "options": {"max_radius": 1e20}}))
    assert code == 0
    result = json.loads(out)["result"]
    assert result["covered"] is True
    radii = [p["r"] for p in result["trace"]["final_config"]["pupils"]]
    assert sum(radii) == pytest.approx(radius_sum, abs=1e-9)


@pytest.mark.parametrize("command,options", [
    ("exhaustive", {"theta": 10**400}),
    ("minsum", {"gauge": "g" * 1000}),
    ("minsum", {"max_iterations": "9" * 1000}),
    ("minarea", {"x" * 1000: 1, "y" * 1000: 2}),
    ("move", {f"k{i}": i for i in range(100)}),
], ids=["401-digit theta", "long gauge", "long string", "long unknown keys", "many unknown keys"])
def test_rejected_value_echo_is_short(tmp_path, capsys, command, options):
    """An error that echoes the rejected value or keys shortens them, so the
    one-line message stays short."""
    code, out, err = run(capsys, command, write_config(tmp_path, {**UNCOVERED, "options": options}))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and len(err) < 200


def test_integer_past_the_digit_limit_exit_2(tmp_path, capsys):
    """The json module rejects an integer literal of more than 4300 digits
    with a plain ValueError, which is an input error too."""
    path = tmp_path / "cfg.json"
    path.write_text('{"objective_radius": 1' + "0" * 5000 + ', "pupils": [{"x": 0, "y": 0, "r": 0.3}]}',
                    encoding="utf-8")
    code, out, err = run(capsys, "decide", str(path))
    assert code == 2 and out == "" and "Traceback" not in err


def test_exhaustive_theta_beyond_objective(tmp_path, capsys):
    """A grid step of at least R/2 still tries one multiple, which covers by
    itself; a step whose difference disk overflows is an input error."""
    path = write_config(tmp_path, UNCOVERED)
    code, out, _ = run(capsys, "exhaustive", path, "--theta", "1e300")
    assert code == 0
    assert json.loads(out)["result"]["sum_of_radii"] == 1e300
    code, out, err = run(capsys, "exhaustive", path, "--theta", "1e308")
    assert code == 2 and out == "" and "overflow" in err


@pytest.mark.parametrize("theta", ["1e-200", "5e-324"])
def test_exhaustive_tiny_theta_exit_3(tmp_path, capsys, theta):
    """A grid step so small that the grid size overflows a float is refused
    by the enumeration guard, with a short count, not a traceback."""
    payload = {**UNCOVERED, "pupils": UNCOVERED["pupils"] + [{"x": 0.5, "y": 0.0, "r": 0.1}]}
    code, out, err = run(capsys, "exhaustive", write_config(tmp_path, payload), "--theta", theta)
    assert code == 3 and err == ""
    error = json.loads(out)["error"]
    assert error["type"] == "SearchSpaceTooLarge" and len(error["message"]) < 80


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("command", ["minsum", "minarea", "move"])
def test_overflowing_area_is_written_as_null(tmp_path, capsys, command):
    """A pupil whose area overflows gives strict JSON: the non-finite
    total_area is null."""
    payload = {"objective_radius": 1.0, "pupils": [{"x": 0.0, "y": 0.0, "r": 1e200},
                                                   {"x": 0.5, "y": 0.0, "r": 0.1}]}
    code, out, _ = run(capsys, command, write_config(tmp_path, payload))
    assert code == 0
    entries = json.loads(out, parse_constant=_reject_constant)["result"]["trace"]["iterations"]
    assert entries[0]["total_area"] is None and entries[0]["sum_of_radii"] >= 1e200


def test_render_empty_config_exit_2(tmp_path, capsys):
    path = write_config(tmp_path, {"objective_radius": 1.0, "pupils": []})
    code, _, err = run(capsys, "render", path, "--out", str(tmp_path / "x.svg"))
    assert code == 2
    assert "pupils" in err


def test_move_and_exhaustive_and_maxobj(tmp_path, capsys):
    cfg = {
        "objective_radius": 1.0,
        "pupils": [
            {"x": -0.4, "y": 0.0, "r": 0.2},
            {"x": 0.0, "y": 0.05, "r": 0.2},
            {"x": 0.4, "y": 0.0, "r": 0.2},
        ],
    }
    path = write_config(tmp_path, cfg)
    code, out, _ = run(capsys, "move", path, "--iterations", "3")
    assert code == 0
    assert len(json.loads(out)["result"]["trace"]["iterations"]) == 4

    code, out, _ = run(capsys, "exhaustive", path, "--theta", "0.25")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["sum_of_radii"] <= 0.5 + 3 * 0.25 + 1e-9

    code, out, _ = run(capsys, "maxobj", path)
    assert code == 0
    assert json.loads(out)["result"]["r_star"] > 0


def test_design_three_cli(capsys):
    code, out, _ = run(capsys, "design-three", "--objective-radius", "2.0")
    assert code == 0
    design = json.loads(out)["result"]["design"]
    assert sorted(p["r"] for p in design["pupils"]) == [0.0, 0.0, 1.0]


def test_design_prime_cli(capsys):
    code, out, _ = run(
        capsys,
        "design-prime",
        "--objective-radius", "4",
        "--pupil-radius", "0.7071067811865476",
    )
    assert code == 0
    result = json.loads(out)["result"]
    assert result["count"] == 64
    assert result["p"] == 2
    assert len(result["design"]["pupils"]) == 64


def test_design_prime_invalid_radius_exit_2(capsys):
    code, _, err = run(
        capsys, "design-prime", "--objective-radius", "1", "--pupil-radius", "0.9"
    )
    assert code == 2
    assert "radius" in err


def test_render_deterministic_and_counts(tmp_path, capsys):
    cfg = {
        "objective_radius": 1.0,
        "pupils": [
            {"x": 0.0, "y": 0.0, "r": 0.5},
            {"x": 1.0, "y": 0.0, "r": 0.0},
            {"x": -1.0, "y": 0.0, "r": 0.0},
        ],
    }
    path = write_config(tmp_path, cfg)
    out1 = tmp_path / "a.svg"
    out2 = tmp_path / "b.svg"
    assert run(capsys, "render", path, "--out", str(out1))[0] == 0
    assert run(capsys, "render", path, "--out", str(out2))[0] == 0
    doc1 = out1.read_bytes()
    assert doc1 == out2.read_bytes()
    text = doc1.decode()
    assert text.count('class="objective"') == 1
    assert text.count('class="pupil"') == 3
    assert text.count('class="acs"') >= 3


def test_render_layer_subset(tmp_path, capsys):
    path = write_config(tmp_path, GOOD)
    out = tmp_path / "o.svg"
    assert run(capsys, "render", path, "--out", str(out), "--layers", "objective,pupils")[0] == 0
    text = out.read_text()
    assert 'class="acs"' not in text
    assert 'class="objective"' in text


def test_render_unwritable_path(tmp_path, capsys):
    path = write_config(tmp_path, GOOD)
    code, _, err = run(capsys, "render", path, "--out", "/nonexistent/dir/x.svg")
    assert code == 2


def test_render_bad_layer(tmp_path, capsys):
    path = write_config(tmp_path, GOOD)
    code, _, err = run(capsys, "render", path, "--out", str(tmp_path / "x.svg"), "--layers", "pupls")
    assert code == 2
    assert "unknown layers" in err


def test_report_floats_round_trip(tmp_path, capsys):
    cfg = {
        "objective_radius": 0.875,
        "pupils": [{"x": 1 / 3, "y": -2 / 7, "r": 0.1234567890123456}],
    }
    path = write_config(tmp_path, cfg)
    code, out, _ = run(capsys, "alpha", path)
    assert code == 0
    result = json.loads(out)["result"]
    assert isinstance(result["alpha_star"], float)
    # full double precision survives the JSON round trip
    assert json.loads(json.dumps(result)) == result
