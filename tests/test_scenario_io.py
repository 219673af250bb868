import csv
import json
import re

import numpy as np
import pytest

from tubeplan.cli import main, plan_tube
from tubeplan.geometry import OrderPairSet, Terminal
from tubeplan.mpcsim import Metrics, SimLog
from tubeplan.scenario_io import (IoError, ParseError, SCENARIO_KEYS,
                                  SCHEMA_VERSION, TUBE_KEYS,
                                  TUBE_SCHEMA_VERSION,
                                  ValidationError, VersionError,
                                  load_scenario, load_tube, save_log,
                                  save_metrics, save_tube)
from tubeplan.tube import TrajectoryConfig, tube_from_waypoints


def minimal_doc():
    """Smallest valid scenario: two disjoint segment terminals."""
    return {
        "schema_version": SCHEMA_VERSION,
        "start_terminal": [[0.0, 0.0], [0.0, 1.0]],
        "goal_terminal": [[5.0, 0.0], [5.0, 1.0]],
    }


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_load_corridor_scenario():
    sc = load_scenario("scenarios/corridor_2d.json")
    assert sc.dim == 2
    assert len(sc.obstacles.boxes) == 2
    assert sc.obstacles.inflation == 0.5
    assert sc.start_terminal.count == 2
    assert np.allclose(sc.goal_terminal.vertices, [[20.0, -7.5], [20.0, 7.5]])
    # robots given as a count are materialized on an equispaced lattice
    assert sc.robot_starts.shape == (11, 2)
    assert np.allclose(sc.robot_starts[:, 0], 0.0)
    assert np.allclose(np.sort(sc.robot_starts[:, 1]),
                       np.linspace(-7.5, 7.5, 11))
    assert sc.variance_weight == 1.0
    assert sc.rrt.max_iterations == 4000
    assert sc.rrt.step_size == 1.5
    assert sc.rrt.rewire_radius == 4.0
    assert sc.rrt.rng_seed == 42
    assert sc.traj.order == 5
    assert sc.traj.cost_derivative == 3
    assert sc.traj.continuity == 3
    assert sc.traj.segments == 5
    assert sc.traj.corridor_mode == "strict"
    assert sc.mpc.horizon == 10
    assert sc.mpc.timestep == 0.1
    assert sc.mpc.reference_speed == 2.5
    assert np.allclose(sc.avoidance.axes, [0.55, 0.55])
    assert sc.avoidance.safety_distance == 1.0
    assert sc.time_limit == 60.0
    assert sc.goal_radius == 0.25


def test_minimal_document_fills_every_default(tmp_path):
    sc = load_scenario(write_doc(tmp_path, minimal_doc()))
    assert sc.dim == 2
    assert sc.rrt.rng_seed == 0
    assert sc.obstacles.boxes == ()
    assert sc.obstacles.inflation == 0.0
    assert sc.robot_starts.shape == (0, 2)
    assert sc.variance_weight == 1.0
    assert (sc.rrt.max_iterations, sc.rrt.step_size) == (4000, 1.0)
    assert (sc.rrt.goal_bias, sc.rrt.rewire_radius) == (0.1, 3.0)
    assert sc.rrt.corridor_shrink_radius == 3.0
    assert sc.traj == TrajectoryConfig()
    assert (sc.mpc.horizon, sc.mpc.timestep) == (10, 0.1)
    assert (sc.mpc.position_weight, sc.mpc.velocity_weight) == (10.0, 1.0)
    assert (sc.mpc.input_weight, sc.mpc.slack_weight) == (0.1, 1000.0)
    assert sc.mpc.terminal_weight_scale == 10.0
    assert (sc.mpc.boundary_tolerance, sc.mpc.input_limit) == (0.5, 100.0)
    assert sc.mpc.reference_speed == 2.5
    assert np.allclose(sc.avoidance.axes, [0.5, 0.5])
    assert sc.avoidance.safety_distance == 1.0
    assert sc.time_limit is None
    assert sc.goal_radius == 0.2


def expect_invalid(tmp_path, doc, match):
    with pytest.raises(ValidationError, match=match):
        load_scenario(write_doc(tmp_path, doc))


def test_numbers_must_be_json_numbers(tmp_path):
    doc = minimal_doc()
    doc["goal_radius"] = "0.2"
    expect_invalid(tmp_path, doc, "expected a number")
    doc = minimal_doc()
    doc["time_limit"] = True
    expect_invalid(tmp_path, doc, "expected a number")
    doc = minimal_doc()
    doc["rng_seed"] = 1.5
    expect_invalid(tmp_path, doc, "expected an integer")
    doc = minimal_doc()
    doc["rng_seed"] = -1
    expect_invalid(tmp_path, doc, "rng_seed must be nonnegative")


def test_terminals_required_equal_and_disjoint(tmp_path):
    doc = minimal_doc()
    del doc["start_terminal"]
    expect_invalid(tmp_path, doc, "start_terminal is required")
    doc = minimal_doc()
    doc["goal_terminal"] = [[5.0, 0.0], [5.0, 1.0], [6.0, 0.5]]
    expect_invalid(tmp_path, doc, "equal vertex counts")
    # a goal segment crossing the start segment shares a hull point
    doc = minimal_doc()
    doc["goal_terminal"] = [[-1.0, 0.5], [1.0, 0.5]]
    expect_invalid(tmp_path, doc, "not disjoint")


@pytest.mark.parametrize("goal", [
    [[0.0, 1.0], [5.0, 1.0]],       # shares the start's vertex (0, 1)
    [[0.0, 0.5], [5.0, 0.5]],       # a vertex on the start segment
    [[0.0, 1.0], [0.0, 3.0]]])      # collinear, touching end to end
def test_touching_terminals_exit_2(tmp_path, capsys, goal):
    doc = minimal_doc()
    doc["goal_terminal"] = goal
    code = main(["plan", "--scenario", str(write_doc(tmp_path, doc)),
                 "--out", str(tmp_path / "tube.json")])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: start and goal terminals are not disjoint\n")


def test_terminals_a_micrometre_apart_load_and_plan(tmp_path, capsys):
    doc = minimal_doc()
    doc["goal_terminal"] = [[1e-6, 0.0], [1e-6, 1.0]]
    path = write_doc(tmp_path, doc)
    assert load_scenario(path).goal_terminal.vertices[0, 0] == 1e-6
    assert main(["plan", "--scenario", str(path),
                 "--out", str(tmp_path / "tube.json")]) == 0
    assert "2 basis members" in capsys.readouterr().out


def test_robot_placement_is_validated(tmp_path):
    doc = minimal_doc()
    doc["robots"] = [[3.0, 0.5]]
    expect_invalid(tmp_path, doc, "outside the start terminal")
    doc = minimal_doc()
    doc["robots"] = [[0.0, 0.5], [0.0, 0.5]]
    expect_invalid(tmp_path, doc, "coincide")
    doc = minimal_doc()
    doc["robots"] = {"count": -1}
    expect_invalid(tmp_path, doc, "nonnegative")


def test_version_dimension_parse_and_io_errors(tmp_path):
    # scenarios stay at version 1 while tube documents moved to version 3
    doc = minimal_doc()
    assert doc["schema_version"] == SCHEMA_VERSION == 1
    assert load_scenario(write_doc(tmp_path, doc)).dim == 2
    doc["schema_version"] = TUBE_SCHEMA_VERSION
    with pytest.raises(VersionError,
                       match=r"schema_version 3 unsupported \(expected 1\)"):
        load_scenario(write_doc(tmp_path, doc))
    doc = minimal_doc()
    doc["dimension"] = 4
    expect_invalid(tmp_path, doc, "must be 2 or 3")
    truncated = tmp_path / "broken.json"
    truncated.write_text('{"schema_version": 1,', encoding="utf-8")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_scenario(truncated)
    with pytest.raises(IoError):
        load_scenario(tmp_path / "missing.json")


def test_geometry_and_planner_settings_are_validated(tmp_path):
    doc = minimal_doc()
    doc["obstacles"] = {"boxes": [{"min": [0.0, 0.0], "max": [0.0, 5.0]}]}
    expect_invalid(tmp_path, doc, "strictly below")
    doc = minimal_doc()
    doc["obstacles"] = {"inflation": -0.1}
    expect_invalid(tmp_path, doc, "nonnegative")
    doc = minimal_doc()
    doc["planner"] = {"rrt": {"goal_bias": 1.0}}
    expect_invalid(tmp_path, doc, r"\[0, 1\)")
    doc = minimal_doc()
    doc["planner"] = {"corridor": {"mode": "banana"}}
    expect_invalid(tmp_path, doc, "corridor.mode")
    # the loose mode, whose members carry no optimality guarantee, is gone
    doc = minimal_doc()
    doc["planner"] = {"corridor": {"mode": "loose"}}
    expect_invalid(tmp_path, doc, "must be one of")
    for continuity in (-1, 6):
        doc = minimal_doc()
        doc["planner"] = {"polynomial": {"order": 5,
                                         "continuity": continuity}}
        expect_invalid(tmp_path, doc, r"continuity must be in \[0, order\]")
    doc = minimal_doc()
    doc["time_limit"] = -5.0
    expect_invalid(tmp_path, doc, "nonnegative")


def set_key(doc, path, value):
    """doc with value at a dotted path, creating the sections on the way."""
    *sections, key = path.split(".")
    owner = doc
    for section in sections:
        owner = owner.setdefault(section, {})
    owner[key] = value
    return doc


# one typo per object that holds keys
@pytest.mark.parametrize("path", [
    "goal_radus", "obstacles.inflaton", "obstacles.boxes[0].mni",
    "robots.cont", "planner.segmnts", "planner.rrt.max_iteration",
    "planner.polynomial.ordr", "planner.corridor.widht",
    "controller.horizn", "controller.avoidance.safety_distnce"])
def test_unknown_keys_are_rejected(tmp_path, path):
    doc = minimal_doc()
    doc["obstacles"] = {"boxes": [{"min": [2.0, 4.0], "max": [3.0, 5.0]}]}
    doc["robots"] = {"count": 2}
    if path == "obstacles.boxes[0].mni":
        doc["obstacles"]["boxes"][0]["mni"] = [2.0, 4.0]
    else:
        set_key(doc, path, 1)
    expect_invalid(tmp_path, doc, rf"^{re.escape(path)}: unknown key$")


def test_dotted_keys_are_rejected(tmp_path):
    # a key that holds a dot would otherwise pass for the nested key
    doc = minimal_doc()
    doc["planner.segments"] = 3
    expect_invalid(tmp_path, doc, r"^planner\.segments: unknown key$")
    doc = minimal_doc()
    doc["planner"] = {"rrt.step_size": 1.0}
    expect_invalid(tmp_path, doc, r"^planner\.rrt\.step_size: unknown key$")


@pytest.mark.parametrize("path", ["controller", "planner.rrt",
                                  "controller.avoidance"])
def test_sections_must_be_objects(tmp_path, path):
    expect_invalid(tmp_path, set_key(minimal_doc(), path, [1.0]),
                   rf"^{re.escape(path)}: expected an object$")


@pytest.mark.parametrize("path, value, match", [
    ("rng_seed", -1, "rng_seed must be nonnegative"),
    ("planner.variance_weight", -1.0,
     "planner.variance_weight must be nonnegative"),
    ("planner.rrt.max_iterations", 0,
     "planner.rrt.max_iterations must be at least 1"),
    ("planner.rrt.step_size", 0.0, "planner.rrt.step_size must be positive"),
    ("planner.rrt.rewire_radius", -1.0,
     "planner.rrt.rewire_radius must be positive"),
    ("planner.rrt.corridor_shrink_radius", -1.0,
     "planner.rrt.corridor_shrink_radius must be positive"),
    ("planner.segments", 0, "planner.segments must be at least 1"),
    ("planner.polynomial.cost_derivative", 6,
     r"planner.polynomial.cost_derivative must be in \[1, order\]"),
    ("planner.corridor.width", 0.0, "planner.corridor.width must be positive"),
    ("controller.horizon", 1, "controller.horizon must be at least 2"),
    ("controller.horizon", 51, "controller.horizon must be at most 50"),
    ("controller.timestep", 0.0, "controller.timestep must be positive"),
    ("controller.boundary_tolerance", 0.0,
     "controller.boundary_tolerance must be positive"),
    ("controller.boundary_tolerance", -1.0,
     "controller.boundary_tolerance must be positive"),
    ("controller.input_limit", 0.0, "controller.input_limit must be positive"),
    ("controller.input_limit", -1.0,
     "controller.input_limit must be positive"),
    ("controller.slack_weight", -1.0,
     "controller.slack_weight must be positive"),
    ("controller.position_weight", -5.0,
     "controller.position_weight must be nonnegative"),
    ("controller.velocity_weight", -1.0,
     "controller.velocity_weight must be nonnegative"),
    ("controller.input_weight", -1.0,
     "controller.input_weight must be nonnegative"),
    ("controller.terminal_weight_scale", -1.0,
     "controller.terminal_weight_scale must be nonnegative"),
    ("controller.reference_speed", 0.0,
     "controller.reference_speed must be positive"),
    ("controller.avoidance.ellipse_axes", [0.5, 0.0],
     "controller.avoidance.ellipse_axes must be positive and finite"),
    ("controller.avoidance.ellipse_axes", [0.5, 0.5, 0.5],
     "controller.avoidance.ellipse_axes: expected 2 entries"),
    ("controller.avoidance.safety_distance", -1.0,
     "controller.avoidance.safety_distance must be positive")])
def test_settings_out_of_range_are_rejected(tmp_path, path, value, match):
    expect_invalid(tmp_path, set_key(minimal_doc(), path, value),
                   rf"^{match}$")


@pytest.mark.parametrize("horizon", [2, 50])
def test_horizon_bounds_are_inclusive(tmp_path, horizon):
    doc = set_key(minimal_doc(), "controller.horizon", horizon)
    assert load_scenario(write_doc(tmp_path, doc)).mpc.horizon == horizon


def test_zero_weights_stay_valid(tmp_path):
    doc = minimal_doc()
    for key in ("position_weight", "velocity_weight", "input_weight",
                "terminal_weight_scale"):
        set_key(doc, f"controller.{key}", 0.0)
    set_key(doc, "planner.variance_weight", 0.0)
    sc = load_scenario(write_doc(tmp_path, doc))
    assert sc.mpc.velocity_weight == sc.mpc.input_weight == 0.0
    assert sc.variance_weight == 0.0


def test_readme_lists_every_scenario_key():
    text = open("README.md", encoding="utf-8").read()
    section = text.split("### Scenario documents")[1].split("\n## ")[0]
    listed = set(re.findall(r"^\| `([^`]+)` \|", section, re.MULTILINE))
    assert listed == SCENARIO_KEYS


def hand_tube(corridor_mode):
    """Two parallel straight member paths, solved directly."""
    xs = np.linspace(0.0, 12.0, 7)
    waypoints = np.array([np.column_stack([xs, np.zeros(7)]),
                          np.column_stack([xs, np.ones(7)])])
    config = TrajectoryConfig(segments=6, corridor_mode=corridor_mode)
    pairs = OrderPairSet(Terminal(waypoints[:, 0, :]),
                         Terminal(waypoints[:, -1, :]), np.arange(2))
    return tube_from_waypoints(pairs, waypoints, config)


def test_tube_round_trip_is_bit_faithful(tmp_path):
    tube = hand_tube("none")
    first = tmp_path / "tube.json"
    save_tube(tube, first)
    loaded = load_tube(first)
    assert np.array_equal(loaded.basis_x, tube.basis_x)
    assert np.array_equal(loaded.basis_b, tube.basis_b)
    assert np.array_equal(loaded.knots.u, tube.knots.u)
    assert np.array_equal(loaded.waypoints, tube.waypoints)
    assert np.array_equal(loaded.pairs.pairing, tube.pairs.pairing)
    assert loaded.chord_total == tube.chord_total
    assert loaded.config == tube.config
    # derived matrices are rebuilt deterministically from the document
    assert np.array_equal(loaded.A, tube.A)
    assert np.array_equal(loaded.cost.H, tube.cost.H)
    assert loaded.corridor is None
    # saving the reloaded tube reproduces the file byte for byte
    second = tmp_path / "again.json"
    save_tube(loaded, second)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("name", ["corridor_2d", "triangle_2d", "tetra_3d"])
def test_shipped_tubes_reload_bit_for_bit(tmp_path, name):
    planned = plan_tube(load_scenario(f"scenarios/{name}.json"))
    path = tmp_path / "tube.json"
    save_tube(planned, path)
    # the document holds what fixes the tube, and basis_b to check it by
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert set(doc) | {f"config.{key}" for key in doc["config"]} == TUBE_KEYS
    loaded = load_tube(path)
    # every derived field is rebuilt bit for bit as planning built it
    assert np.array_equal(loaded.knots.u, planned.knots.u)
    assert loaded.chord_total == planned.chord_total
    for field in ("waypoints", "basis_x", "basis_b", "A"):
        assert np.array_equal(getattr(loaded, field), getattr(planned, field))
    assert np.array_equal(loaded.cost.H, planned.cost.H)
    assert np.array_equal(loaded.corridor.G, planned.corridor.G)
    assert np.array_equal(loaded.corridor.h, planned.corridor.h)
    # saving the reloaded tube rewrites the file byte for byte
    again = tmp_path / "again.json"
    save_tube(loaded, again)
    assert again.read_bytes() == path.read_bytes()


def test_strict_tube_reloads_its_corridor(tmp_path):
    tube = hand_tube("strict")
    path = tmp_path / "tube.json"
    save_tube(tube, path)
    loaded = load_tube(path)
    assert loaded.corridor is not None
    assert np.array_equal(loaded.corridor.G, tube.corridor.G)
    assert np.array_equal(loaded.corridor.h, tube.corridor.h)


def tamper(tmp_path, mutate, name="tampered.json"):
    save_tube(hand_tube("none"), tmp_path / "tube.json")
    doc = json.loads((tmp_path / "tube.json").read_text(encoding="utf-8"))
    mutate(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def test_load_tube_rejects_malformed_documents(tmp_path):
    def wrong_kind(doc):
        doc["kind"] = "polyline"
    with pytest.raises(ValidationError, match="virtual-tube"):
        load_tube(tamper(tmp_path, wrong_kind))

    def wrong_version(doc):
        doc["schema_version"] = 99
    with pytest.raises(VersionError):
        load_tube(tamper(tmp_path, wrong_version))

    # version 1 (global-time coefficients) and version 2 (derived values
    # stored) are rejected, never converted
    for version in (1, 2):
        def old_version(doc):
            assert doc["schema_version"] == TUBE_SCHEMA_VERSION == 3
            doc["schema_version"] = version
        with pytest.raises(VersionError, match=(
                rf"schema_version {version} unsupported \(expected 3\)")):
            load_tube(tamper(tmp_path, old_version))

    # derived values and typos are unknown keys, at the top and in config
    for section, key, value in [
            ("", "chord_total", 6.0), ("", "knots", [0.0, 1.0]),
            ("", "dimension", 2), ("", "qp_solves", 2), ("", "bogus", 1),
            ("", "config.order", 5), ("config", "bogus", 1),
            ("config", "order.x", 5)]:
        def add_key(doc):
            (doc[section] if section else doc)[key] = value
        path = f"{section}.{key}" if section else key
        with pytest.raises(ValidationError,
                           match=rf"^{re.escape(path)}: unknown key$"):
            load_tube(tamper(tmp_path, add_key))

    def drop_key(doc):
        del doc["basis_x"]
    with pytest.raises(ValidationError, match="malformed"):
        load_tube(tamper(tmp_path, drop_key))

    def drop_path(doc):
        doc["waypoints"] = doc["waypoints"][:1]
    with pytest.raises(ValidationError, match="waypoints shape"):
        load_tube(tamper(tmp_path, drop_path))

    def truncate_basis(doc):
        doc["basis_x"] = [row[:-1] for row in doc["basis_x"]]
    with pytest.raises(ValidationError, match="inconsistent"):
        load_tube(tamper(tmp_path, truncate_basis))

    def poison_basis(doc):
        doc["basis_x"][1][3] = float("nan")
    with pytest.raises(ValidationError, match=r"basis_x\[1\]\[3\]: .*finite"):
        load_tube(tamper(tmp_path, poison_basis))

    def infinite_waypoint(doc):
        doc["waypoints"][0][1][0] = float("-inf")
    with pytest.raises(ValidationError,
                       match=r"waypoints\[0\]\[1\]\[0\]: .*finite"):
        load_tube(tamper(tmp_path, infinite_waypoint))

    def nudge_rhs(doc):
        doc["basis_b"][1][0] += 1e-6
    with pytest.raises(ValidationError, match="basis_b differs .* 1.000e-06"):
        load_tube(tamper(tmp_path, nudge_rhs))

    # trajectory settings go through the same checks as a scenario's
    for key, value, match in [
            ("corridor_mode", "loose", "must be one of"),
            ("continuity", -1, r"continuity must be in \[0, order\]"),
            ("corridor_samples", 0, "corridor_samples must be at least 1"),
            ("corridor_samples", -2, "corridor_samples must be at least 1"),
            ("cost_derivative", 9, r"cost_derivative must be in \[1, order\]"),
            ("order", 5.0, "config.order: expected an integer"),
            ("segments", 9, "config.segments is 9, but the waypoints span 6")]:
        def set_config(doc):
            doc["config"][key] = value
        with pytest.raises(ValidationError, match=match):
            load_tube(tamper(tmp_path, set_config))

    def fractional_pairing(doc):
        doc["pairing"] = [0.7, 1.9]
    with pytest.raises(ValidationError, match=r"pairing\[0\]: expected an"):
        load_tube(tamper(tmp_path, fractional_pairing))

    # the dimension is the vertices': the waypoints must share it
    def lift_vertices(doc):
        for key in ("start_vertices", "goal_vertices"):
            doc[key] = [v + [0.0] for v in doc[key]]
    with pytest.raises(ValidationError, match=(
            "the vertices are 3-D and the waypoints 2-D; both must be")):
        load_tube(tamper(tmp_path, lift_vertices))

    # A x = basis_b still holds, but basis_b no longer matches the waypoints
    def move_waypoint(doc):
        doc["waypoints"][1][2][0] += 0.5
    with pytest.raises(ValidationError,
                       match="basis_b differs .* by 5.000e-01"):
        load_tube(tamper(tmp_path, move_waypoint))


def hand_log():
    times = np.array([0.0, 0.1, 0.2])
    states = np.zeros((3, 2, 4))
    states[:, 0, :2] = [[0.9, 0.0], [1.0, 0.0], [1.0, 0.0]]
    states[:, 1, :2] = [[0.0, 0.8], [0.0, 0.9], [0.0, 1.0]]
    states[:, :, 2:] = 0.5
    inputs = np.arange(8, dtype=float).reshape(2, 2, 2)
    return SimLog(times=times, states=states, inputs=inputs,
                  goals=np.array([[1.0, 0.0], [0.0, 1.0]]), timestep=0.1,
                  max_slack=np.full((2, 2), 0.25))


def test_save_log_layout(tmp_path):
    path = tmp_path / "log.csv"
    save_log(hand_log(), path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["tick", "time", "robot", "px", "py", "vx", "vy",
                       "ux", "uy", "slack"]
    # one row per (tick, robot) including the final state-only tick
    assert len(rows) == 1 + 3 * 2
    tick1_robot0 = rows[1 + 2]
    assert tick1_robot0[:3] == ["1", "0.1", "0"]
    assert [float(v) for v in tick1_robot0[3:]] == [1.0, 0.0, 0.5, 0.5,
                                                    4.0, 5.0, 0.25]
    # the final tick has no applied input, so those cells stay empty
    for row in rows[5:]:
        assert row[7:] == ["", "", ""]
        assert float(row[1]) == 0.2


def test_save_metrics_serializes_infinities(tmp_path):
    path = tmp_path / "metrics.json"
    save_metrics(Metrics(average_time=np.inf, arrival_rate=0.5,
                         average_speed=1.25,
                         min_pairwise_distance=np.inf), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc == {"average_time": "inf", "arrival_rate": 0.5,
                   "average_speed": 1.25, "min_pairwise_distance": "inf"}
    save_metrics(Metrics(1.5, 1.0, 2.0, 3.0), path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["average_time"] == 1.5
    assert doc["min_pairwise_distance"] == 3.0
