"""Fuzz the command line with mutated scenarios, tube documents and
arguments: every run must end with a documented exit code, never a
traceback.

Examples are derandomized, so the suite sees the same inputs every run.
Values stay small so that no mutation can make a run slow (the RRT*
budget, segment counts and member counts are all bounded).
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tubeplan.cli import main
from tubeplan.geometry import OrderPairSet, Terminal
from tubeplan.scenario_io import save_tube
from tubeplan.tube import TrajectoryConfig, tube_from_waypoints

EXIT_CODES = {0, 2, 3, 4, 5}
FUZZ = settings(derandomize=True, deadline=None, database=None,
                max_examples=150,
                suppress_health_check=[HealthCheck.too_slow])

# two robots cross 6 m of free space; a low RRT* budget keeps plans fast
SCENARIO = {
    "schema_version": 1,
    "rng_seed": 1,
    "start_terminal": [[0.0, 0.0], [0.0, 2.0]],
    "goal_terminal": [[6.0, 0.0], [6.0, 2.0]],
    "robots": {"count": 2},
    "obstacles": {"inflation": 0.1,
                  "boxes": [{"min": [2.5, 4.0], "max": [3.5, 5.0]}]},
    "planner": {"segments": 3,
                "rrt": {"max_iterations": 60, "step_size": 2.0},
                "polynomial": {"order": 5, "cost_derivative": 3,
                               "continuity": 3},
                "corridor": {"mode": "strict", "width": 1.0,
                             "samples_per_segment": 3}},
    "controller": {"horizon": 10, "timestep": 0.1,
                   "avoidance": {"ellipse_axes": [0.5, 0.5]}},
    "time_limit": 5.0,
    "goal_radius": 0.2,
}

SCENARIO_FIELDS = [
    ("schema_version",), ("dimension",), ("rng_seed",), ("start_terminal",),
    ("start_terminal", 0), ("start_terminal", 1, 0), ("goal_terminal",),
    ("goal_terminal", 1, 1), ("robots",), ("robots", "count"),
    ("obstacles",), ("obstacles", "inflation"), ("obstacles", "boxes"),
    ("obstacles", "boxes", 0, "min"), ("planner",), ("planner", "segments"),
    ("planner", "variance_weight"), ("planner", "rrt", "max_iterations"),
    ("planner", "rrt", "step_size"), ("planner", "rrt", "goal_bias"),
    ("planner", "rrt", "rewire_radius"), ("planner", "polynomial", "order"),
    ("planner", "polynomial", "cost_derivative"),
    ("planner", "polynomial", "continuity"), ("planner", "corridor", "mode"),
    ("planner", "corridor", "width"),
    ("planner", "corridor", "samples_per_segment"),
    ("controller", "horizon"), ("controller", "timestep"),
    ("controller", "avoidance", "ellipse_axes"), ("time_limit",),
    ("goal_radius",)]
SCENARIO_INTEGERS = [
    ("schema_version",), ("dimension",), ("rng_seed",), ("robots", "count"),
    ("planner", "segments"), ("planner", "rrt", "max_iterations"),
    ("planner", "polynomial", "order"),
    ("planner", "polynomial", "cost_derivative"),
    ("planner", "polynomial", "continuity"),
    ("planner", "corridor", "samples_per_segment"), ("controller", "horizon")]

# chord_total and config.knots are keys a tube document does not hold:
# setting them adds a stale or misplaced key
TUBE_FIELDS = [
    ("schema_version",), ("kind",), ("config",),
    ("config", "order"), ("config", "cost_derivative"),
    ("config", "continuity"), ("config", "segments"),
    ("config", "corridor_width"), ("config", "corridor_samples"),
    ("config", "corridor_mode"), ("config", "knots"), ("chord_total",),
    ("start_vertices",), ("start_vertices", 0, 1), ("goal_vertices", 1),
    ("pairing",), ("pairing", 0), ("waypoints",), ("waypoints", 0, 1),
    ("waypoints", 1, 2, 0), ("basis_x",), ("basis_x", 0, 3), ("basis_b", 1)]
TUBE_INTEGERS = [
    ("schema_version",), ("config", "order"),
    ("config", "cost_derivative"), ("config", "continuity"),
    ("config", "segments"), ("config", "corridor_samples"), ("pairing", 0)]

# the edges of integer ranges: the signs, the neighbours of the polynomial
# order (continuity and cost derivative may not pass it) and numbers that
# are not integers
ORDER = SCENARIO["planner"]["polynomial"]["order"]
BOUNDARIES = [-1, 0, 1, ORDER - 1, ORDER + 1, 0.5, 3.0]

DELETE = object()


class Nudge(int):
    """Added to the number already at the mutated field."""


# small integers and nudges come first: they are the likeliest values to
# pass the type checks and reach the range checks behind them
values = st.one_of(
    st.integers(-4, 4).map(Nudge),
    st.integers(-2, 9),
    st.sampled_from([-1.5, 0.0, 0.5, 2.7, 1e-300, 1e6, float("nan"),
                     float("inf"), "2", "loose", "none", "", True, None,
                     DELETE, [], [0.0], [[0.0, 0.0]], {}]),
    st.floats(-20.0, 20.0),
    st.lists(st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=3),
             max_size=3))


def mutate(doc, path, value):
    """Set, nudge or delete doc[path]; a path that no longer exists is
    skipped."""
    owner = doc
    for key in path[:-1]:
        try:
            owner = owner[key]
        except (KeyError, IndexError, TypeError):
            return
    key = path[-1]
    present = key in owner if isinstance(owner, dict) else (
        isinstance(owner, list) and isinstance(key, int) and key < len(owner))
    if isinstance(value, Nudge):
        old = owner[key] if present else None
        if isinstance(old, (int, float)) and not isinstance(old, bool):
            owner[key] = old + int(value)
    elif value is DELETE:
        if present:
            del owner[key]
    elif present or isinstance(owner, dict):
        owner[key] = value


def run(argv):
    """Exit code of one in-process CLI run, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in EXIT_CODES, (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A valid scenario, a matching hand-built tube and a few bad files."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "scenario.json").write_text(json.dumps(SCENARIO),
                                        encoding="utf-8")
    xs = np.linspace(0.0, 6.0, 4)
    waypoints = np.array([np.column_stack([xs, np.zeros(4)]),
                          np.column_stack([xs, np.full(4, 2.0)])])
    pairs = OrderPairSet(Terminal(waypoints[:, 0, :]),
                         Terminal(waypoints[:, -1, :]), np.arange(2))
    save_tube(tube_from_waypoints(pairs, waypoints,
                                  TrajectoryConfig(segments=3)),
              root / "tube.json")
    (root / "notes.txt").write_text("not json", encoding="utf-8")
    (root / "folder").mkdir()
    return root


def test_fuzz_inputs_are_valid(workdir):
    # the unmutated inputs succeed, so mutations start from working ones
    assert run(["plan", "--scenario", str(workdir / "scenario.json"),
                "--out", str(workdir / "planned.json")]) == 0
    assert run(["verify", "--tube", str(workdir / "tube.json"),
                "--count", "1", "--samples", "5"]) == 0


@FUZZ
@given(edits=st.lists(st.tuples(st.sampled_from(SCENARIO_FIELDS), values),
                      min_size=1, max_size=2))
def test_mutated_scenarios_exit_cleanly(workdir, edits):
    doc = copy.deepcopy(SCENARIO)
    for path, value in edits:
        mutate(doc, path, value)
    scenario = workdir / "mutated_scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    run(["plan", "--scenario", str(scenario),
         "--out", str(workdir / "mutated_plan.json")])


# a goal terminal moved onto the start segment (x = 0, y in [0, 2]), or
# turned so that its first vertex lies on it: the hulls touch or overlap
touching_goals = st.one_of(
    st.floats(-2.0, 2.0).map(lambda s: [[0.0, s], [0.0, s + 2.0]]),
    st.tuples(st.floats(0.0, 2.0), st.floats(0.1, 8.0),
              st.sampled_from([-1.0, 1.0]), st.floats(-8.0, 8.0)).map(
        lambda a: [[0.0, a[0]], [a[2] * a[1], a[3]]]))


@FUZZ
@given(goal=touching_goals)
def test_touching_goal_terminals_exit_2(workdir, goal):
    doc = copy.deepcopy(SCENARIO)
    doc["goal_terminal"] = goal
    scenario = workdir / "touching_scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["plan", "--scenario", str(scenario),
                     "--out", str(workdir / "touching_plan.json")])
    assert (code, err.getvalue()) == (
        2, "error: start and goal terminals are not disjoint\n"), goal


def check_tube(workdir, doc):
    tube = workdir / "mutated_tube.json"
    tube.write_text(json.dumps(doc), encoding="utf-8")
    run(["members", "--tube", str(tube), "--count", "1", "--samples", "3",
         "--out", str(workdir / "mutated_members.csv")])
    run(["verify", "--tube", str(tube), "--count", "1", "--samples", "5"])


@FUZZ
@given(edits=st.lists(st.tuples(st.sampled_from(TUBE_FIELDS), values),
                      min_size=1, max_size=2))
def test_mutated_tubes_exit_cleanly(workdir, edits):
    doc = json.loads((workdir / "tube.json").read_text(encoding="utf-8"))
    for path, value in edits:
        mutate(doc, path, value)
    check_tube(workdir, doc)


# one example per integer field and boundary value: a strategy over a
# finite set is enumerated without repeats, so every range check meets
# every boundary, which random edits reach only by chance
@FUZZ
@given(case=st.sampled_from(
    [("scenario", path, value)
     for path in SCENARIO_INTEGERS for value in BOUNDARIES]
    + [("tube", path, value)
       for path in TUBE_INTEGERS for value in BOUNDARIES]))
def test_integer_boundaries_exit_cleanly(workdir, case):
    kind, path, value = case
    if kind == "tube":
        doc = json.loads((workdir / "tube.json").read_text(encoding="utf-8"))
        mutate(doc, path, value)
        check_tube(workdir, doc)
        return
    doc = copy.deepcopy(SCENARIO)
    mutate(doc, path, value)
    scenario = workdir / "mutated_scenario.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    run(["plan", "--scenario", str(scenario),
         "--out", str(workdir / "mutated_plan.json")])


# the simulate fuzz starts from every controller key written out, so that
# nudges reach each one; timestep and time_limit stay fixed, which keeps
# every run within 50 ticks (test_cli tests their extremes)
SIM_SCENARIO = copy.deepcopy(SCENARIO)
SIM_SCENARIO["controller"].update(
    position_weight=10.0, velocity_weight=1.0, input_weight=0.1,
    slack_weight=1000.0, terminal_weight_scale=10.0, boundary_tolerance=0.5,
    input_limit=100.0, reference_speed=2.5)
SIM_SCENARIO["controller"]["avoidance"]["safety_distance"] = 1.0
SIM_FIELDS = [("controller", key) for key in SIM_SCENARIO["controller"]
              if key not in ("timestep", "avoidance")] + [
    ("controller", "avoidance", "ellipse_axes"),
    ("controller", "avoidance", "ellipse_axes", 0),
    ("controller", "avoidance", "safety_distance"), ("goal_radius",)]
SIM_FUZZ = settings(FUZZ, max_examples=60)
# numbers, mostly: they pass the type checks and reach the range checks
# and the run; the extremes probe overflow
run_values = st.one_of(
    st.integers(-4, 4).map(Nudge),
    st.sampled_from([-1.0, 0, 0.0, 1, 2, 1e-300, 1e300, 1e6, "2", None]),
    st.floats(-20.0, 20.0))


def test_simulate_fuzz_scenario_is_valid(workdir):
    scenario = workdir / "sim_scenario.json"
    scenario.write_text(json.dumps(SIM_SCENARIO), encoding="utf-8")
    assert run(["simulate", "--scenario", str(scenario),
                "--tube", str(workdir / "tube.json")]) == 0


def test_infeasible_horizon_qp_names_robot_tick_and_settings(workdir,
                                                            capsys):
    # at 13.8 m/s the first robot's first horizon QP has no feasible point
    doc = copy.deepcopy(SIM_SCENARIO)
    doc["controller"]["reference_speed"] = 13.8
    scenario = workdir / "sim_fast.json"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["simulate", "--scenario", str(scenario),
                 "--tube", str(workdir / "tube.json")]) == 3
    assert capsys.readouterr().err == (
        "error: robot 0 at tick 0: active inequality row dependent on "
        "existing constraints; no feasible point; the settings that bind "
        "are controller.reference_speed (13.8), "
        "controller.boundary_tolerance (0.5) and controller.input_limit "
        "(100)\n")


@SIM_FUZZ
@given(edits=st.lists(st.tuples(st.sampled_from(SIM_FIELDS), run_values),
                      min_size=1, max_size=2))
def test_mutated_run_settings_simulate_cleanly(workdir, edits):
    doc = copy.deepcopy(SIM_SCENARIO)
    for path, value in edits:
        mutate(doc, path, value)
    scenario, log = workdir / "sim_mutated.json", workdir / "sim_log.csv"
    scenario.write_text(json.dumps(doc), encoding="utf-8")
    log.unlink(missing_ok=True)
    code = run(["simulate", "--scenario", str(scenario),
                "--tube", str(workdir / "tube.json"), "--out", str(log)])
    assert code in (0, 2, 3)
    if code == 0:
        text = log.read_text(encoding="utf-8")
        assert "nan" not in text and "inf" not in text


@st.composite
def arguments(draw, root):
    """A valid argument list for one subcommand with some options
    replaced, dropped or added."""
    scenario, tube, out = (str(root / name) for name in (
        "scenario.json", "tube.json", "out.dat"))
    command = draw(st.sampled_from(["plan", "members", "verify",
                                    "simulate", "unknown"]))
    options = {
        "plan": {"--scenario": scenario, "--out": out},
        "members": {"--tube": tube, "--out": out, "--count": "2",
                    "--samples": "3"},
        "verify": {"--tube": tube, "--count": "1", "--samples": "5"},
        "simulate": {"--scenario": scenario, "--tube": tube},
    }.get(command, {})
    files = st.sampled_from([scenario, tube] + [str(root / name) for name in (
        "absent.json", "notes.txt", "folder")])
    outputs = st.sampled_from([out, str(root / "folder"),
                               str(root / "absent" / "out.dat")])
    small = st.sampled_from(["-3", "-1", "0", "1", "4", "", "x", "1.5"])
    choices = {"--scenario": files, "--tube": files, "--out": outputs,
               "--metrics": outputs, "--count": small, "--samples": small,
               "--seed-override": small}
    for flag in draw(st.lists(st.sampled_from(sorted(choices)),
                              max_size=3)):
        if draw(st.booleans()):
            options.pop(flag, None)
        else:
            options[flag] = draw(choices[flag])
    argv = [command] + [item for pair in options.items() for item in pair]
    return argv + draw(st.sampled_from([[], [], ["--help"], ["--bogus"],
                                        ["extra"]]))


@FUZZ
@given(data=st.data())
def test_fuzzed_arguments_exit_cleanly(workdir, data):
    run(data.draw(arguments(workdir)))
