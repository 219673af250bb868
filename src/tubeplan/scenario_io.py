"""Scenario files, tube serialization, and simulation output writers.

Scenarios are strict JSON: numbers must be JSON numbers (never strings or
booleans), and unknown schema versions and keys are rejected.  One key
table per settings class maps a scenario key to its field and parser; an
absent key keeps the field's default, and each check lives in its class.
README's "Scenario documents" lists every key.  The start and goal
terminals are disjoint when their hulls lie more than
``geometry.HULL_TOL`` apart (``geometry.hull_distance``); no LP solver is
loaded for that test.  Tubes round-trip through JSON exactly: floats are
written with repr precision (17 significant digits), which is
bit-faithful for IEEE doubles.  A tube document holds
only what fixes the tube (settings, vertex pairs, waypoints, basis) and
the basis right-hand sides as a check value; ``tube.tube_from_waypoints``
rebuilds everything else as planning does.
"""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import (HULL_TOL, PointOutsideHull, Terminal,
                       barycentric_weights, equispaced_points, hull_distance,
                       OrderPairSet)
from .mpcsim import AvoidanceModel, Metrics, MpcConfig, SimLog
from .pathfinder import ObstacleSet, RrtConfig
from .trajopt import RankDeficient
from .tube import OptimalVirtualTube, TrajectoryConfig, tube_from_waypoints

SCHEMA_VERSION = 1  # scenario documents
# tube documents: version 4 stores six trajectory settings and no derived
# value but basis_b; version 3 also stored the corridor mode, version 2
# the knots, chord length, dimension and QP count, and version 1
# global-time coefficients.  All three are rejected, not converted.
TUBE_SCHEMA_VERSION = 4
# largest |A basis_x - basis_b| entry a loaded tube may carry
_BASIS_TOL = 1e-8


class ParseError(ValueError):
    """The file is not valid JSON."""


class ValidationError(ValueError):
    """The document violates the schema or a semantic invariant."""


class VersionError(ValueError):
    """Unsupported schema_version."""


class IoError(OSError):
    """Wraps filesystem errors from reads and writes."""


def _read_document(path, expected: int) -> dict:
    """A JSON object of schema version expected, read from path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise IoError(f"cannot read {path}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(
            f"{path}: invalid JSON at line {err.lineno}, column {err.colno}: "
            f"{err.msg}") from err
    if not isinstance(doc, dict):
        raise ValidationError("top level must be an object")
    version = doc.get("schema_version")
    if version != expected:
        raise VersionError(f"schema_version {version!r} unsupported "
                           f"(expected {expected})")
    return doc


def _write_json(doc, path):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as err:
        raise IoError(f"cannot write {path}: {err}") from err


def _number(val, path):
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ValidationError(f"{path}: expected a number")
    if not math.isfinite(val):
        raise ValidationError(f"{path}: number must be finite")
    return float(val)


def _non_finite_path(value, path=""):
    """Path of the first non-finite number inside a parsed JSON value."""
    if isinstance(value, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in value.items())
    elif isinstance(value, list):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        bad = isinstance(value, float) and not math.isfinite(value)
        return path if bad else None
    for sub, item in items:
        found = _non_finite_path(item, sub)
        if found is not None:
            return found
    return None


def _integer(val, path):
    if isinstance(val, bool) or not isinstance(val, int):
        raise ValidationError(f"{path}: expected an integer")
    return int(val)


def _numbers(val, path):
    if not isinstance(val, list):
        raise ValidationError(f"{path}: expected a list of numbers")
    return np.array([_number(x, f"{path}[{i}]") for i, x in enumerate(val)])


def _points(val, path, dim):
    if not isinstance(val, list) or not val:
        raise ValidationError(f"{path}: expected a non-empty list of points")
    out = []
    for i, row in enumerate(val):
        if not isinstance(row, list) or len(row) != dim:
            raise ValidationError(f"{path}[{i}]: expected {dim} coordinates")
        out.append([_number(x, f"{path}[{i}][{j}]")
                    for j, x in enumerate(row)])
    return np.array(out)


# One key table per settings class: scenario key -> (field, parser).  A
# TrajectoryConfig field is also its key in a tube document.
_RRT_KEYS = {
    "rng_seed": ("rng_seed", _integer),
    "planner.rrt.max_iterations": ("max_iterations", _integer),
    "planner.rrt.step_size": ("step_size", _number),
    "planner.rrt.goal_bias": ("goal_bias", _number),
    "planner.rrt.rewire_radius": ("rewire_radius", _number),
    "planner.rrt.corridor_shrink_radius": ("corridor_shrink_radius", _number),
}
_TRAJECTORY_KEYS = {
    "planner.polynomial.order": ("order", _integer),
    "planner.polynomial.cost_derivative": ("cost_derivative", _integer),
    "planner.polynomial.continuity": ("continuity", _integer),
    "planner.segments": ("segments", _integer),
    "planner.corridor.width": ("corridor_width", _number),
    "planner.corridor.samples_per_segment": ("corridor_samples", _integer),
}
_MPC_KEYS = {
    "controller.horizon": ("horizon", _integer),
    "controller.timestep": ("timestep", _number),
    "controller.position_weight": ("position_weight", _number),
    "controller.velocity_weight": ("velocity_weight", _number),
    "controller.input_weight": ("input_weight", _number),
    "controller.slack_weight": ("slack_weight", _number),
    "controller.terminal_weight_scale": ("terminal_weight_scale", _number),
    "controller.boundary_tolerance": ("boundary_tolerance", _number),
    "controller.input_limit": ("input_limit", _number),
    "controller.reference_speed": ("reference_speed", _number),
}
_AVOIDANCE_KEYS = {
    "controller.avoidance.ellipse_axes": ("axes", _numbers),
    "controller.avoidance.safety_distance": ("safety_distance", _number),
}
# every key of a scenario: the tables' and those load_scenario reads
# itself; "[]" stands for the items of a list
SCENARIO_KEYS = frozenset((
    "schema_version", "dimension", "obstacles.inflation", "obstacles.boxes",
    "obstacles.boxes[].min", "obstacles.boxes[].max", "start_terminal",
    "goal_terminal", "robots", "robots.count", "planner.variance_weight",
    "time_limit", "goal_radius")).union(
        _RRT_KEYS, _TRAJECTORY_KEYS, _MPC_KEYS, _AVOIDANCE_KEYS)
# the objects that hold keys, outside lists; "" is the top level
_SECTIONS = sorted({""} | {key[:i] for key in SCENARIO_KEYS
                           for i, c in enumerate(key)
                           if c == "." and "[" not in key[:i]})
_SCENARIO_NAMES = SCENARIO_KEYS.union(_SECTIONS)
# every key of a tube document, "config" holding the trajectory settings
TUBE_KEYS = frozenset((
    "schema_version", "kind", "config", "start_vertices", "goal_vertices",
    "pairing", "waypoints", "basis_x", "basis_b")).union(
        f"config.{field}" for field, _ in _TRAJECTORY_KEYS.values())
_ABSENT = object()


def _get(doc, path, default=_ABSENT):
    """The value at a dotted path, or default when its key is absent (the
    sections on the way are objects: load_scenario checks them first)."""
    *sections, key = path.split(".")
    for section in sections:
        doc = doc.get(section, {})
    return doc.get(key, default)


def _known_keys(obj: dict, name: str, path: str, known) -> None:
    """Reject the first key of the object at path (name: path without
    list indices) whose dotted name is not in known.  A key that holds a
    dot is never known: it would pass for a nested key."""
    for key in obj:
        if "." in key or (f"{name}.{key}" if name else key) not in known:
            raise ValidationError(
                f"{f'{path}.{key}' if path else key}: unknown key")


def _settings(cls, doc, table, **defaults):
    """A cls from the keys of table that doc holds, over defaults (an
    absent key keeps its default here, else the class's own).  A failed
    check, whose message begins with its field, becomes a ValidationError
    that names the field's key instead."""
    values = dict(defaults)
    for path, (field, parse) in table.items():
        val = _get(doc, path)
        if val is not _ABSENT:
            values[field] = parse(val, path)
    try:
        return cls(**values)
    except ValueError as err:
        field, _, rule = str(err).partition(" ")
        keys = {field: path for path, (field, _) in table.items()}
        raise ValidationError(f"{keys.get(field, field)} {rule}") from err


@dataclass
class Scenario:
    """A fully materialized planning + simulation problem."""

    dim: int
    obstacles: ObstacleSet
    start_terminal: Terminal
    goal_terminal: Terminal
    robot_starts: np.ndarray
    variance_weight: float
    rrt: RrtConfig
    traj: TrajectoryConfig
    mpc: MpcConfig
    avoidance: AvoidanceModel
    time_limit: float | None
    goal_radius: float


def load_scenario(path) -> Scenario:
    """Parse, validate, and materialize a scenario file."""
    doc = _read_document(path, SCHEMA_VERSION)
    for section in _SECTIONS:     # a section comes before its subsections
        obj = _get(doc, section, {}) if section else doc
        if isinstance(obj, dict):
            _known_keys(obj, section, section, _SCENARIO_NAMES)
        elif section != "robots":    # robots may also be a list of points
            raise ValidationError(f"{section}: expected an object")
    dim = _integer(_get(doc, "dimension", 2), "dimension")
    if dim not in (2, 3):
        raise ValidationError("dimension must be 2 or 3")

    inflation = _number(_get(doc, "obstacles.inflation", 0.0),
                        "obstacles.inflation")
    if inflation < 0:
        raise ValidationError("obstacles.inflation must be nonnegative")
    boxes = []
    raw_boxes = _get(doc, "obstacles.boxes", [])
    if not isinstance(raw_boxes, list):
        raise ValidationError("obstacles.boxes: expected a list")
    for i, box in enumerate(raw_boxes):
        if not isinstance(box, dict) or "min" not in box or "max" not in box:
            raise ValidationError(
                f"obstacles.boxes[{i}]: expected an object with min and max")
        _known_keys(box, "obstacles.boxes[]", f"obstacles.boxes[{i}]",
                    _SCENARIO_NAMES)
        lo = _points([box["min"]], f"obstacles.boxes[{i}].min", dim)[0]
        hi = _points([box["max"]], f"obstacles.boxes[{i}].max", dim)[0]
        if np.any(hi <= lo):
            raise ValidationError(
                f"obstacles.boxes[{i}]: min must be strictly below max")
        boxes.append((lo, hi))
    obstacles = ObstacleSet(tuple(boxes), inflation)

    for key in ("start_terminal", "goal_terminal"):
        if key not in doc:
            raise ValidationError(f"{key} is required")
    try:
        start_terminal = Terminal(_points(doc["start_terminal"],
                                          "start_terminal", dim))
        goal_terminal = Terminal(_points(doc["goal_terminal"],
                                         "goal_terminal", dim))
    except ValueError as err:
        raise ValidationError(f"terminal: {err}") from err
    if start_terminal.count != goal_terminal.count:
        raise ValidationError("terminals must have equal vertex counts")
    if hull_distance(start_terminal.vertices,
                     goal_terminal.vertices) <= HULL_TOL:
        raise ValidationError("start and goal terminals are not disjoint")

    robots_doc = doc.get("robots", [])
    if isinstance(robots_doc, dict):
        count = _integer(robots_doc.get("count"), "robots.count")
        if count < 0:
            raise ValidationError("robots.count must be nonnegative")
        robot_starts = equispaced_points(count, start_terminal) \
            if count else np.zeros((0, dim))
    else:
        robot_starts = (_points(robots_doc, "robots", dim)
                        if robots_doc else np.zeros((0, dim)))
    for i, p in enumerate(robot_starts):
        try:
            barycentric_weights(p, start_terminal)
        except PointOutsideHull as err:
            raise ValidationError(
                f"robots[{i}] lies outside the start terminal: {err}") from err
    for i in range(len(robot_starts)):
        for j in range(i + 1, len(robot_starts)):
            if np.linalg.norm(robot_starts[i] - robot_starts[j]) < 1e-9:
                raise ValidationError(f"robots[{i}] and robots[{j}] coincide")

    variance_weight = _number(_get(doc, "planner.variance_weight", 1.0),
                              "planner.variance_weight")
    if variance_weight < 0:
        raise ValidationError("planner.variance_weight must be nonnegative")
    rrt = _settings(RrtConfig, doc, _RRT_KEYS)
    traj = _settings(TrajectoryConfig, doc, _TRAJECTORY_KEYS)
    mpc = _settings(MpcConfig, doc, _MPC_KEYS)
    # the one default that depends on the dimension
    avoidance = _settings(AvoidanceModel, doc, _AVOIDANCE_KEYS,
                          axes=np.full(dim, 0.5))
    if avoidance.axes.shape != (dim,):
        raise ValidationError(
            f"controller.avoidance.ellipse_axes: expected {dim} entries")
    time_limit = _get(doc, "time_limit", None)
    if time_limit is not None:
        time_limit = _number(time_limit, "time_limit")
        if time_limit < 0:
            raise ValidationError("time_limit must be nonnegative")
    goal_radius = _number(_get(doc, "goal_radius", 0.2), "goal_radius")
    if goal_radius <= 0:
        raise ValidationError("goal_radius must be positive")

    return Scenario(dim=dim, obstacles=obstacles,
                    start_terminal=start_terminal,
                    goal_terminal=goal_terminal, robot_starts=robot_starts,
                    variance_weight=variance_weight, rrt=rrt, traj=traj,
                    mpc=mpc, avoidance=avoidance, time_limit=time_limit,
                    goal_radius=goal_radius)


def save_tube(tube: OptimalVirtualTube, path) -> None:
    """Serialize a tube to JSON with bit-faithful coefficients."""
    cfg = tube.config
    doc = {
        "schema_version": TUBE_SCHEMA_VERSION,
        "kind": "virtual-tube",
        "config": {field: getattr(cfg, field)
                   for field, _ in _TRAJECTORY_KEYS.values()},
        "start_vertices": tube.pairs.starts.vertices.tolist(),
        "goal_vertices": tube.pairs.goals.vertices.tolist(),
        "pairing": tube.pairs.pairing.tolist(),
        "waypoints": tube.waypoints.tolist(),
        "basis_x": tube.basis_x.tolist(),
        "basis_b": tube.basis_b.tolist(),
    }
    _write_json(doc, path)


def load_tube(path) -> OptimalVirtualTube:
    """Rebuild a tube from JSON through ``tube.tube_from_waypoints``: the
    knots, matrices and right-hand sides come from the stored settings
    and waypoints.

    The stored basis_b must match the rebuilt right-hand sides, and
    basis_x must satisfy A x = basis_b, both within 1e-8.
    """
    doc = _read_document(path, TUBE_SCHEMA_VERSION)
    _known_keys(doc, "", "", TUBE_KEYS)
    if isinstance(doc.get("config"), dict):
        _known_keys(doc["config"], "config", "config", TUBE_KEYS)
    if doc.get("kind") != "virtual-tube":
        raise ValidationError("kind must be 'virtual-tube'")
    bad = _non_finite_path(doc)
    if bad is not None:
        raise ValidationError(f"{bad}: number must be finite")
    try:
        cfg = TrajectoryConfig(**{
            field: parse(doc["config"][field], f"config.{field}")
            for field, parse in _TRAJECTORY_KEYS.values()})
        starts = Terminal(np.array(doc["start_vertices"], dtype=float))
        goals = Terminal(np.array(doc["goal_vertices"], dtype=float))
        pairing = [_integer(k, f"pairing[{i}]")
                   for i, k in enumerate(doc["pairing"])]
        pairs = OrderPairSet(starts, goals, np.array(pairing, dtype=int))
        waypoints = np.array(doc["waypoints"], dtype=float)
        basis_x = np.array(doc["basis_x"], dtype=float)
        basis_b = np.array(doc["basis_b"], dtype=float)
    except (KeyError, TypeError, ValueError) as err:
        raise ValidationError(f"malformed tube document: {err}") from err
    if waypoints.ndim != 3 or waypoints.shape[0] != pairs.count:
        raise ValidationError("waypoints shape mismatch")
    if pairs.dim not in (2, 3) or waypoints.shape[2] != pairs.dim:
        raise ValidationError(
            f"the vertices are {pairs.dim}-D and the waypoints "
            f"{waypoints.shape[2]}-D; both must be 2-D or 3-D")
    if waypoints.shape[1] != cfg.segments + 1:
        raise ValidationError(
            f"config.segments is {cfg.segments}, but the waypoints span "
            f"{waypoints.shape[1] - 1} segments")
    try:
        tube = tube_from_waypoints(pairs, waypoints, cfg, basis_x)
    except (ValueError, RankDeficient) as err:   # the settings are invalid
        raise ValidationError(f"tube structure: {err}") from err
    rows, cols = tube.A.shape
    if (basis_x.shape != (pairs.count, cols)
            or basis_b.shape != (pairs.count, rows)):
        raise ValidationError(
            f"basis arrays inconsistent with configuration: "
            f"A is {tube.A.shape}, basis_x is {basis_x.shape}, "
            f"basis_b is {basis_b.shape}")
    drift = float(np.abs(tube.basis_b - basis_b).max())
    if drift > _BASIS_TOL:
        raise ValidationError(
            f"basis_b differs from the right-hand sides rebuilt from the "
            f"waypoints by {drift:.3e} (tolerance {_BASIS_TOL:.0e})")
    residual = float(np.abs(tube.A @ basis_x.T - tube.basis_b.T).max())
    if residual > _BASIS_TOL:
        raise ValidationError(
            f"basis_x misses A x = basis_b by {residual:.3e} "
            f"(tolerance {_BASIS_TOL:.0e})")
    return tube


def save_log(log: SimLog, path) -> None:
    """CSV with one row per (tick, robot); inputs are empty on the final
    tick, which has no applied input."""
    d = log.dim
    axes = "xyz"[:d]
    header = (["tick", "time", "robot"]
              + [f"p{a}" for a in axes] + [f"v{a}" for a in axes]
              + [f"u{a}" for a in axes] + ["slack"])
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            T = log.states.shape[0] - 1
            for tick in range(T + 1):
                for i in range(log.robots):
                    row = [tick, repr(float(log.times[tick])), i]
                    row += [repr(float(v)) for v in log.states[tick, i, :d]]
                    row += [repr(float(v)) for v in log.states[tick, i, d:]]
                    if tick < T:
                        row += [repr(float(v)) for v in log.inputs[tick, i]]
                        row.append(repr(float(log.max_slack[tick, i])))
                    else:
                        row += [""] * (d + 1)
                    writer.writerow(row)
    except OSError as err:
        raise IoError(f"cannot write {path}: {err}") from err


def _json_value(x: float):
    return x if math.isfinite(x) else "inf"


def save_metrics(metrics: Metrics, path) -> None:
    """Metrics as JSON; infinite values serialize as the string \"inf\"."""
    doc = {
        "average_time": _json_value(metrics.average_time),
        "arrival_rate": metrics.arrival_rate,
        "average_speed": metrics.average_speed,
        "min_pairwise_distance": _json_value(metrics.min_pairwise_distance),
    }
    _write_json(doc, path)
