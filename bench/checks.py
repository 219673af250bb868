"""Output checks.  Each returns a list of problems; empty means the output
is correct.  They run outside the timed region and never with the trace
wrappers installed.
"""

import csv
import json
import math
import re

import numpy as np

# ||A basis_x^T - basis_b^T||_inf bound for a saved tube
EQ_TOL = 1e-8
# acceptance criterion 1: combined vs directly solved member coefficients
COEFF_TOL = 1e-6

_MEMBER_LINE = re.compile(r"^member (\d+): (PASS|FAIL)\s+coeff_err=(\S+)")


def _non_finite(value, where="") -> list:
    """Paths of every non-finite number inside a parsed JSON document."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _non_finite(v, f"{where}.{k}")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value)
                for p in _non_finite(v, f"{where}[{i}]")]
    if isinstance(value, float) and not math.isfinite(value):
        return [where or "."]
    return []


def tube_problems(path) -> list:
    """The tube loads back, holds only finite numbers, and its basis
    solutions satisfy the equality system reassembled from the file."""
    from tubeplan.scenario_io import load_tube

    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as err:
        return [f"{path}: unreadable: {err}"]
    bad = _non_finite(doc)
    if bad:
        return [f"{path}: non-finite values at {', '.join(bad[:3])}"]
    try:
        tube = load_tube(path)
    except Exception as err:  # any load failure is a failed check
        return [f"{path}: load_tube failed: {type(err).__name__}: {err}"]
    residual = float(np.abs(tube.A @ tube.basis_x.T - tube.basis_b.T).max())
    if not residual <= EQ_TOL:
        return [f"{path}: |A basis_x - basis_b| = {residual:.3e} > {EQ_TOL}"]
    return []


def simulation_problems(log_path, metrics_path, safety_distance: float):
    """(problems, ticks, robots) for one simulate run: every robot arrives,
    no pair comes closer than the safety distance, no NaN in the log."""
    problems = []
    try:
        with open(metrics_path, encoding="utf-8") as fh:
            metrics = json.load(fh)
    except (OSError, ValueError) as err:
        return [f"{metrics_path}: unreadable: {err}"], 0, 0
    if metrics.get("arrival_rate") != 1:
        problems.append(f"arrival_rate {metrics.get('arrival_rate')} != 1")
    min_dist = metrics.get("min_pairwise_distance")
    if not isinstance(min_dist, (int, float)) or not min_dist >= safety_distance:
        problems.append(f"min_pairwise_distance {min_dist} < safety distance "
                        f"{safety_distance}")
    ticks = robots = 0
    try:
        with open(log_path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            next(reader)
            for row in reader:
                ticks = max(ticks, int(row[0]))
                robots = max(robots, int(row[2]) + 1)
                if any(cell and not math.isfinite(float(cell))
                       for cell in row[1:]):
                    problems.append(f"{log_path}: non-finite value at tick "
                                    f"{row[0]}, robot {row[2]}")
                    break
    except (OSError, ValueError, IndexError, StopIteration) as err:
        problems.append(f"{log_path}: unreadable: {err}")
    if ticks == 0 or robots == 0:
        problems.append(f"{log_path}: empty log")
    return problems, ticks, robots


def members_problems(csv_path, expected_rows: int) -> list:
    """The member CSV has (count + q) x samples data rows."""
    try:
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
    except OSError as err:
        return [f"{csv_path}: unreadable: {err}"]
    if rows != expected_rows:
        return [f"{csv_path}: {rows} rows, expected {expected_rows}"]
    return []


def verify_problems(stdout: str, expected_members: int) -> list:
    """Every audited member printed by ``tubeplan verify`` passed and its
    coefficient error is within criterion 1's bound."""
    errors = []
    for line in stdout.splitlines():
        match = _MEMBER_LINE.match(line)
        if match:
            errors.append((int(match.group(1)), match.group(2),
                           float(match.group(3))))
    problems = []
    if len(errors) != expected_members:
        problems.append(f"verify audited {len(errors)} members, expected "
                        f"{expected_members}")
    for idx, label, err in errors:
        if label != "PASS" or not err <= COEFF_TOL:
            problems.append(f"verify member {idx}: {label}, coeff_err {err}")
    return problems
