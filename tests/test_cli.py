import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import tubeplan
from tubeplan.cli import main
from tubeplan.scenario_io import load_tube
from tubeplan.trajopt import evaluate
from tubeplan.tube import member_trajectory

TRIANGLE = "scenarios/triangle_2d.json"


@pytest.fixture(scope="module")
def triangle_tube(tmp_path_factory):
    """Tube planned once from the triangle scenario, shared read-only."""
    path = tmp_path_factory.mktemp("cli") / "triangle.json"
    assert main(["plan", "--scenario", TRIANGLE, "--out", str(path)]) == 0
    return path


def test_plan_reports_basis_solves(tmp_path, capsys):
    out = tmp_path / "tube.json"
    code = main(["plan", "--scenario", TRIANGLE, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "3 basis members" in captured.out
    assert "3 QP solves" in captured.out
    assert out.exists()


def test_members_writes_sample_lattice(triangle_tube, tmp_path, capsys):
    out = tmp_path / "members.csv"
    code = main(["members", "--tube", str(triangle_tube), "--out", str(out),
                 "--count", "4", "--samples", "20"])
    assert code == 0
    assert "wrote 7 members" in capsys.readouterr().out
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["member", "t", "px", "py", "theta0", "theta1",
                       "theta2"]
    # 3 vertex members plus 4 interior ones, 20 samples each
    assert len(rows) == 1 + 7 * 20
    weights = [float(v) for v in rows[1][4:]]
    assert weights == [1.0, 0.0, 0.0]


def test_members_csv_matches_per_sample_evaluation(triangle_tube, tmp_path,
                                                   capsys):
    out = tmp_path / "members.csv"
    code = main(["members", "--tube", str(triangle_tube), "--out", str(out),
                 "--count", "6", "--samples", "9", "--seed-override", "7"])
    assert code == 0
    capsys.readouterr()
    raw = out.read_bytes()
    # csv.writer framing: CRLF after every line, the header first
    lines = raw.decode("utf-8").split("\r\n")
    assert lines.pop() == ""
    assert "\n" not in "".join(lines)
    assert lines[0] == "member,t,px,py,theta0,theta1,theta2"
    assert len(lines) == 1 + 9 * 9
    tube = load_tube(triangle_tube)
    ts = np.linspace(0.0, 1.0, 9)
    for i, line in enumerate(lines[1:]):
        values = line.split(",")
        assert int(values[0]) == i // 9
        t = float(values[1])
        assert t == ts[i % 9]
        theta = [float(v) for v in values[4:]]
        ref = evaluate(member_trajectory(tube, theta), t)
        assert np.abs(np.array(values[2:4], dtype=float) - ref).max() <= (
            1e-12 * max(1.0, float(np.abs(ref).max())))


def test_verify_passes_on_planned_tube(triangle_tube, capsys):
    outputs = []
    for _ in range(2):
        code = main(["verify", "--tube", str(triangle_tube), "--count", "3"])
        outputs.append(capsys.readouterr())
        assert code == 0
    captured = outputs[0]
    assert "all members verified" in captured.out
    assert "FAIL" not in captured.out
    # no wall-clock line: a repeat run prints the same bytes
    assert "benchmark:" not in captured.out
    assert outputs[1] == captured


def test_verify_flags_tampered_tube(triangle_tube, tmp_path, capsys):
    # a step along the null space of A keeps A x = b, so the tube loads,
    # but the first basis solution is no longer the optimum
    doc = json.loads(triangle_tube.read_text(encoding="utf-8"))
    null_dir = np.linalg.svd(load_tube(triangle_tube).A)[2][-1]
    doc["basis_x"][0] = (np.array(doc["basis_x"][0])
                         + 0.05 * null_dir).tolist()
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["verify", "--tube", str(tampered), "--count", "0"])
    captured = capsys.readouterr()
    assert code == 4
    assert "FAIL" in captured.out
    assert "failed verification" in captured.err


@pytest.mark.parametrize("field, value", [
    ("basis_x", 0.05), ("basis_x", float("nan")), ("basis_b", float("inf")),
    ("waypoints", 0.5), ("config.continuity", -1), ("config.continuity", 5),
    ("config.corridor_samples", 0), ("config.corridor_samples", -2),
    ("config.cost_derivative", 9), ("config.corridor_mode", "loose"),
    ("dimension", 3), ("dimension", "2"), ("dimension", 2.7),
    ("chord_total", 6.0), ("knots", [0.0, 1.0]), ("bogus", 1),
    ("config.bogus", 1), ("schema_version", 1), ("schema_version", 2),
    ("schema_version", 3), ("config.segments", 101),
    ("config.corridor_samples", 21)])
def test_tampered_tube_exits_2(triangle_tube, tmp_path, capsys, field,
                               value):
    # array fields get value added to their first number, others are set;
    # a key the document does not hold is added
    doc = json.loads(triangle_tube.read_text(encoding="utf-8"))
    section, _, key = field.rpartition(".")
    owner = doc[section] if section else doc
    added = key not in owner
    if isinstance(owner.get(key), list):
        row = owner[key][0]
        while isinstance(row[0], list):
            row = row[0]
        row[0] += value
    else:
        owner[key] = value
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc), encoding="utf-8")
    for command in ("verify", "members"):
        argv = [command, "--tube", str(tampered), "--count", "0"]
        if command == "members":
            argv += ["--out", str(tmp_path / "members.csv")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if field == "schema_version":
            # global-time (version 1) tubes, version 2 tubes, which stored
            # derived values, and version 3 tubes, which stored a corridor
            # mode, are rejected, never converted
            assert f"schema_version {value} unsupported (expected 4)" in err
        elif added:
            # a stale derived value such as chord_total cannot disagree
            # with the waypoints, nor can the corridor mode switch the
            # corridor off: neither is read at all
            assert f"{field}: unknown key" in err


@pytest.mark.parametrize("command, flag, value", [
    ("members", "--count", "-1"), ("members", "--samples", "0"),
    ("verify", "--count", "-1"), ("verify", "--samples", "0"),
    ("verify", "--samples", "-3"), ("members", "--seed-override", "-1"),
    ("verify", "--seed-override", "-2")])
def test_bad_member_arguments_exit_2(triangle_tube, tmp_path, capsys,
                                     command, flag, value):
    argv = [command, "--tube", str(triangle_tube), flag, value]
    if command == "members":
        argv += ["--out", str(tmp_path / "members.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} must be") and err.count("\n") == 1
    assert not (tmp_path / "members.csv").exists()


def test_simulate_runs_are_byte_identical(triangle_tube, tmp_path, capsys):
    paths = [(tmp_path / f"log{i}.csv", tmp_path / f"metrics{i}.json")
             for i in range(2)]
    # the only accepted --threads value is the default
    for (log, metrics), threads in zip(paths, ([], ["--threads", "1"])):
        code = main(["simulate", "--scenario", TRIANGLE,
                     "--tube", str(triangle_tube), "--out", str(log),
                     "--metrics", str(metrics)] + threads)
        assert code == 0
        assert "arrival_rate=1.000" in capsys.readouterr().out
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()
    doc = json.loads(paths[0][1].read_text(encoding="utf-8"))
    assert doc["arrival_rate"] == 1.0


@pytest.mark.parametrize("threads", ["2", "0", "4"])
def test_simulate_threads_other_than_1_exit_2(triangle_tube, tmp_path,
                                              capsys, threads):
    log = tmp_path / "log.csv"
    assert main(["simulate", "--scenario", TRIANGLE,
                 "--tube", str(triangle_tube), "--out", str(log),
                 "--threads", threads]) == 2
    assert "argument --threads: invalid choice" in capsys.readouterr().err
    assert not log.exists()


def test_missing_file_exits_5(tmp_path, capsys):
    code = main(["plan", "--scenario", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "tube.json")])
    assert code == 5
    assert "error:" in capsys.readouterr().err


def test_invalid_documents_exit_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"schema_version": 1,', encoding="utf-8")
    assert main(["plan", "--scenario", str(broken),
                 "--out", str(tmp_path / "t.json")]) == 2
    assert "invalid JSON" in capsys.readouterr().err
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps({"schema_version": 99}), encoding="utf-8")
    assert main(["verify", "--tube", str(stale)]) == 2
    assert "unsupported" in capsys.readouterr().err
    # a scenario that still sets the corridor mode names the key
    moded = json.loads(open(TRIANGLE, encoding="utf-8").read())
    moded["planner"]["corridor"]["mode"] = "strict"
    stale.write_text(json.dumps(moded), encoding="utf-8")
    assert main(["plan", "--scenario", str(stale),
                 "--out", str(tmp_path / "t.json")]) == 2
    assert capsys.readouterr().err == (
        "error: planner.corridor.mode: unknown key\n")
    assert not (tmp_path / "t.json").exists()


def test_blocked_scenario_exits_3(tmp_path, capsys):
    doc = {
        "schema_version": 1,
        "rng_seed": 3,
        "start_terminal": [[0.0, 0.0], [0.0, 1.0]],
        "goal_terminal": [[5.0, 0.0], [5.0, 1.0]],
        # four overlapping walls seal the start terminal in
        "obstacles": {"boxes": [{"min": [-3.0, -3.0], "max": [-2.0, 4.0]},
                                {"min": [2.0, -3.0], "max": [3.0, 4.0]},
                                {"min": [-3.0, -3.0], "max": [3.0, -2.0]},
                                {"min": [-3.0, 3.0], "max": [3.0, 4.0]}]},
        "planner": {"rrt": {"max_iterations": 200, "step_size": 1.0}},
    }
    sealed = tmp_path / "sealed.json"
    sealed.write_text(json.dumps(doc), encoding="utf-8")
    code = main(["plan", "--scenario", str(sealed),
                 "--out", str(tmp_path / "t.json")])
    assert code == 3
    assert "error: no path after 200 iterations" in capsys.readouterr().err


def _triangle_with(tmp_path, section, key, value):
    """The triangle scenario with one controller or top-level key set."""
    doc = json.loads(open(TRIANGLE, encoding="utf-8").read())
    owner = doc
    for name in section:
        owner = owner[name]
    owner[key] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# each of these ended in a NumPy traceback or an overflow warning before
# simulate refused them
@pytest.mark.parametrize("section, key, value, message", [
    (["controller"], "timestep", 1e-300, "2e+301 ticks, more than 1000000"),
    ([], "time_limit", 1e300, "1e+301 ticks, more than 1000000"),
    (["controller"], "reference_speed", 1e300,
     "lower controller.reference_speed")])
def test_extreme_run_settings_exit_2(triangle_tube, tmp_path, capsys, section,
                                     key, value, message):
    scenario = _triangle_with(tmp_path, section, key, value)
    code = main(["simulate", "--scenario", str(scenario),
                 "--tube", str(triangle_tube)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_tiny_ellipse_axes_simulate_without_overflow(triangle_tube, tmp_path,
                                                     capsys):
    scenario = _triangle_with(tmp_path, ["controller", "avoidance"],
                              "ellipse_axes", [1e-300, 1e-300])
    log, metrics = tmp_path / "log.csv", tmp_path / "metrics.json"
    code = main(["simulate", "--scenario", str(scenario), "--tube",
                 str(triangle_tube), "--out", str(log),
                 "--metrics", str(metrics)])
    assert code == 0, capsys.readouterr().err
    text = log.read_text(encoding="utf-8")
    assert "nan" not in text and "inf" not in text
    assert json.loads(metrics.read_text(encoding="utf-8"))[
        "arrival_rate"] == 1.0


# imports tubeplan.cli, runs every command on the triangle scenario and
# prints the SciPy modules that are loaded after all of them
_IMPORT_PROBE = """
import os, sys
from tubeplan.cli import main
scenario, out = sys.argv[1:]
tube = os.path.join(out, "tube.json")
for argv in (["plan", "--scenario", scenario, "--out", tube],
             ["simulate", "--scenario", scenario, "--tube", tube,
              "--out", os.path.join(out, "log.csv"),
              "--metrics", os.path.join(out, "metrics.json")],
             ["members", "--tube", tube, "--count", "3",
              "--out", os.path.join(out, "members.csv")],
             ["verify", "--tube", tube, "--count", "1"]):
    assert main(argv) == 0, argv
print(sorted(name for name in sys.modules
             if name.split(".")[0] == "scipy"))
"""


def test_commands_leave_scipy_unloaded(tmp_path):
    # a fresh interpreter: this test process has imported SciPy at large
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(tubeplan.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, os.path.abspath(TRIANGLE),
         str(tmp_path)], env=env, capture_output=True, text=True,
        timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"
