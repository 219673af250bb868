"""Tests of the benchmark's output checks, on a tube planned here."""

import json
import shutil
import sys
from pathlib import Path

import pytest

import checks
from tubeplan.cli import main as cli_main
from workloads import Session

SCENARIO = Path(__file__).resolve().parents[2] / "scenarios" / "triangle_2d.json"


def _bindings():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and name.split(".")[0] == "tubeplan"}


@pytest.fixture(scope="module")
def planned(tmp_path_factory):
    """A tube planned by a traced ``tubeplan plan``, and that session."""
    from tracing import Tracer

    work = tmp_path_factory.mktemp("tube")
    tube = work / "triangle.tube.json"
    session = Session(cli_main)
    session.tracer = Tracer()
    before = _bindings()
    result = session.run(["plan", "--scenario", str(SCENARIO),
                          "--out", str(tube)])
    assert result.code == 0, result.stderr
    assert _bindings() == before
    return tube, session.tracer


def _edited(src: Path, dst: Path, edit) -> Path:
    doc = json.loads(src.read_text())
    edit(doc)
    dst.write_text(json.dumps(doc))
    return dst


def test_traced_plan_records_layers(planned):
    _, tracer = planned
    assert tracer.spans["pathfinder.find_path"].calls == 3
    assert tracer.spans["trajopt.kkt"].calls >= 3
    assert tracer.counters["pathfinder.segment_free_calls"] > 0


def test_planned_tube_passes(planned):
    tube, _ = planned
    assert checks.tube_problems(tube) == []


def test_perturbed_basis_b_fails(planned, tmp_path):
    def nudge(doc):
        doc["basis_b"][1][0] += 1e-6
    bad = _edited(planned[0], tmp_path / "bad.json", nudge)
    problems = checks.tube_problems(bad)
    assert len(problems) == 1 and "basis_b" in problems[0]


def test_nan_in_tube_fails(planned, tmp_path):
    def poison(doc):
        doc["basis_x"][0][3] = float("nan")
    bad = _edited(planned[0], tmp_path / "nan.json", poison)
    assert "NaN" in bad.read_text()
    problems = checks.tube_problems(bad)
    assert len(problems) == 1 and "non-finite" in problems[0]


def test_unloadable_tube_fails(planned, tmp_path):
    bad = _edited(planned[0], tmp_path / "v2.json",
                  lambda doc: doc.update(schema_version=99))
    assert "load_tube failed" in checks.tube_problems(bad)[0]
    assert checks.tube_problems(tmp_path / "absent.json")


def test_repeat_check_flags_changed_bytes(planned, tmp_path):
    session = Session(cli_main)
    copy = tmp_path / "copy.json"
    shutil.copy(planned[0], copy)
    assert session.repeatable(copy) == []
    assert session.repeatable(copy) == []
    copy.write_text(copy.read_text() + " ")
    assert session.repeatable(copy)


def test_members_row_count(tmp_path):
    csv_path = tmp_path / "m.csv"
    csv_path.write_text("member,t\n" + "0,0.0\n" * 6)
    assert checks.members_problems(csv_path, 6) == []
    assert checks.members_problems(csv_path, 5)


def test_verify_output():
    good = ("member 0: PASS  coeff_err=1.2e-12  obj_rel_err=0\n"
            "member 1: PASS  coeff_err=3.0e-09  obj_rel_err=0\n")
    assert checks.verify_problems(good, 2) == []
    assert checks.verify_problems(good, 3)
    assert checks.verify_problems(good.replace("3.0e-09", "2.0e-06"), 2)
    assert checks.verify_problems(good.replace("1: PASS", "1: FAIL"), 2)
    assert checks.verify_problems(good.replace("1.2e-12", "nan"), 2)


def _write_sim(tmp_path, arrival, min_dist, cell):
    log = tmp_path / "log.csv"
    log.write_text("tick,time,robot,px,vx,ux,slack\n"
                   "0,0.0,0,0.0,0.0,1.0,0.0\n"
                   "0,0.0,1,1.0,0.0,1.0,0.0\n"
                   f"1,0.1,0,0.1,{cell},,\n"
                   "1,0.1,1,1.1,1.0,,\n")
    metrics = tmp_path / "metrics.json"
    metrics.write_text(json.dumps({"arrival_rate": arrival,
                                   "min_pairwise_distance": min_dist}))
    return log, metrics


def test_simulation_checks(tmp_path):
    problems, ticks, robots = checks.simulation_problems(
        *_write_sim(tmp_path, 1.0, 1.2, "1.0"), 1.0)
    assert (problems, ticks, robots) == ([], 1, 2)
    assert checks.simulation_problems(
        *_write_sim(tmp_path, 1.0, 1.2, "nan"), 1.0)[0]
    assert checks.simulation_problems(
        *_write_sim(tmp_path, 0.9, 1.2, "1.0"), 1.0)[0]
    assert checks.simulation_problems(
        *_write_sim(tmp_path, 1.0, 0.8, "1.0"), 1.0)[0]
    assert checks.simulation_problems(
        *_write_sim(tmp_path, 1.0, "inf", "1.0"), 1.0)[0]
