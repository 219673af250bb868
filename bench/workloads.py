"""The benchmark's workloads, run through ``tubeplan.cli.main`` in-process.

Each workload has a set-up step, repeated to time it, and a pass, repeated
for the measured period.  Every CLI command is one operation: it counts as
failed when it exits non-zero, when a check of its output fails, or when
it writes different bytes than an earlier run of the same command.
See README.md for why each workload exists.
"""

import contextlib
import hashlib
import io
import json
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
from layers import TARGETS
from tracing import install

SCENARIOS = ("triangle_2d", "corridor_2d", "tetra_3d")
MEMBER_COUNT = 1000        # interior members per tube, beyond the q vertices
MEMBER_SAMPLES = 50
VERIFY_COUNT = 20
VERIFY_DIRECTIONS = 100


def derived_seed(seed: int) -> int:
    """The benchmark seed as a non-negative NumPy seed."""
    return seed % 2 ** 31


@dataclass
class CliResult:
    code: object
    seconds: float
    stdout: str
    stderr: str

    def problems(self) -> list:
        if self.code == 0:
            return []
        last = (self.stderr.strip().splitlines() or [""])[-1]
        return [f"exit code {self.code}: {last}"]


class Session:
    """Runs CLI commands and keeps the ledger of operations.

    When ``tracer`` is set, the trace wrappers are installed just before a
    command's timer starts and removed just after it stops.
    """

    def __init__(self, cli_main):
        self.cli_main = cli_main
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._digests = {}
        self.unwrapped = set()    # trace targets missing from the package

    def run(self, argv) -> CliResult:
        installation = None
        if self.tracer is not None:
            installation = install(self.tracer, TARGETS)
            self.unwrapped.update(installation.missing)
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = self.cli_main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # a traceback is a failed operation
                    code = "exception"
                    traceback.print_exc()
                seconds = time.perf_counter() - start
        finally:
            if installation is not None:
                installation.restore()
        return CliResult(code, seconds, out.getvalue(), err.getvalue())

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)

    def repeatable(self, *paths) -> list:
        """Problems if a file differs from its first version this run."""
        problems = []
        for path in paths:
            digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            if self._digests.setdefault(str(path), digest) != digest:
                problems.append(f"{path} differs from an earlier run of "
                                "the same command")
        return problems


def _fresh(*paths) -> None:
    """Remove earlier outputs so a command that writes nothing is caught."""
    for path in paths:
        Path(path).unlink(missing_ok=True)


@dataclass
class PassResult:
    """What one pass measured.

    ``command_s`` and ``work_per_s`` are the end-to-end metrics every
    workload reports; ``details`` breaks them down under the names the
    README uses for this workload.
    """

    command_s: float
    work_per_s: float
    details: dict         # name -> (value, unit)


class Workload:
    def __init__(self, root: Path, work: Path, seed: int, session: Session):
        self.root = root
        self.work = work
        self.seed = derived_seed(seed)
        self.session = session

    def write_scenario(self, name: str) -> Path:
        """A shipped scenario with the benchmark seed as its rng_seed."""
        doc = json.loads((self.root / "scenarios" / f"{name}.json")
                         .read_text(encoding="utf-8"))
        doc["rng_seed"] = self.seed
        path = self.work / f"{name}.json"
        path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        return path

    def plan(self, name: str, label: str) -> CliResult:
        """``tubeplan plan`` with the tube checks and the repeat check."""
        scenario = self.work / f"{name}.json"
        tube = self.tube_path(name)
        _fresh(tube)
        result = self.session.run(["plan", "--scenario", str(scenario),
                                   "--out", str(tube)])
        problems = result.problems()
        if not problems:
            problems = (checks.tube_problems(tube)
                        + self.session.repeatable(tube))
        self.session.record(f"{label} {name}", problems)
        return result

    def tube_path(self, name: str) -> Path:
        return self.work / f"{name}.tube.json"

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError


class PlanWorkload(Workload):
    """``tubeplan plan`` on all three scenarios per pass."""

    def setup(self) -> None:
        for name in SCENARIOS:
            self.write_scenario(name)

    def run_pass(self) -> PassResult:
        total = sum(self.plan(name, "plan").seconds for name in SCENARIOS)
        return PassResult(total, len(SCENARIOS) / total,
                          {"plan_s": (total, "s")})


class SwarmWorkload(Workload):
    """``tubeplan simulate`` of the 11-robot corridor on a saved tube."""

    def setup(self) -> None:
        self.write_scenario("corridor_2d")
        self.plan("corridor_2d", "setup plan")
        doc = json.loads((self.work / "corridor_2d.json").read_text())
        self.safety = doc["controller"]["avoidance"]["safety_distance"]

    def run_pass(self) -> PassResult:
        log = self.work / "corridor_2d.log.csv"
        metrics = self.work / "corridor_2d.metrics.json"
        _fresh(log, metrics)
        result = self.session.run(
            ["simulate", "--scenario", str(self.work / "corridor_2d.json"),
             "--tube", str(self.tube_path("corridor_2d")), "--out", str(log),
             "--metrics", str(metrics), "--threads", "1"])
        problems = result.problems()
        robot_steps = 0
        if not problems:
            problems, ticks, robots = checks.simulation_problems(
                log, metrics, self.safety)
            problems += self.session.repeatable(log, metrics)
            robot_steps = ticks * robots
        self.session.record("simulate corridor_2d", problems)
        rate = robot_steps / result.seconds
        return PassResult(result.seconds, rate,
                          {"simulate_s": (result.seconds, "s"),
                           "robot_steps_per_s": (rate, "1/s")})


class MembersWorkload(Workload):
    """``tubeplan members`` then ``tubeplan verify`` on each saved tube."""

    def setup(self) -> None:
        self.vertices = {}
        for name in SCENARIOS:
            self.write_scenario(name)
            self.plan(name, "setup plan")
            doc = json.loads((self.work / f"{name}.json").read_text())
            self.vertices[name] = len(doc["start_terminal"])

    def run_pass(self) -> PassResult:
        members_s = verify_s = 0.0
        members = audited = 0
        seed = str(self.seed)
        for name in SCENARIOS:
            tube = str(self.tube_path(name))
            q = self.vertices[name]
            out = self.work / f"{name}.members.csv"
            _fresh(out)
            result = self.session.run(
                ["members", "--tube", tube, "--out", str(out),
                 "--count", str(MEMBER_COUNT),
                 "--samples", str(MEMBER_SAMPLES), "--seed-override", seed])
            problems = result.problems()
            if not problems:
                problems = (checks.members_problems(
                    out, (MEMBER_COUNT + q) * MEMBER_SAMPLES)
                    + self.session.repeatable(out))
            self.session.record(f"members {name}", problems)
            members_s += result.seconds
            members += MEMBER_COUNT + q

            result = self.session.run(
                ["verify", "--tube", tube, "--count", str(VERIFY_COUNT),
                 "--samples", str(VERIFY_DIRECTIONS), "--seed-override", seed])
            problems = (result.problems()
                        + checks.verify_problems(result.stdout,
                                                 VERIFY_COUNT + q))
            self.session.record(f"verify {name}", problems)
            verify_s += result.seconds
            audited += VERIFY_COUNT + q
        rate = members / members_s
        return PassResult(members_s + verify_s, rate,
                          {"members_per_s": (rate, "1/s"),
                           "verify_member_ms": (1e3 * verify_s / audited,
                                                "ms")})


WORKLOADS = {
    "plan": PlanWorkload,
    "swarm_corridor": SwarmWorkload,
    "members": MembersWorkload,
}
