"""Command-line entry points.

Exit codes: 0 success, 2 invalid scenario, document or argument,
3 planning or simulation failure, 4 verification failure, 5 filesystem
error.  Output files contain no timestamps, so repeated runs are
byte-identical.
"""

import argparse
import sys

import numpy as np

from .geometry import (DegenerateTerminal, PointOutsideHull, SizeMismatch,
                       TooManyVertices, assign_vertices, equispaced_weights)
from .knots import LengthMismatch, ZeroChord, ZeroLength
from .mpcsim import (CoincidentCenters, StartOutsideTerminal,
                     UnrunnableSettings, compute_metrics, simulate)
from .pathfinder import (HomotopyCheckFailed, InvalidEndpoints, NoPathFound,
                         TooFewSegments)
from .scenario_io import (IoError, ParseError, Scenario, ValidationError,
                          VersionError, load_scenario, load_tube, save_log,
                          save_metrics, save_tube)
from .trajopt import (Infeasible, MaxIterations, OutOfDomain, RankDeficient,
                      evaluate_grid)
from .tube import (InvalidWeights, build_tube, check_weights,
                   verify_member_optimality)

_VALIDATION_ERRORS = (ParseError, ValidationError, VersionError,
                      DegenerateTerminal, PointOutsideHull, SizeMismatch,
                      TooManyVertices, InvalidWeights, InvalidEndpoints,
                      LengthMismatch, ZeroLength, UnrunnableSettings)
_PLANNING_ERRORS = (NoPathFound, HomotopyCheckFailed, TooFewSegments,
                    RankDeficient, Infeasible, MaxIterations, ZeroChord,
                    CoincidentCenters, StartOutsideTerminal, OutOfDomain)


def plan_tube(scenario: Scenario):
    """Pair terminal vertices, plan homotopic paths, solve the basis QPs."""
    pairs = assign_vertices(scenario.start_terminal, scenario.goal_terminal,
                            scenario.variance_weight)
    return build_tube(pairs, scenario.obstacles, scenario.rrt, scenario.traj)


def _member_weights(count: int, q: int, seed) -> np.ndarray:
    """Vertex members first, then lattice or random interior members.

    Lattice weights are pulled halfway toward the centroid so the extra
    members are strictly interior rather than repeating the vertices.
    """
    if count < 0:
        raise ValidationError(f"--count must be nonnegative, got {count}")
    if seed is not None and seed < 0:
        raise ValidationError(
            f"--seed-override must be nonnegative, got {seed}")
    if seed is None:
        extra = (0.5 * equispaced_weights(count, q) + 0.5 / q
                 if count else np.zeros((0, q)))
    else:
        rng = np.random.default_rng(seed)
        extra = rng.dirichlet(np.ones(q), size=count)
    return np.vstack([np.eye(q), extra]) if count else np.eye(q)


def _check_samples(samples: int) -> None:
    if samples < 1:
        raise ValidationError(f"--samples must be positive, got {samples}")


def cmd_plan(args) -> int:
    scenario = load_scenario(args.scenario)
    tube = plan_tube(scenario)
    save_tube(tube, args.out)
    print(f"planned tube: {tube.count} basis members, "
          f"{tube.knots.segments} segments, dimension {tube.dim}, "
          f"{tube.count} QP solves")
    print(f"wrote {args.out}")
    return 0


def cmd_members(args) -> int:
    _check_samples(args.samples)
    tube = load_tube(args.tube)
    thetas = _member_weights(args.count, tube.count, args.seed_override)
    ts = np.linspace(0.0, 1.0, args.samples)
    # one basis grid serves every member: points[i] = theta_i @ grid
    grid = evaluate_grid(tube.basis_x, tube.knots, tube.config.order, ts)
    weights = np.array([check_weights(theta, tube.count) for theta in thetas])
    points = np.tensordot(weights, grid, 1)     # (members, samples, d)
    axes = "xyz"[:tube.dim]
    header = (["member", "t"] + [f"p{a}" for a in axes]
              + [f"theta{k}" for k in range(tube.count)])
    # the framing of csv.writer: no value here needs quoting
    t_text = [repr(t) for t in ts.tolist()]
    try:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\r\n")
            for idx, (theta, member) in enumerate(zip(thetas, points)):
                tail = ",".join(map(repr, theta.tolist()))
                fh.write("".join(f"{idx},{t},{','.join(map(repr, p))},{tail}"
                                 "\r\n" for t, p in zip(t_text,
                                                         member.tolist())))
    except OSError as err:
        raise IoError(f"cannot write {args.out}: {err}") from err
    print(f"wrote {len(thetas)} members x {args.samples} samples to "
          f"{args.out}")
    return 0


def cmd_verify(args) -> int:
    _check_samples(args.samples)
    tube = load_tube(args.tube)
    thetas = _member_weights(args.count, tube.count, args.seed_override)
    failures = 0
    for idx, theta in enumerate(thetas):
        report = verify_member_optimality(tube, theta,
                                          directions=args.samples)
        label = "PASS" if report.passed else "FAIL"
        print(f"member {idx}: {label}  coeff_err={report.coefficient_error:.3e}"
              f"  obj_rel_err={report.objective_rel_error:.3e}"
              f"  eq_res={report.eq_residual:.3e}"
              f"  variational={report.variational_min:.3e}")
        if not report.passed:
            failures += 1
    if failures:
        print(f"{failures} member(s) failed verification", file=sys.stderr)
        return 4
    print("all members verified")
    return 0


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    tube = load_tube(args.tube) if args.tube else plan_tube(scenario)
    log = simulate(tube, scenario.robot_starts, scenario.mpc,
                   scenario.avoidance, time_limit=scenario.time_limit,
                   goal_radius=scenario.goal_radius)
    limit = scenario.time_limit
    if limit is None:
        limit = float(log.times[-1])
    metrics = compute_metrics(log, limit, scenario.goal_radius)
    if args.out:
        save_log(log, args.out)
        print(f"wrote {args.out}")
    if args.metrics:
        save_metrics(metrics, args.metrics)
        print(f"wrote {args.metrics}")
    print(f"arrival_rate={metrics.arrival_rate:.3f} "
          f"average_time={metrics.average_time:.3f} "
          f"average_speed={metrics.average_speed:.3f} "
          f"min_distance={metrics.min_pairwise_distance:.3f}")
    return 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubeplan",
        description="Plan optimal virtual tubes and fly robot swarms "
                    "through them.")
    sub = parser.add_subparsers(dest="command", required=True)

    plan = sub.add_parser("plan", help="plan a tube from a scenario file")
    plan.add_argument("--scenario", required=True)
    plan.add_argument("--out", required=True, help="tube JSON output path")
    plan.set_defaults(func=cmd_plan)

    members = sub.add_parser(
        "members", help="sample member trajectories from a tube")
    members.add_argument("--tube", required=True)
    members.add_argument("--out", required=True, help="CSV output path")
    members.add_argument("--count", type=int, default=10,
                         help="members beyond the basis vertices")
    members.add_argument("--samples", type=int, default=50,
                         help="evaluation points per member")
    members.add_argument("--seed-override", type=int, default=None,
                         help="draw random members instead of the lattice")
    members.set_defaults(func=cmd_members)

    verify = sub.add_parser(
        "verify", help="audit the optimality of sampled members")
    verify.add_argument("--tube", required=True)
    verify.add_argument("--count", type=int, default=5,
                        help="members beyond the basis vertices")
    verify.add_argument("--samples", type=int, default=100,
                        help="random perturbation directions per member")
    verify.add_argument("--seed-override", type=int, default=None,
                        help="draw random members instead of the lattice")
    verify.set_defaults(func=cmd_verify)

    sim = sub.add_parser("simulate", help="run the swarm through a tube")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--tube", default=None,
                     help="tube JSON (planned from the scenario if omitted)")
    sim.add_argument("--out", default=None, help="log CSV output path")
    sim.add_argument("--metrics", default=None,
                     help="metrics JSON output path")
    sim.add_argument("--threads", type=int, choices=[1], default=1,
                     help="only 1: every tick runs serially")
    sim.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as err:    # argparse has printed usage and the error
        return err.code
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _PLANNING_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except IoError as err:
        print(f"error: {err}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
