"""Tests of the benchmark's tracer and of its wrapper installation."""

import sys

import pytest

import tubeplan.cli  # noqa: F401  (loads every tubeplan module)
from layers import TARGETS, nearest_rank, per_layer_metrics
from tracing import Target, Tracer, install
from workloads import Session


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_of_a_synthetic_nest():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.advance(1.0)

    def inner():
        clock.advance(2.0)
        leaf()
        clock.advance(0.5)

    def outer():
        clock.advance(3.0)
        inner()
        leaf()
        inner()

    leaf = tracer.span_wrapper("leaf", leaf)
    inner = tracer.span_wrapper("inner", inner)
    outer = tracer.span_wrapper("outer", outer, keep_durations=True)
    outer()

    spans = tracer.spans
    assert spans["leaf"].calls == 3
    assert spans["leaf"].inclusive == pytest.approx(3.0)
    assert spans["leaf"].self_time == pytest.approx(3.0)
    assert spans["inner"].calls == 2
    assert spans["inner"].inclusive == pytest.approx(7.0)
    assert spans["inner"].self_time == pytest.approx(5.0)
    assert spans["outer"].inclusive == pytest.approx(11.0)
    assert spans["outer"].self_time == pytest.approx(3.0)
    assert spans["outer"].durations == [pytest.approx(11.0)]
    total_self = sum(s.self_time for s in spans.values())
    assert total_self == pytest.approx(spans["outer"].inclusive)


def test_a_raising_child_still_closes_its_span():
    clock = FakeClock()
    tracer = Tracer(clock)

    def child():
        clock.advance(1.0)
        raise ValueError("boom")

    def parent():
        clock.advance(2.0)
        with pytest.raises(ValueError):
            child()

    child = tracer.span_wrapper("child", child)
    parent = tracer.span_wrapper("parent", parent)
    parent()
    assert tracer.spans["child"].calls == 1
    assert tracer.spans["parent"].self_time == pytest.approx(2.0)


def test_count_wrapper_and_hooks():
    tracer = Tracer()
    seen = []
    double = tracer.count_wrapper(
        "calls", lambda x: 2 * x,
        hook=lambda tr, args, kwargs, result: seen.append(result))
    assert [double(1), double(2)] == [2, 4]
    assert tracer.counters["calls"] == 2.0
    assert seen == [2, 4]


def test_nearest_rank():
    values = list(range(1, 1001))
    assert nearest_rank(values, 0.5) == 500
    assert nearest_rank(values, 0.99) == 990
    assert nearest_rank([], 0.99) == 0.0


def _bindings():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if mod is not None and name.split(".")[0] == "tubeplan"}


def _classes():
    from tubeplan.pathfinder import ObstacleSet
    return dict(vars(ObstacleSet))


def test_every_target_exists_and_every_binding_is_restored():
    import tubeplan.mpcsim
    import tubeplan.trajopt
    import tubeplan.tube

    before, before_cls = _bindings(), _classes()
    original = tubeplan.trajopt.solve_qp
    inst = install(Tracer(), TARGETS)
    try:
        assert inst.missing == []
        wrapped = tubeplan.trajopt.solve_qp
        assert wrapped is not original
        # bound at each place the function is imported by name
        assert tubeplan.mpcsim.solve_qp is wrapped
        assert tubeplan.tube.solve_qp is wrapped
        assert tubeplan.solve_qp is wrapped
    finally:
        inst.restore()
    assert _bindings() == before
    assert _classes() == before_cls
    assert tubeplan.mpcsim.solve_qp is original


def test_session_restores_bindings_when_the_command_raises():
    before = _bindings()
    wrapped_during_call = []

    def crashing_main(argv):
        import tubeplan.trajopt
        wrapped_during_call.append(
            hasattr(tubeplan.trajopt.solve_qp, "__wrapped__"))
        raise RuntimeError("crash inside the command")

    session = Session(crashing_main)
    session.tracer = Tracer()
    result = session.run(["plan"])
    assert result.code == "exception"
    assert "crash inside the command" in result.stderr
    assert wrapped_during_call == [True]
    assert _bindings() == before


def test_missing_targets_are_reported_not_fatal():
    inst = install(Tracer(), [Target("trajopt", "no_such_function", "x")])
    assert inst.missing == ["trajopt.no_such_function"]
    assert inst.replaced == []


def test_per_layer_metrics_cover_an_empty_trace():
    metrics = per_layer_metrics(Tracer(), 2.0, 2.5)
    assert metrics["trace.overhead_s"] == (pytest.approx(0.5), "s")
    assert metrics["trajopt.kkt_solves"] == (0.0, "count")
    assert metrics["mpcsim.mpc_step_ms_p99"] == (0.0, "ms")
