"""The ledger's self-time accounting on a toy call tree."""

import time

from perfbench.ledger import Ledger, calibrate


class Outer:
    def work(self, inner, n):
        time.sleep(0.01)
        for _ in range(n):
            inner.work()


class Inner:
    def work(self):
        time.sleep(0.002)


TOY_LAYERS = (
    (__name__, "Outer", ("work",), "outer"),
    (__name__, "Inner", ("work",), "inner"),
)


def _traced_run(cost):
    ledger = Ledger(per_call_cost_s=cost)
    original = Outer.work
    with ledger.installed(TOY_LAYERS):
        assert Outer.work is not original
        with ledger.span("driver"):
            Outer().work(Inner(), 5)
    assert Outer.work is original
    return ledger.report()


def test_self_times_split_the_call_tree():
    report = _traced_run(0.0)
    assert report.calls("outer") == 1 and report.calls("inner") == 5
    assert report.layers["outer"].child_calls == 5
    assert 0.009 < report.self_s("outer") < 0.05
    assert 0.009 < report.self_s("inner") < 0.05
    assert report.self_s("driver") < report.self_s("outer")


def test_wrapper_cost_is_charged_to_callers_and_the_books_balance():
    cost = 1e-4
    report = _traced_run(cost)
    # outer made 5 wrapped calls, driver 1, the root 1
    assert abs(report.wrapper_overhead_s - 7 * cost) < 1e-12
    assert abs(report.accounted_s() - report.wall_s) < 1e-9


def test_calibrated_cost_is_positive_and_small():
    cost = calibrate(calls=20_000, rounds=3)
    assert 0.0 < cost < 1e-4


def test_opaque_layer_absorbs_its_subtree():
    ledger = Ledger()
    layers = ((__name__, "Outer", ("work",), "ops.shadow"), TOY_LAYERS[1])
    with ledger.installed(layers):
        Outer().work(Inner(), 3)
    report = ledger.report()
    assert report.calls("inner") == 0
    assert report.calls("ops.shadow") == 1
    assert report.self_s("ops.shadow") > 0.015
