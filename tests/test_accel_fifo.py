"""FIFO channels and the two schedulers that drive stage generators through them."""
import itertools
import threading

import pytest

from diracdelta.accel.fifo import FifoChannel, run_network, run_round_robin, run_shuffled
from diracdelta.errors import ConfigurationError, DeadlockError


def test_fifo_bounds_and_counters():
    ch = FifoChannel("t", capacity=2)
    assert ch.try_put(1) and ch.try_put(2)
    assert not ch.try_put(3)
    assert len(ch) == 2 and ch.max_depth == 2 and ch.put_count == 2
    ok, item = ch.try_get()
    assert ok and item == 1
    assert ch.try_put(3)
    assert ch.put_count == 3
    ok, item = ch.try_get()
    assert ok and item == 2
    ok, item = ch.try_get()
    assert ok and item == 3
    ok, item = ch.try_get()
    assert not ok and item is None


def test_fifo_channel_refuses_a_capacity_below_one():
    with pytest.raises(ConfigurationError, match="capacity must be >= 1"):
        FifoChannel("t", capacity=0)


def _pipeline(n, scheduler, order=(0, 1, 2)):
    """Run source -> doubler -> sink, the stages listed in `order`.

    Returns what the sink saw, both channels, and every completed effect as
    (stage, kind, value), in the order the scheduler completed them.
    """
    a = FifoChannel("a", capacity=2)
    b = FifoChannel("b", capacity=2)
    seen, effects = [], []

    def source():
        for i in range(n):
            yield ("put", a, i)
            effects.append(("source", "put", i))

    def doubler():
        for _ in range(n):
            v = yield ("get", a)
            effects.append(("doubler", "get", v))
            yield ("put", b, 2 * v)
            effects.append(("doubler", "put", 2 * v))

    def sink():
        for _ in range(n):
            v = yield ("get", b)
            effects.append(("sink", "get", v))
            seen.append(v)

    stages = [source(), doubler(), sink()]
    run_network([stages[i] for i in order], scheduler=scheduler)
    return seen, a, b, effects


@pytest.mark.parametrize("scheduler", ["single-thread", "concurrent"])
def test_pipeline_preserves_order_and_respects_capacity(scheduler):
    seen, a, b, _ = _pipeline(25, scheduler)
    assert seen == [2 * i for i in range(25)]
    assert a.max_depth <= a.capacity
    assert b.max_depth <= b.capacity
    assert a.put_count == 25


def test_the_shuffled_interleaving_differs_from_the_round_robin():
    # otherwise the schedulers' byte-for-byte agreement compares one schedule with itself
    _, a_rr, b_rr, rr = _pipeline(25, "single-thread")
    _, a_sh, b_sh, sh = _pipeline(25, "concurrent")
    assert sorted(sh) == sorted(rr) and sh != rr
    assert (a_sh.max_depth, b_sh.max_depth) != (a_rr.max_depth, b_rr.max_depth)


def test_shuffled_runs_repeat_exactly():
    _, a1, b1, first = _pipeline(25, "concurrent")
    _, a2, b2, second = _pipeline(25, "concurrent")
    assert first == second
    assert (a1.max_depth, b1.max_depth) == (a2.max_depth, b2.max_depth)


@pytest.mark.parametrize("scheduler", ["single-thread", "concurrent"])
def test_every_order_of_the_stage_list_gives_the_same_output(scheduler):
    for order in itertools.permutations(range(3)):
        seen, *_ = _pipeline(9, scheduler, order)
        assert seen == [2 * i for i in range(9)], order


def test_round_robin_reports_deadlock_with_names():
    empty = FifoChannel("starved", capacity=1)

    def consumer():
        yield ("get", empty)

    gen = consumer()
    with pytest.raises(DeadlockError, match="consumer waiting to get from 'starved'"):
        run_round_robin([gen])


def _cycle():
    """Two stages that each wait to get what the other puts first."""
    a = FifoChannel("a", capacity=1)
    b = FifoChannel("b", capacity=1)

    def left():
        yield ("get", a)
        yield ("put", b, 1)

    def right():
        yield ("get", b)
        yield ("put", a, 1)

    return [left(), right()]


def test_round_robin_reports_full_cycle_deadlock():
    with pytest.raises(DeadlockError, match="no stage can advance"):
        run_round_robin(_cycle())


def test_shuffled_scheduler_names_a_full_cycle_deadlock_in_stage_order():
    message = ("^no stage can advance: left waiting to get from 'a', "
               "right waiting to get from 'b'$")
    with pytest.raises(DeadlockError, match=message):
        run_shuffled(_cycle())


@pytest.mark.parametrize("scheduler", ["single-thread", "concurrent"])
def test_a_consumer_that_outlasts_its_producer_is_a_deadlock_at_once(scheduler):
    short = FifoChannel("short", capacity=2)

    def producer():
        yield ("put", short, 1)

    def consumer():
        for _ in range(2):
            yield ("get", short)

    raised = []

    def run():
        try:
            run_network([producer(), consumer()], scheduler=scheduler)
        except DeadlockError as e:
            raised.append(str(e))

    # a daemon thread, so that a scheduler that never names the deadlock fails here
    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(1.0)
    assert not worker.is_alive()
    assert raised == ["no stage can advance: consumer waiting to get from 'short'"]


def test_unknown_effect_is_rejected():
    ch = FifoChannel("x", capacity=1)

    def bad():
        yield ("peek", ch)

    message = "^stage 'bad' yielded unknown effect 'peek'$"
    for runner in (run_round_robin, run_shuffled):
        with pytest.raises(ConfigurationError, match=message):
            runner([bad()])


def test_shuffled_scheduler_propagates_stage_failures():
    ch = FifoChannel("c", capacity=2)

    def boom():
        raise ValueError("stage exploded")
        yield  # pragma: no cover

    def late_boom():
        for i in range(3):
            yield ("put", ch, i)
        raise ValueError("stage exploded late")

    def drain():
        while True:
            yield ("get", ch)

    with pytest.raises(ValueError, match="^stage exploded$"):
        run_shuffled([boom()])
    with pytest.raises(ValueError, match="^stage exploded late$"):
        run_shuffled([drain(), late_boom()])


def test_unknown_scheduler():
    with pytest.raises(ConfigurationError, match="unknown scheduler 'gpu'"):
        run_network([], scheduler="gpu")
