"""Bounded FIFO channels and schedulers for networks of pipeline stages.

A stage is a generator that yields effects instead of touching channels
directly:

    ("put", channel, item)   wait until the channel accepts the item
    ("get", channel)         wait until an item arrives; it is sent back in

A channel is a plain bounded deque with no synchronisation of its own; the
scheduler completes every effect through one step, `_attempt`, and decides
what a stage that cannot advance does. Because stages only communicate
through bounded FIFOs, the network computes the same values under any
scheduling, so the round-robin scheduler and the threaded one are
interchangeable. The round-robin run doubles as a deadlock checker: if no
stage can advance it names exactly who is stuck on what. The threaded run
completes effects under one lock and runs stage bodies outside it.
"""
from __future__ import annotations

from collections import deque

from ..errors import ConfigurationError, DeadlockError


class FifoChannel:
    """Bounded FIFO with non-blocking endpoints.

    Tracks its high-water mark (`max_depth`) and the number of items ever
    enqueued (`put_count`) so pipeline runs can report buffer pressure.
    """

    def __init__(self, name: str, capacity: int = 2):
        if capacity < 1:
            raise ConfigurationError(f"fifo {name!r}: capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.max_depth = 0
        self.put_count = 0
        self._items = deque()

    def __len__(self) -> int:
        return len(self._items)

    def try_put(self, item) -> bool:
        items = self._items
        if len(items) >= self.capacity:
            return False
        items.append(item)
        self.put_count += 1
        if len(items) > self.max_depth:
            self.max_depth = len(items)
        return True

    def try_get(self):
        """Returns (True, item) or (False, None) without blocking."""
        if not self._items:
            return False, None
        return True, self._items.popleft()


def _stage_name(gen) -> str:
    return getattr(gen, "__name__", None) or "stage"


def _attempt(gen, effect):
    """Complete `effect` of stage `gen` if its channel allows: (done, value)."""
    if effect[0] == "put":
        return effect[1].try_put(effect[2]), None
    if effect[0] == "get":
        return effect[1].try_get()
    raise ConfigurationError(f"stage {_stage_name(gen)!r} yielded unknown effect {effect[0]!r}")


def _waiting(name: str, effect) -> str:
    to = "to" if effect[0] == "put" else "from"
    return f"{name} waiting to {effect[0]} {to} {effect[1].name!r}"


def run_round_robin(stages) -> None:
    """Drive all stage generators to completion on a single thread.

    Each pass resumes every stage whose pending effect can complete. A full
    pass with no progress while stages remain is a deadlock and raises with
    a description of every stuck stage.
    """
    live = []
    for gen in stages:
        try:
            effect = next(gen)
            live.append([_stage_name(gen), gen, effect])
        except StopIteration:
            pass
    while live:
        progressed = False
        still = []
        for entry in live:
            gen = entry[1]
            ready, value = _attempt(gen, entry[2])
            if ready:
                progressed = True
                try:
                    entry[2] = gen.send(value)
                    still.append(entry)
                except StopIteration:
                    pass
            else:
                still.append(entry)
        live = still
        if live and not progressed:
            stuck = ", ".join(_waiting(name, eff) for name, _, eff in live)
            raise DeadlockError(f"no stage can advance: {stuck}")


def run_threaded(stages) -> None:
    """Drive the stages on real threads that share one lock.

    Effects complete under the lock and stage bodies run outside it. A stage
    that cannot advance waits on its channel's condition until the stage at
    the other end completes an effect there. When the last running stage
    waits, or finishes while others wait, no stage can advance: the run
    raises `DeadlockError` at once, naming every stuck stage. The first
    failure from any stage wakes every waiter, and is re-raised on the
    caller's thread once all workers have stopped.
    """
    import threading  # the only scheduler that needs it

    stages = list(stages)
    lock = threading.Lock()
    conditions = {}  # channel -> Condition on `lock`, made at first use
    stuck = {}  # stage -> the effect it waits for, until its channel moves
    finished, failures = [], []

    def fail(error):  # under the lock
        failures.append(error)
        for cond in conditions.values():
            cond.notify_all()

    def check_progress():  # under the lock
        if stuck and len(stuck) + len(finished) == len(stages):
            names = ", ".join(_waiting(_stage_name(g), e) for g, e in stuck.items())
            fail(DeadlockError(f"no stage can advance: {names}"))

    def drive(gen):
        try:
            effect = next(gen)
            while True:
                with lock:
                    while True:
                        if failures:
                            return
                        done, value = _attempt(gen, effect)
                        channel = effect[1]
                        cond = conditions.get(channel) or conditions.setdefault(
                            channel, threading.Condition(lock))
                        if done:
                            break
                        stuck[gen] = effect
                        check_progress()
                        if not failures:
                            cond.wait()
                    for g in [g for g, e in stuck.items() if e[1] is channel]:
                        del stuck[g]  # about to be woken; it counts as running
                    cond.notify_all()
                effect = gen.send(value)
        except StopIteration:
            with lock:
                finished.append(gen)
                check_progress()
        except BaseException as e:  # noqa: BLE001 - reported to the caller
            with lock:
                fail(e)

    threads = [threading.Thread(target=drive, args=(g,), daemon=True) for g in stages]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if failures:
        raise failures[0]


SCHEDULERS = {
    "single-thread": run_round_robin,
    "concurrent": run_threaded,
}


def run_network(stages, scheduler: str = "single-thread") -> None:
    try:
        runner = SCHEDULERS[scheduler]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduler {scheduler!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
    runner(list(stages))
