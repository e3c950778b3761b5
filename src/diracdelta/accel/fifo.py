"""Bounded FIFO channels and schedulers for networks of pipeline stages.

A stage is a generator that yields effects instead of touching channels
directly:

    ("put", channel, item)   wait until the channel accepts the item
    ("get", channel)         wait until an item arrives; it is sent back in

A channel is a plain bounded deque with no synchronisation of its own; the
scheduler completes every effect through one step, `_attempt`, and decides
what a stage that cannot advance does. Because stages only communicate
through bounded FIFOs, the network computes the same values under any
scheduling, so the round-robin scheduler and the seeded shuffled one are
interchangeable. Both double as deadlock checkers: if no stage can advance
they name exactly who is stuck on what.
"""
from __future__ import annotations

import random
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


def _start(stages) -> list:
    """Run each stage to its first effect: [name, generator, effect] per live stage."""
    live = []
    for gen in stages:
        try:
            effect = next(gen)
            live.append([_stage_name(gen), gen, effect])
        except StopIteration:
            pass
    return live


def _deadlock(live) -> DeadlockError:
    stuck = ", ".join(_waiting(name, eff) for name, _, eff in live)
    return DeadlockError(f"no stage can advance: {stuck}")


def run_round_robin(stages) -> None:
    """Drive all stage generators to completion on a single thread.

    Each pass resumes every stage whose pending effect can complete. A full
    pass with no progress while stages remain is a deadlock and raises with
    a description of every stuck stage.
    """
    live = _start(stages)
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
            raise _deadlock(live)


_SHUFFLE_SEED = 20181107  # fixes the interleaving, so every run repeats exactly


def run_shuffled(stages) -> None:
    """Drive the stages on one thread in a seeded random interleaving.

    Each step completes the effect of the first stage, in a fresh random
    order, whose channel allows it, so any stage can run ahead until its
    FIFO fills or empties. A deadlock raises as in the round robin.
    """
    rng = random.Random(_SHUFFLE_SEED)
    live = _start(stages)
    while live:
        for entry in rng.sample(live, len(live)):
            gen = entry[1]
            ready, value = _attempt(gen, entry[2])
            if ready:
                try:
                    entry[2] = gen.send(value)
                except StopIteration:
                    live.remove(entry)
                break
        else:
            raise _deadlock(live)


SCHEDULERS = {
    "single-thread": run_round_robin,
    "concurrent": run_shuffled,
}


def run_network(stages, scheduler: str = "single-thread") -> None:
    try:
        runner = SCHEDULERS[scheduler]
    except KeyError:
        raise ConfigurationError(
            f"unknown scheduler {scheduler!r}; choose from {sorted(SCHEDULERS)}"
        ) from None
    runner(list(stages))
