"""Fixture for the ``no-gc-tuning`` pass.

Collector policy is process-global: serving code keeps its state
untracked instead of switching the collector off around itself.
"""

import gc
import gc as _collector
from gc import freeze  # EXPECT: no-gc-tuning
from gc import get_count as tracked_allocations


def flush_quietly(batch):
    gc.disable()  # EXPECT: no-gc-tuning
    try:
        return [decide(item) for item in batch]
    finally:
        gc.enable()  # EXPECT: no-gc-tuning


def settle(log):
    gc.set_threshold(100_000, 50, 50)  # EXPECT: no-gc-tuning
    gc.collect()  # EXPECT: no-gc-tuning
    freeze()


def aliased(batch):
    _collector.disable()  # EXPECT: no-gc-tuning
    pause = _collector.freeze  # EXPECT: no-gc-tuning
    resume = getattr(gc, "enable")  # EXPECT: no-gc-tuning
    return pause, resume, getattr(_collector, "collect")()  # EXPECT: no-gc-tuning


def observing_is_fine():
    _collector.get_objects()
    getattr(gc, "isenabled")()
    return gc.get_stats(), gc.get_count(), gc.isenabled(), tracked_allocations()


def reviewed():
    gc.unfreeze()  # lint: skip=no-gc-tuning -- fixture suppression


def decide(item):
    return item
