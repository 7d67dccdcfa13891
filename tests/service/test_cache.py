"""The versioned result cache: keying, LRU, invalidation by clock."""

from __future__ import annotations

import pytest

from repro.core.regions import RegionClock
from repro.service.cache import ResultCache, params_key


def clock_at(epoch: int = 0, select: int = 0, evaluate: int = 0) -> RegionClock:
    """A clock with the given epochs, as a mutation stream leaves one."""
    clock = RegionClock()
    clock.epoch, clock.select_epoch, clock.evaluate_epoch = epoch, select, evaluate
    return clock


class TestKeying:
    def test_param_order_does_not_matter(self):
        clock = RegionClock()
        a = ResultCache.key("ws", clock, "select", {"method": "MND", "k": 1})
        b = ResultCache.key("ws", clock, "select", {"k": 1, "method": "MND"})
        assert a == b

    def test_version_is_part_of_the_key(self):
        clock = RegionClock()
        before = ResultCache.key("ws", clock, "select", {"method": "MND"})
        clock.advance(None, affects_select=True, affects_evaluate=True)
        after = ResultCache.key("ws", clock, "select", {"method": "MND"})
        assert before != after

    def test_workspace_and_op_separate_entries(self):
        clock = RegionClock()
        keys = {
            ResultCache.key("a", clock, "select", {}),
            ResultCache.key("b", clock, "select", {}),
            ResultCache.key("a", clock, "evaluate", {}),
        }
        assert len(keys) == 3

    def test_params_key_is_canonical_json(self):
        assert params_key({"b": 2, "a": 1}) == '{"a":1,"b":2}'


class TestLRU:
    def test_get_miss_then_hit(self):
        cache = ResultCache(capacity=4)
        key = cache.key("ws", RegionClock(), "select", {"method": "SS"})
        assert cache.get(key) is None
        cache.put(key, {"dr": 1.0})
        assert cache.get(key) == {"dr": 1.0}

    def test_capacity_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2)
        clock = RegionClock()
        k1, k2, k3 = (
            cache.key("ws", clock, "select", {"method": m})
            for m in ("SS", "NFC", "MND")
        )
        cache.put(k1, 1)
        cache.put(k2, 2)
        cache.get(k1)  # refresh k1 so k2 is the LRU entry
        cache.put(k3, 3)
        assert cache.get(k1) == 1
        assert cache.get(k2) is None
        assert cache.get(k3) == 3

    def test_zero_capacity_disables_storage(self):
        cache = ResultCache(capacity=0)
        key = cache.key("ws", RegionClock(), "select", {})
        cache.put(key, 1)
        assert cache.get(key) is None
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=-1)


class TestInvalidation:
    def test_mutation_makes_old_entries_unreachable_by_construction(self):
        """The version lives in the key: no lookup at the new version can
        ever see a result computed at the old one."""
        cache = ResultCache()
        clock = clock_at(3, select=3)
        cache.put(cache.key("ws", clock, "select", {"method": "MND"}), "stale")
        clock.advance(None, affects_select=True, affects_evaluate=False)
        assert cache.get(cache.key("ws", clock, "select", {"method": "MND"})) is None

    def test_invalidate_drops_dead_versions_only(self):
        cache = ResultCache()
        dead = cache.key("ws", clock_at(1, select=1), "select", {"method": "SS"})
        live = cache.key("ws", clock_at(2, select=2), "select", {"method": "SS"})
        other = cache.key("elsewhere", clock_at(1, select=1), "select", {})
        cache.put(dead, "old")
        cache.put(live, "new")
        cache.put(other, "untouched")
        assert cache.invalidate("ws", clock_at(2, select=2)) == (1, 1)
        assert cache.get(live) == "new"
        assert cache.get(dead) is None
        assert cache.get(other) == "untouched"

    def test_live_versions_keep_each_op_on_its_own_epoch(self):
        """Region-clock sub-epochs: a mutation that aged evaluate but
        not select drops only the evaluate entries."""
        cache = ResultCache()
        clock = clock_at(7, select=5, evaluate=2)
        sel = cache.key("ws", clock, "select", {"method": "SS"})
        ev = cache.key("ws", clock, "evaluate", {"ids": [0]})
        cache.put(sel, "sel")
        cache.put(ev, "ev")
        clock.advance(None, affects_select=False, affects_evaluate=True)
        dropped, survived = cache.invalidate("ws", clock)
        assert (dropped, survived) == (1, 1)
        assert cache.get(sel) == "sel"
        assert cache.get(ev) is None

    def test_survival_tallies_every_sweep_per_workspace(self):
        cache = ResultCache()
        clock = RegionClock()
        assert cache.survival("ws") is None  # no sweep yet
        cache.put(cache.key("ws", clock, "select", {}), "s")
        cache.put(cache.key("ws", clock, "evaluate", {}), "e")
        cache.put(cache.key("other", clock, "evaluate", {}), "o")
        clock.advance(None, affects_select=False, affects_evaluate=True)
        assert cache.invalidate("ws", clock) == (1, 1)
        assert cache.invalidate("ws", clock) == (0, 1)
        assert cache.survival("ws") == pytest.approx(2 / 3)
        assert cache.survival("other") is None
