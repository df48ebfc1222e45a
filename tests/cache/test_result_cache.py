"""ResultCache unit behavior: LRU, TTL, generations, flush, config."""

from __future__ import annotations

import time
from collections import OrderedDict
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.cache import (
    CacheConfig,
    CacheError,
    ResultCache,
    coerce_cache_config,
    result_cache,
)


class FakeClock:
    """An injectable monotonic clock tests can advance by hand."""

    def __init__(self):
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _fill(cache: ResultCache, relation: str, token, value, tags=()):
    generation = cache.generation(relation)
    return cache.put(relation, token, value, generation, tags)


class TestConfigCoercion:
    def test_disabled_forms(self):
        assert coerce_cache_config(None) is None
        assert coerce_cache_config(False) is None

    def test_true_yields_defaults(self):
        config = coerce_cache_config(True)
        assert config == CacheConfig()

    def test_int_sets_the_entry_budget(self):
        assert coerce_cache_config(16).max_entries == 16

    def test_dict_sets_fields(self):
        config = coerce_cache_config({"max_entries": 8, "ttl_s": 2.5})
        assert (config.max_entries, config.ttl_s) == (8, 2.5)

    def test_config_passthrough_is_validated(self):
        with pytest.raises(CacheError, match="max_entries"):
            coerce_cache_config(CacheConfig(max_entries=0))

    def test_unknown_dict_keys_rejected(self):
        with pytest.raises(CacheError, match=r"unknown cache option.*max_size"):
            coerce_cache_config({"max_size": 8})

    def test_garbage_rejected(self):
        with pytest.raises(CacheError, match="bool, int, dict or CacheConfig"):
            coerce_cache_config("yes")

    def test_ttl_validation(self):
        with pytest.raises(CacheError, match="ttl_s must be positive"):
            coerce_cache_config({"ttl_s": 0})
        with pytest.raises(CacheError, match="ttl_s must be a number"):
            coerce_cache_config({"ttl_s": "soon"})
        assert coerce_cache_config({"ttl_s": None}).ttl_s is None


class TestLookupAndLru:
    def test_miss_then_hit(self):
        cache = ResultCache()
        assert cache.lookup("Emp", b"t1") is None
        assert _fill(cache, "Emp", b"t1", "value")
        assert cache.lookup("Emp", b"t1") == "value"
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert stats["hit_ratio"] == 0.5

    def test_keys_are_scoped_by_relation(self):
        cache = ResultCache()
        _fill(cache, "Emp", b"t", "emp-answer")
        assert cache.lookup("Dept", b"t") is None

    def test_lru_evicts_the_coldest_entry(self):
        cache = ResultCache(CacheConfig(max_entries=2, ttl_s=None))
        _fill(cache, "Emp", b"a", 1)
        _fill(cache, "Emp", b"b", 2)
        assert cache.get("Emp", b"a") == 1  # touch: "b" is now coldest
        _fill(cache, "Emp", b"c", 3)
        assert cache.get("Emp", b"b") is None
        assert cache.get("Emp", b"a") == 1
        assert cache.get("Emp", b"c") == 3
        assert cache.stats()["evictions"] == 1

    def test_len_reports_live_entries(self):
        cache = ResultCache()
        assert len(cache) == 0
        _fill(cache, "Emp", b"a", 1)
        assert len(cache) == 1


class TestTtl:
    def test_expired_entries_miss_and_count_as_evictions(self):
        clock = FakeClock()
        cache = ResultCache(CacheConfig(ttl_s=10.0), clock=clock)
        _fill(cache, "Emp", b"t", "value")
        clock.advance(9.9)
        assert cache.get("Emp", b"t") == "value"
        clock.advance(0.2)
        assert cache.get("Emp", b"t") is None
        assert cache.stats()["evictions"] == 1

    def test_ttl_none_never_expires(self):
        clock = FakeClock()
        cache = ResultCache(CacheConfig(ttl_s=None), clock=clock)
        _fill(cache, "Emp", b"t", "value")
        clock.advance(1e9)
        assert cache.get("Emp", b"t") == "value"


class TestGenerations:
    def test_invalidate_drops_only_that_relation(self):
        cache = ResultCache()
        _fill(cache, "Emp", b"a", 1)
        _fill(cache, "Dept", b"b", 2)
        cache.invalidate("Emp")
        assert cache.get("Emp", b"a") is None
        assert cache.get("Dept", b"b") == 2
        assert cache.stats()["invalidations"] == 1

    def test_stale_fill_is_dropped(self):
        # A write landing while the read is in flight must fence the fill.
        cache = ResultCache()
        generation = cache.generation("Emp")
        cache.invalidate("Emp")
        assert not cache.put("Emp", b"t", "pre-write answer", generation)
        assert cache.get("Emp", b"t") is None

    def test_flush_fences_every_relation(self):
        cache = ResultCache()
        generation = cache.generation("NeverSeen")
        _fill(cache, "Emp", b"a", 1)
        cache.flush()
        assert cache.get("Emp", b"a") is None
        # even a fill for a relation the cache never held is rejected
        assert not cache.put("NeverSeen", b"t", "old", generation)

    def test_fresh_generation_after_invalidate_fills_fine(self):
        cache = ResultCache()
        cache.invalidate("Emp")
        assert _fill(cache, "Emp", b"t", "new answer")
        assert cache.get("Emp", b"t") == "new answer"


class TestWriteSetInvalidation:
    """``invalidate(relation, tags)`` evicts by tag; the fence stays relation-wide."""

    def test_only_entries_filed_under_a_write_tag_go(self):
        cache = ResultCache()
        _fill(cache, "Emp", b"q-ann", "ann", tags=[("name", "ann")])
        _fill(cache, "Emp", b"q-bob", "bob", tags=[("name", "bob")])
        _fill(cache, "Emp", b"q-hr", "hr", tags=[("dept", "HR")])
        cache.invalidate("Emp", [("name", "ann"), ("dept", "IT"), ("salary", 7)])
        assert cache.get("Emp", b"q-ann") is None
        assert cache.get("Emp", b"q-bob") == "bob"
        assert cache.get("Emp", b"q-hr") == "hr"
        stats = cache.stats()
        assert (stats["invalidations"], stats["invalidated_entries"]) == (1, 1)

    def test_an_entry_filed_under_several_tags_goes_with_any_of_them(self):
        cache = ResultCache()
        _fill(cache, "Emp", b"q", "v", tags=[("name", "ann"), ("dept", "HR")])
        cache.invalidate("Emp", [("dept", "HR")])
        assert cache.get("Emp", b"q") is None
        assert cache._index == {}

    @pytest.mark.parametrize("written", [[("name", "nobody")], []], ids=["a row", "nothing"])
    def test_untagged_entries_go_with_every_write(self, written):
        cache = ResultCache()
        _fill(cache, "Emp", b"shapeless", "?")
        _fill(cache, "Emp", b"q-bob", "bob", tags=[("name", "bob")])
        _fill(cache, "Dept", b"shapeless", "other relation")
        cache.invalidate("Emp", written)
        assert cache.get("Emp", b"shapeless") is None
        assert cache.get("Emp", b"q-bob") == "bob"
        assert cache.get("Dept", b"shapeless") == "other relation"

    def test_no_tags_means_all_of_the_relation(self):
        cache = ResultCache()
        _fill(cache, "Emp", b"a", 1, tags=[("name", "ann")])
        _fill(cache, "Emp", b"b", 2)
        _fill(cache, "Dept", b"c", 3, tags=[("name", "ann")])
        cache.invalidate("Emp")
        assert cache.get("Emp", b"a") is None and cache.get("Emp", b"b") is None
        assert cache.get("Dept", b"c") == 3
        assert cache.stats()["invalidated_entries"] == 2

    def test_relations_sharing_a_tag_value_stay_apart(self):
        cache = ResultCache()
        _fill(cache, "Emp", b"q", "emp", tags=[("name", "ann")])
        _fill(cache, "Dept", b"q", "dept", tags=[("name", "ann")])
        cache.invalidate("Emp", [("name", "ann")])
        assert cache.get("Emp", b"q") is None
        assert cache.get("Dept", b"q") == "dept"

    @pytest.mark.parametrize("written", [1, 1.0, True])
    def test_hash_equal_tags_are_one_tag(self, written):
        # ``1 == 1.0 == True`` is what ``EqualityPredicate.matches`` would
        # say too, so all three writes can change the cached answer.
        cache = ResultCache()
        _fill(cache, "Emp", b"q", "v", tags=[("salary", 1)])
        cache.invalidate("Emp", [("salary", written)])
        assert cache.get("Emp", b"q") is None

    def test_every_invalidation_fences_in_flight_fills(self):
        cache = ResultCache()
        generation = cache.generation("Emp")
        cache.invalidate("Emp", [("name", "unrelated")])
        assert not cache.put("Emp", b"q", "v", generation, [("name", "ann")])
        assert len(cache) == 0 and cache._index == {}

    def test_a_re_put_is_re_filed_under_its_new_tags(self):
        cache = ResultCache()
        _fill(cache, "Emp", b"q", "old", tags=[("name", "ann")])
        _fill(cache, "Emp", b"q", "new", tags=[("name", "bob")])
        cache.invalidate("Emp", [("name", "ann")])
        assert cache.get("Emp", b"q") == "new"
        cache.invalidate("Emp", [("name", "bob")])
        assert cache.get("Emp", b"q") is None
        assert cache._index == {}

    def test_an_unhashable_tag_raises_before_anything_is_filed(self):
        cache = ResultCache()
        with pytest.raises(TypeError):
            _fill(cache, "Emp", b"q", "v", tags=[("name", "ann"), ("name", ["x"])])
        assert len(cache) == 0 and cache._index == {}

    def test_lru_eviction_unfiles_the_key(self):
        cache = ResultCache(CacheConfig(max_entries=2, ttl_s=None))
        for name in ("ann", "bob", "cyd"):
            _fill(cache, "Emp", name.encode(), name, tags=[("name", name)])
        assert ("name", "ann") not in cache._index["Emp"]
        assert sum(len(keys) for keys in cache._index["Emp"].values()) == 2
        cache.invalidate("Emp", [("name", "ann")])  # must not trip over a ghost key
        assert len(cache) == 2

    def test_ttl_eviction_unfiles_the_key(self):
        clock = FakeClock()
        cache = ResultCache(CacheConfig(ttl_s=10.0), clock=clock)
        _fill(cache, "Emp", b"q", "v", tags=[("name", "ann")])
        clock.advance(11)
        assert cache.get("Emp", b"q") is None
        assert cache._index == {}

    def test_flush_clears_the_index(self):
        cache = ResultCache()
        _fill(cache, "Emp", b"a", 1, tags=[("name", "ann")])
        _fill(cache, "Dept", b"b", 2)
        cache.flush()
        assert cache._index == {}
        assert cache.stats()["invalidated_entries"] == 2

    def test_the_index_empties_with_the_cache(self):
        cache = ResultCache(CacheConfig(max_entries=64, ttl_s=None))
        for i in range(200):  # LRU churn on the way
            tags = [("name", f"n{i}"), ("dept", f"d{i % 3}")] if i % 5 else []
            _fill(cache, f"R{i % 2}", i, i, tags)
        assert len(cache) == 64
        cache.invalidate("R0", [("dept", "d0")])
        cache.invalidate("R0", [("dept", "d1"), ("dept", "d2")])
        cache.invalidate("R1")
        assert len(cache) == 0
        assert len(cache._index) == 0

    def test_one_row_invalidation_at_the_default_budget_is_indexed_not_swept(self):
        """<= 50 us against 4 096 cached point queries (a sweep costs ~3 ms)."""
        cache = ResultCache(CacheConfig(ttl_s=None))
        for i in range(cache.config.max_entries):
            _fill(cache, "Emp", i, i, tags=[("name", f"emp{i}")])
        best = float("inf")
        for i in range(0, 2000, 100):
            row = [("name", f"emp{i}"), ("dept", "HR"), ("salary", 1000 + i)]
            started = time.perf_counter()
            cache.invalidate("Emp", row)
            best = min(best, time.perf_counter() - started)
            assert cache.get("Emp", i) is None
            assert len(cache) == cache.config.max_entries - 1  # exactly that one
            _fill(cache, "Emp", i, i, tags=[("name", f"emp{i}")])
        assert best <= 50e-6, f"best of 20: {best * 1e6:.1f} us"


relations = st.sampled_from(["Emp", "Dept"])
tokens = st.integers(0, 5)
#: ``1``, ``1.0`` and ``True`` are one tag; so are ``0`` and ``False``.
tag_sets = st.lists(st.sampled_from([0, 1, 1.0, True, False, "a", ("a", 1)]), max_size=3)


class ResultCacheMachine(RuleBasedStateMachine):
    """The cache against a plain-dict model: same live entries in the same
    LRU order, and an index that lists exactly those entries."""

    BUDGET = 5

    def __init__(self) -> None:
        super().__init__()
        self.cache = ResultCache(CacheConfig(max_entries=self.BUDGET, ttl_s=None))
        self.model: "OrderedDict[tuple, frozenset]" = OrderedDict()

    @rule(relation=relations, token=tokens, tags=tag_sets)
    def put(self, relation, token, tags):
        assert _fill(self.cache, relation, token, "value", tags)
        self.model.pop((relation, token), None)
        self.model[(relation, token)] = frozenset(tags)
        while len(self.model) > self.BUDGET:
            self.model.popitem(last=False)

    @rule(relation=relations, token=tokens)
    def get(self, relation, token):
        key = (relation, token)
        assert (self.cache.get(relation, token) is not None) == (key in self.model)
        if key in self.model:
            self.model.move_to_end(key)

    @rule(relation=relations, tags=st.none() | tag_sets)
    def invalidate(self, relation, tags):
        self.cache.invalidate(relation, tags)
        for key, filed in list(self.model.items()):
            if key[0] == relation and (
                tags is None or not filed or filed & frozenset(tags)
            ):
                del self.model[key]

    @rule()
    def flush(self):
        self.cache.flush()
        self.model.clear()

    @invariant()
    def entries_and_index_match_the_model(self):
        assert list(self.cache._entries) == list(self.model)
        listed = [
            key
            for filed in self.cache._index.values()
            for keys in filed.values()
            for key in keys
        ]
        # Once per tag, or once as untagged.
        assert sorted(listed) == sorted(
            key for key, filed in self.model.items() for _ in range(max(len(filed), 1))
        )


def _run_cache_machine():
    run_state_machine_as_test(
        ResultCacheMachine,
        settings=settings(
            max_examples=40,
            stateful_step_count=25,
            derandomize=True,
            print_blob=True,
            database=None,
            deadline=None,
            phases=(Phase.generate, Phase.shrink),
            suppress_health_check=list(HealthCheck),
        ),
    )


class TestAgainstAModel:
    def test_cache_and_index_follow_the_model(self):
        _run_cache_machine()

    def test_the_machine_fails_when_untagged_entries_survive_a_write(self):
        """Mutation check: "filed under no tag => every write evicts it"."""
        real = ResultCache.invalidate

        def invalidate(self, relation, tags=None):
            # The untagged bucket is looked up under a sentinel nothing is filed under.
            with mock.patch.object(result_cache, "_UNTAGGED", object()):
                real(self, relation, tags)

        with mock.patch.object(ResultCache, "invalidate", invalidate):
            with pytest.raises(AssertionError):
                _run_cache_machine()


class TestObservability:
    def test_metrics_flow_into_the_owner_registry(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        cache = ResultCache(metrics=registry, tier="coordinator")
        cache.lookup("Emp", b"t")
        snapshot = registry.snapshot()
        misses = [
            c
            for c in snapshot["counters"]
            if c["name"] == "cache_misses_total"
            and c["labels"] == {"tier": "coordinator"}
        ]
        assert misses and misses[0]["value"] == 1
        assert any(g["name"] == "cache_hit_ratio" for g in snapshot["gauges"])

    def test_gauges_are_computed_when_read(self):
        """No lookup writes a gauge, yet every reading is current."""
        from repro.obs import MetricsRegistry, render_prometheus

        registry = MetricsRegistry()
        clock = FakeClock()
        cache = ResultCache(CacheConfig(ttl_s=10.0), metrics=registry, clock=clock)

        def gauges():
            return {g["name"]: g["value"] for g in registry.snapshot()["gauges"]}

        assert gauges() == {"cache_entries": 0, "cache_hit_ratio": 0.0}
        for token in (b"a", b"b", b"c"):
            _fill(cache, "Emp", token, token, tags=[token])
        for _ in range(6):
            assert cache.get("Emp", b"a") == b"a"  # N = 6 hits
        for _ in range(2):
            assert cache.get("Emp", b"z") is None  # M = 2 misses
        assert gauges() == {"cache_entries": 3, "cache_hit_ratio": 6 / 8}
        assert cache.stats()["hit_ratio"] == 6 / 8
        assert 'cache_hit_ratio{tier="client"} 0.75' in render_prometheus(registry.snapshot())
        cache.invalidate("Emp", [b"c"])
        assert gauges()["cache_entries"] == 2
        clock.advance(11.0)
        assert cache.get("Emp", b"b") is None  # the TTL drop changes the count
        assert gauges() == {"cache_entries": 1, "cache_hit_ratio": 6 / 9}
        cache.flush()
        assert gauges()["cache_entries"] == 0

    def test_invalidated_entries_counter_is_labelled_by_tier(self):
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        cache = ResultCache(metrics=registry, tier="coordinator")
        _fill(cache, "Emp", b"a", 1)
        _fill(cache, "Emp", b"b", 2)
        cache.invalidate("Emp")
        cache.invalidate("Emp")
        counters = {
            c["name"]: c["value"]
            for c in registry.snapshot()["counters"]
            if c["labels"] == {"tier": "coordinator"}
        }
        assert counters["cache_invalidations_total"] == 2
        assert counters["cache_invalidated_entries_total"] == 2

    def test_stats_surface(self):
        cache = ResultCache(CacheConfig(max_entries=7, ttl_s=3.0), tier="client")
        stats = cache.stats()
        assert stats["tier"] == "client"
        assert stats["max_entries"] == 7
        assert stats["ttl_s"] == 3.0
