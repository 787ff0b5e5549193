"""Unit + property tests for sharding algorithms, keygen and the registry."""

import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ShardingConfigError, UnknownAlgorithmError
from repro.sharding import (
    HashModShardingAlgorithm,
    ShardingAlgorithm,
    SnowflakeKeyGenerator,
    available_algorithms,
    create_algorithm,
    create_key_generator,
    evaluate_inline,
    register_algorithm,
)

TARGETS4 = ["t_0", "t_1", "t_2", "t_3"]


class TestMod:
    def test_routes_by_modulo(self):
        algo = create_algorithm("MOD", {"sharding-count": 4})
        assert algo.do_sharding(TARGETS4, 6) == "t_2"
        assert algo.do_sharding(TARGETS4, 0) == "t_0"

    def test_requires_count(self):
        with pytest.raises(ShardingConfigError):
            create_algorithm("MOD", {})

    def test_range_narrow_prunes(self):
        algo = create_algorithm("MOD", {"sharding-count": 4})
        assert sorted(algo.do_range_sharding(TARGETS4, 5, 6)) == ["t_1", "t_2"]

    def test_range_wide_returns_all(self):
        algo = create_algorithm("MOD", {"sharding-count": 4})
        assert sorted(algo.do_range_sharding(TARGETS4, 0, 100)) == TARGETS4

    def test_unbounded_range_returns_all(self):
        algo = create_algorithm("MOD", {"sharding-count": 4})
        assert sorted(algo.do_range_sharding(TARGETS4, None, 10)) == TARGETS4


class TestHashMod:
    def test_deterministic_for_strings(self):
        algo = create_algorithm("HASH_MOD", {"sharding-count": 4})
        a = algo.do_sharding(TARGETS4, "user-123")
        b = algo.do_sharding(TARGETS4, "user-123")
        assert a == b

    def test_int_hashes_to_itself(self):
        algo = create_algorithm("HASH_MOD", {"sharding-count": 4})
        assert algo.do_sharding(TARGETS4, 7) == "t_3"

    def test_stable_hash_nonnegative(self):
        assert HashModShardingAlgorithm.stable_hash(-5) >= 0
        assert HashModShardingAlgorithm.stable_hash("x") >= 0

    @settings(max_examples=50, deadline=None)
    @given(value=st.one_of(st.integers(), st.text(max_size=20)))
    def test_always_lands_on_a_target(self, value):
        algo = create_algorithm("HASH_MOD", {"sharding-count": 4})
        assert algo.do_sharding(TARGETS4, value) in TARGETS4


class TestVolumeRange:
    def make(self):
        return create_algorithm(
            "VOLUME_RANGE",
            {"range-lower": 0, "range-upper": 100, "sharding-volume": 25},
        )

    def test_partitions(self):
        algo = self.make()
        targets = [f"t_{i}" for i in range(6)]
        assert algo.do_sharding(targets, -5) == "t_0"  # below lower
        assert algo.do_sharding(targets, 0) == "t_1"
        assert algo.do_sharding(targets, 99) == "t_4"
        assert algo.do_sharding(targets, 150) == "t_5"  # above upper

    def test_range_sharding_prunes(self):
        algo = self.make()
        targets = [f"t_{i}" for i in range(6)]
        assert algo.do_range_sharding(targets, 10, 30) == ["t_1", "t_2"]

    def test_bad_config(self):
        with pytest.raises(ShardingConfigError):
            create_algorithm("VOLUME_RANGE", {"range-lower": 10, "range-upper": 5, "sharding-volume": 1})


class TestBoundaryRange:
    def test_boundaries(self):
        algo = create_algorithm("BOUNDARY_RANGE", {"sharding-ranges": "10,20,30"})
        assert algo.do_sharding(TARGETS4, 5) == "t_0"
        assert algo.do_sharding(TARGETS4, 10) == "t_1"
        assert algo.do_sharding(TARGETS4, 25) == "t_2"
        assert algo.do_sharding(TARGETS4, 99) == "t_3"

    def test_range_prunes(self):
        algo = create_algorithm("BOUNDARY_RANGE", {"sharding-ranges": "10,20,30"})
        assert algo.do_range_sharding(TARGETS4, 12, 22) == ["t_1", "t_2"]

    def test_empty_ranges_rejected(self):
        with pytest.raises(ShardingConfigError):
            create_algorithm("BOUNDARY_RANGE", {"sharding-ranges": ""})


class TestAutoInterval:
    def make(self):
        return create_algorithm(
            "AUTO_INTERVAL",
            {
                "datetime-lower": "2021-01-01 00:00:00",
                "datetime-upper": "2021-01-05 00:00:00",
                "sharding-seconds": 86400,
            },
        )

    def test_slices(self):
        algo = self.make()
        targets = [f"t_{i}" for i in range(7)]
        assert algo.do_sharding(targets, "2020-12-25") == "t_0"
        assert algo.do_sharding(targets, "2021-01-01 10:00:00") == "t_1"
        assert algo.do_sharding(targets, "2021-01-03 10:00:00") == "t_3"

    def test_range(self):
        algo = self.make()
        targets = [f"t_{i}" for i in range(7)]
        routed = algo.do_range_sharding(targets, "2021-01-01 01:00:00", "2021-01-02 01:00:00")
        assert routed == ["t_1", "t_2"]


class TestInterval:
    def test_monthly_suffix(self):
        algo = create_algorithm("INTERVAL", {"datetime-interval-unit": "MONTHS"})
        targets = ["t_log_202101", "t_log_202102", "t_log_202103"]
        assert algo.do_sharding(targets, "2021-02-14") == "t_log_202102"

    def test_missing_suffix_raises(self):
        algo = create_algorithm("INTERVAL", {"datetime-interval-unit": "MONTHS"})
        with pytest.raises(ShardingConfigError):
            algo.do_sharding(["t_log_202101"], "2021-06-01")

    def test_range_overlap(self):
        algo = create_algorithm("INTERVAL", {"datetime-interval-unit": "MONTHS"})
        targets = ["t_202101", "t_202102", "t_202103"]
        routed = algo.do_range_sharding(targets, "2021-01-20", "2021-02-10")
        assert routed == ["t_202101", "t_202102"]


class TestInline:
    def test_evaluate_inline(self):
        assert evaluate_inline("t_user_${uid % 2}", {"uid": 7}) == "t_user_1"

    def test_inline_algorithm(self):
        algo = create_algorithm(
            "INLINE", {"algorithm-expression": "t_${uid % 4}", "sharding-column": "uid"}
        )
        assert algo.do_sharding(TARGETS4, 6) == "t_2"

    def test_inline_requires_expression(self):
        with pytest.raises(ShardingConfigError):
            create_algorithm("INLINE", {"algorithm-expression": "static"})

    def test_inline_unknown_target_raises(self):
        algo = create_algorithm(
            "INLINE", {"algorithm-expression": "t_${uid % 9}", "sharding-column": "uid"}
        )
        with pytest.raises(ShardingConfigError):
            algo.do_sharding(TARGETS4, 8)

    def test_complex_inline(self):
        algo = create_algorithm(
            "COMPLEX_INLINE",
            {
                "sharding-columns": "uid, region",
                "algorithm-expression": "t_${(uid + len(region)) % 4}",
            },
        )
        assert algo.do_sharding(TARGETS4, {"uid": 1, "region": "bj"}) == "t_3"

    def test_hint_inline(self):
        algo = create_algorithm("HINT_INLINE", {"algorithm-expression": "t_${value % 4}"})
        assert algo.do_sharding(TARGETS4, 5) == "t_1"

    def test_inline_rejects_builtins_access(self):
        with pytest.raises(ShardingConfigError):
            evaluate_inline("${open('/etc/passwd')}", {})


class TestClassBasedAndRegistry:
    def test_class_based(self):
        algo = create_algorithm(
            "CLASS_BASED", {"function": lambda targets, value: sorted(targets)[0]}
        )
        assert algo.do_sharding(TARGETS4, 123) == "t_0"

    def test_class_based_requires_callable(self):
        with pytest.raises(ShardingConfigError):
            create_algorithm("CLASS_BASED", {"function": "nope"})

    def test_ten_presets_registered(self):
        presets = {
            "MOD", "HASH_MOD", "VOLUME_RANGE", "BOUNDARY_RANGE", "AUTO_INTERVAL",
            "INTERVAL", "INLINE", "COMPLEX_INLINE", "HINT_INLINE", "CLASS_BASED",
        }
        assert presets <= set(available_algorithms())
        assert len(presets) == 10

    def test_unknown_type_raises(self):
        with pytest.raises(UnknownAlgorithmError):
            create_algorithm("NOPE")

    def test_user_extension_via_spi(self):
        @register_algorithm
        class FirstTargetAlgorithm(ShardingAlgorithm):
            type_name = "TEST_FIRST"

            def do_sharding(self, targets, value):
                return sorted(targets)[0]

        algo = create_algorithm("test_first")
        assert algo.do_sharding(TARGETS4, 99) == "t_0"


class TestKeyGenerators:
    def test_snowflake_monotonic_and_unique(self):
        gen = SnowflakeKeyGenerator({"worker-id": 3})
        keys = [gen.next_key() for _ in range(500)]
        assert keys == sorted(keys)
        assert len(set(keys)) == 500

    def test_snowflake_embeds_timestamp(self):
        gen = SnowflakeKeyGenerator()
        key = gen.next_key()
        ts = SnowflakeKeyGenerator.extract_timestamp_ms(key) / 1000
        now = datetime.datetime.now().timestamp()
        assert abs(now - ts) < 60

    def test_snowflake_worker_id_validated(self):
        with pytest.raises(ShardingConfigError):
            SnowflakeKeyGenerator({"worker-id": 99999})

    def test_uuid_generator(self):
        gen = create_key_generator("UUID")
        key = gen.next_key()
        assert len(key) == 32
        assert key != gen.next_key()

    def test_unknown_generator(self):
        with pytest.raises(UnknownAlgorithmError):
            create_key_generator("WHAT")


class TestRangePointConsistency:
    """Invariant: every point in [low, high] must route to a target that
    the range routing for [low, high] also returned — otherwise range
    queries would silently miss rows."""

    @settings(max_examples=60, deadline=None)
    @given(low=st.integers(-500, 500), span=st.integers(0, 200))
    def test_mod(self, low, span):
        algo = create_algorithm("MOD", {"sharding-count": 4})
        routed = set(algo.do_range_sharding(TARGETS4, low, low + span))
        for value in range(low, low + span + 1):
            assert algo.do_sharding(TARGETS4, value) in routed

    @settings(max_examples=60, deadline=None)
    @given(low=st.integers(0, 500), span=st.integers(0, 100))
    def test_hash_mod(self, low, span):
        algo = create_algorithm("HASH_MOD", {"sharding-count": 4})
        routed = set(algo.do_range_sharding(TARGETS4, low, low + span))
        for value in range(low, low + span + 1):
            assert algo.do_sharding(TARGETS4, value) in routed

    @settings(max_examples=60, deadline=None)
    @given(low=st.integers(-50, 150), span=st.integers(0, 80))
    def test_volume_range(self, low, span):
        algo = create_algorithm(
            "VOLUME_RANGE",
            {"range-lower": 0, "range-upper": 100, "sharding-volume": 25},
        )
        targets = [f"t_{i}" for i in range(6)]
        routed = set(algo.do_range_sharding(targets, low, low + span))
        for value in range(low, low + span + 1):
            assert algo.do_sharding(targets, value) in routed

    @settings(max_examples=60, deadline=None)
    @given(low=st.integers(-50, 150), span=st.integers(0, 80))
    def test_boundary_range(self, low, span):
        algo = create_algorithm("BOUNDARY_RANGE", {"sharding-ranges": "10,20,30"})
        routed = set(algo.do_range_sharding(TARGETS4, low, low + span))
        for value in range(low, low + span + 1):
            assert algo.do_sharding(TARGETS4, value) in routed

    @settings(max_examples=40, deadline=None)
    @given(low=st.integers(0, 9999), span=st.integers(0, 2000))
    def test_range_grid_level(self, low, span):
        from paper.topology import RangeLevelAlgorithm

        targets = [f"t_{i}" for i in range(10)]
        algo = RangeLevelAlgorithm(block=250, count=10, modulo=2500)
        routed = set(algo.do_range_sharding(targets, low, low + span))
        for value in range(low, low + span + 1, max(1, span // 50)):
            assert algo.do_sharding(targets, value) in routed
