"""The FindSpec/Cursor protocol on the stand-alone collection engine."""

import pytest

from repro.documentstore import FindSpec, projection_preserves_fields
from repro.documentstore.collection import Collection
from repro.documentstore.cursor import compile_projection
from repro.documentstore.errors import OperationFailure
from repro.sharding import ShardedCluster


@pytest.fixture
def events() -> Collection:
    collection = Collection(None, "events")
    collection.insert_many(
        {"_id": i, "day": i % 7, "amount": float((i * 37) % 100), "store": i % 5}
        for i in range(100)
    )
    return collection


class TestLaziness:
    def test_find_does_not_execute_until_iterated(self, events):
        before = dict(events.operation_counters)
        cursor = events.find({"day": 3}).sort("amount", -1).limit(5)
        assert events.operation_counters == before
        cursor.to_list()
        assert events.operation_counters["queries"] == before["queries"] + 1

    def test_chained_options_land_in_one_spec(self, events):
        cursor = (
            events.find({"day": 3}, {"amount": 1})
            .sort("amount", -1)
            .skip(2)
            .limit(5)
            .batch_size(50)
        )
        spec = cursor.spec
        assert spec.filter == {"day": 3}
        assert spec.projection == {"amount": 1}
        assert spec.sort == (("amount", -1),)
        assert spec.skip == 2 and spec.limit == 5 and spec.batch_size == 50

    def test_find_kwargs_equal_chaining(self, events):
        chained = events.find({"day": 3}).sort("amount", 1).skip(1).limit(4).to_list()
        kwargs = events.find({"day": 3}, sort="amount", skip=1, limit=4).to_list()
        assert chained == kwargs

    def test_modifying_after_iteration_started_raises(self, events):
        cursor = events.find({})
        cursor.next()
        with pytest.raises(OperationFailure):
            cursor.limit(3)

    def test_cursor_can_be_iterated_twice(self, events):
        cursor = events.find({"day": 2}).sort("amount", 1)
        first = list(cursor)
        second = list(cursor)
        assert first == second and first

    def test_alive_and_next_protocol(self, events):
        cursor = events.find({"day": 1}).limit(3)
        seen = []
        while cursor.alive:
            seen.append(cursor.next())
        assert len(seen) == 3
        with pytest.raises(StopIteration):
            cursor.next()


@pytest.mark.parametrize("surface", ["standalone", "routed"])
def test_a_cursor_reads_a_whole_answer_as_it_reads_a_stream(events, surface):
    """A routed find's executor returns a list, a stand-alone one a generator."""
    cluster = ShardedCluster(shard_count=3)
    collection = events
    if surface == "routed":
        cluster.shard_collection("db", "events", {"_id": "hashed"})
        collection = cluster.get_database("db")["events"]
        collection.insert_many(events.find({}).to_list())
    operations = cluster.router.metrics.operations
    cursor = collection.find({"day": 3}).sort("amount", -1)
    assert cluster.router.metrics.operations == operations  # nothing ran yet
    first, second = iter(cursor), iter(cursor)
    head = [next(first), next(first)]
    assert next(second) == head[0]
    with pytest.raises(OperationFailure):
        cursor.limit(3)
    expected = events.find({"day": 3}).sort("amount", -1).to_list()
    assert head + list(first) == expected
    assert [head[0]] + list(second) == expected
    assert list(cursor) == expected and len(cursor) == len(expected) and cursor[1] == expected[1]
    assert cursor.next() == expected[0] and cursor.alive
    assert cursor.to_list() == expected
    cluster.close()


class TestSortExecution:
    def test_sort_served_by_index_order(self, events):
        events.create_index("amount")
        explain = events.find({}).sort("amount", 1).explain()
        plan = explain["queryPlanner"]["winningPlan"]
        assert plan["stage"] == "IXSCAN"
        assert plan["sortServedByIndex"] is True
        assert plan["direction"] == "forward"
        assert explain["queryPlanner"]["sortMode"] == "indexOrder"

    def test_descending_sort_uses_backward_scan(self, events):
        events.create_index("amount")
        explain = events.find({}).sort("amount", -1).explain()
        assert explain["queryPlanner"]["winningPlan"]["direction"] == "backward"

    def test_index_order_results_match_materialized_sort(self, events):
        expected = sorted(
            events.find({}).to_list(), key=lambda doc: (doc["amount"], doc["_id"])
        )
        events.create_index([("amount", 1), ("_id", 1)])
        served = events.find({}).sort([("amount", 1), ("_id", 1)]).to_list()
        assert served == expected

    def test_index_order_with_limit_stops_scanning_early(self, events):
        events.create_index("amount")
        before = events.operation_counters["documents_scanned"]
        events.find({}).sort("amount", 1).limit(5).to_list()
        assert events.operation_counters["documents_scanned"] - before == 5

    def test_unindexed_sort_with_limit_uses_top_k(self, events):
        explain = events.find({"day": 3}).sort("amount", -1).limit(5).explain()
        assert explain["queryPlanner"]["sortMode"] == "topK"
        top = events.find({"day": 3}).sort("amount", -1).limit(5).to_list()
        expected = sorted(
            events.find({"day": 3}).to_list(),
            key=lambda doc: -doc["amount"],
        )[:5]
        assert [doc["_id"] for doc in top] == [doc["_id"] for doc in expected]

    def test_unindexed_sort_without_limit_materializes(self, events):
        explain = events.find({}).sort("day", 1).explain()
        assert explain["queryPlanner"]["sortMode"] == "sortMaterialize"

    def test_multikey_index_does_not_serve_sort(self):
        collection = Collection(None, "tags")
        collection.insert_many({"_id": i, "tags": [i, i + 10]} for i in range(5))
        collection.create_index("tags")
        explain = collection.find({}).sort("tags", 1).explain()
        assert "sortServedByIndex" not in explain["queryPlanner"]["winningPlan"]

    def test_skip_applies_before_limit_on_index_order(self, events):
        events.create_index([("amount", 1), ("_id", 1)])
        all_sorted = events.find({}).sort([("amount", 1), ("_id", 1)]).to_list()
        page = events.find({}).sort([("amount", 1), ("_id", 1)]).skip(10).limit(5).to_list()
        assert page == all_sorted[10:15]


class TestHint:
    def test_hint_forces_index(self, events):
        events.create_index("day")
        events.create_index("store")
        explain = events.find({"day": 1, "store": 2}).hint("store_1").explain()
        assert explain["queryPlanner"]["winningPlan"]["indexName"] == "store_1"

    def test_unknown_hint_raises(self, events):
        with pytest.raises(OperationFailure):
            events.find({}).hint("nope_1").to_list()


class TestProjectionSentinel:
    def test_missing_dotted_path_is_not_materialized_as_none(self):
        document = {"_id": 1, "a": {"b": 2}}
        projected = compile_projection({"a.c": 1, "_id": 0})(document)
        assert projected == {}

    def test_legitimate_none_at_dotted_path_is_kept(self):
        document = {"_id": 1, "a": {"b": None}}
        projected = compile_projection({"a.b": 1, "_id": 0})(document)
        assert projected == {"a": {"b": None}}

    def test_top_level_none_value_is_kept(self):
        projected = compile_projection({"x": 1, "_id": 0})({"_id": 1, "x": None})
        assert projected == {"x": None}

    def test_missing_top_level_field_is_skipped(self):
        projected = compile_projection({"x": 1, "_id": 0})({"_id": 1})
        assert projected == {}


class TestProjectionPreservesFields:
    @pytest.mark.parametrize(
        ("projection", "fields", "expected"),
        [
            (None, ["a"], True),
            ({"a": 1}, ["a"], True),
            ({"a": 1}, ["b"], False),
            ({"a": 1}, ["a.b"], True),
            ({"a.b": 1}, ["a"], False),
            ({"b": 0}, ["a"], True),
            ({"a": 0}, ["a"], False),
            ({"a.b": 0}, ["a"], False),
            ({"_id": 0, "a": 1}, ["_id"], False),
            ({"a": 1}, ["_id"], True),
        ],
    )
    def test_matrix(self, projection, fields, expected):
        assert projection_preserves_fields(projection, fields) is expected


class TestSpecApi:
    def test_shard_spec_folds_skip_into_limit(self):
        spec = FindSpec.create(sort=[("a", 1)], skip=10, limit=5)
        shard_spec = spec.shard_spec()
        assert shard_spec.skip == 0 and shard_spec.limit == 15

    def test_shard_spec_drops_projection_that_hides_sort_key(self):
        spec = FindSpec.create(projection={"b": 1}, sort=[("a", 1)], limit=5)
        assert spec.shard_spec().projection is None

    def test_shard_spec_keeps_projection_covering_sort_key(self):
        spec = FindSpec.create(projection={"a": 1, "b": 1}, sort=[("a", 1)], limit=5)
        assert spec.shard_spec().projection == {"a": 1, "b": 1}

    def test_explain_shape(self, events):
        explain = events.find({"day": 1}).sort("amount", 1).limit(2).explain()
        planner = explain["queryPlanner"]
        assert set(planner) == {"winningPlan", "sortMode", "spec"}
        assert planner["spec"]["limit"] == 2
        assert planner["spec"]["sort"] == [["amount", 1]]

    def test_find_one_with_sort(self, events):
        smallest = events.find_one({}, sort=[("amount", 1), ("_id", 1)])
        expected = events.find({}).sort([("amount", 1), ("_id", 1)]).limit(1).to_list()[0]
        assert smallest == expected


def _standalone_collection():
    return Collection(None, "nested"), None


def _routed_collection():
    cluster = ShardedCluster(shard_count=3)
    cluster.enable_sharding("db")
    cluster.shard_collection("db", "nested", {"_id": "hashed"})
    return cluster.get_database("db")["nested"], cluster


class TestDottedExclusionLeavesTheStoreAlone:
    @pytest.mark.parametrize("deploy", [_standalone_collection, _routed_collection])
    def test_a_dotted_exclusion_projects_a_copy(self, deploy):
        collection, cluster = deploy()
        try:
            collection.create_index("a.b")
            collection.insert_one({"_id": 1, "a": {"b": 1, "c": 2}})
            assert collection.find({}, {"a.b": 0}).to_list() == [{"_id": 1, "a": {"c": 2}}]
            stored = {"_id": 1, "a": {"b": 1, "c": 2}}
            assert collection.find({}).to_list() == [stored]
            # The index still holds a.b = 1, and so must the document it finds.
            assert collection.find({"a.b": 1}).to_list() == [stored]
        finally:
            if cluster is not None:
                cluster.close()


class TestCompiledProjection:
    def test_mixing_inclusion_and_exclusion_raises_once_at_compile_time(self):
        with pytest.raises(OperationFailure, match="cannot mix inclusion and exclusion"):
            compile_projection({"a": 1, "b": 0})

    def test_without_copy_and_projection_the_document_itself_is_returned(self):
        document = {"_id": 1, "a": {"b": 1}}
        assert compile_projection(None, copy=False)(document) is document
        assert compile_projection({"_id": 0}, copy=False)(document)["a"] is document["a"]
        assert compile_projection({"_id": 0})(document)["a"] is not document["a"]
