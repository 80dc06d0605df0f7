"""Crash recovery under an exhaustively enumerated crash schedule.

The workload below performs a fixed sequence of acknowledged write
operations (inserts, updates, deletes, an index build, a checkpoint, and a
``bulk_write`` batch of all three write kinds) against a durable client
whose filesystem is a :class:`faults.FaultyFS`.  Every state-changing
filesystem operation the workload performs is a crash point; the schedule
kills the run at each of them, in each crash phase, and for each
unsynced-tail survival mode.

The correctness property is exact: with ``fsync="always"`` every
acknowledged operation is durable before its call returns, and every WAL
record carries one whole operation (a ``bulk_write`` batch is one record, so
recovery lands before or after the whole batch, never inside it) — so the
recovered store must equal the state after the last acknowledged operation,
or (when the crash interrupted the logging of an already-applied in-flight
operation whose record nevertheless reached disk intact) the state one
operation later.  Nothing in between, nothing invented: no lost acks, no
ghost writes.

A crash *after* operation *i* leaves the same disk state as a crash
*before* operation *i+1* — the schedule therefore enumerates the
``"before"`` and ``"partial"`` phases over every index, which covers the
``"after"`` states implicitly.
"""

from __future__ import annotations

import pytest

import faults
from repro.documentstore import (
    DeleteMany,
    DocumentStoreClient,
    InsertOne,
    RecoveryError,
    UpdateMany,
    UpdateOne,
    decode_document,
    encode_document,
    encode_record,
)
from repro.documentstore.recovery import apply_record, snapshot_path, wal_path
from repro.documentstore.storage import StorageEngine

# --------------------------------------------------------------------------
# The workload: a fixed, deterministic operation sequence.
# --------------------------------------------------------------------------


def op_insert_first(client):
    client.db.c.insert_many([{"_id": i, "n": i} for i in range(8)])


def op_create_index(client):
    client.db.c.create_index([("n", 1)], name="by_n")


def op_update(client):
    client.db.c.update_many({"n": {"$lt": 4}}, {"$set": {"flag": True}})


def op_checkpoint(client):
    client.checkpoint()


def op_delete(client):
    client.db.c.delete_many({"n": {"$gte": 6}})


def op_insert_second(client):
    client.db.c.insert_many([{"_id": 100 + i, "n": 100 + i} for i in range(4)])


def op_bulk_write(client):
    client.db.c.bulk_write(
        [
            InsertOne({"_id": 200, "n": 200}),
            UpdateMany({"n": {"$lt": 2}}, {"$set": {"bulk": True}}),
            UpdateOne({"_id": 201}, {"$set": {"n": 201}}, upsert=True),
            DeleteMany({"n": {"$gte": 102}}),
            InsertOne({"_id": 202, "n": 202}),
        ],
        ordered=False,
    )


OPERATIONS = [
    op_insert_first,
    op_create_index,
    op_update,
    op_checkpoint,
    op_delete,
    op_bulk_write,
    op_insert_second,
]


def store_state(client) -> dict:
    """Canonical store contents: namespace -> {_id: document}."""
    state = {}
    for database in client:
        for collection in database:
            documents = {doc["_id"]: doc for doc in collection.find()}
            state[(database.name, collection.name)] = {
                "documents": documents,
                "indexes": sorted(collection.index_information()),
            }
    return state


def expected_states() -> list[dict]:
    """State after 0, 1, ... len(OPERATIONS) acknowledged operations."""
    client = DocumentStoreClient()
    states = [store_state(client)]
    for operation in OPERATIONS:
        operation(client)
        states.append(store_state(client))
    return states


def run_workload(data_dir, fs, completed: list[int]) -> None:
    """Run the operation sequence durably; track acknowledged op count."""
    engine = StorageEngine(
        data_dir, fsync="always", auto_checkpoint_bytes=None, fs=fs
    )
    client = DocumentStoreClient(storage_engine=engine)
    for index, operation in enumerate(OPERATIONS):
        operation(client)
        completed[0] = index + 1
    client.close()


# --------------------------------------------------------------------------
# The schedule.
# --------------------------------------------------------------------------


def _schedule() -> list[faults.CrashPoint]:
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        count = faults.count_operations(
            lambda fs: run_workload(
                pathlib.Path(scratch) / "data", fs, completed=[0]
            )
        )
    return list(faults.enumerate_crash_points(count, phases=("before", "partial")))


def pytest_generate_tests(metafunc):
    if "crash_point" in metafunc.fixturenames:
        points = _schedule()
        metafunc.parametrize(
            "crash_point", points, ids=[str(point) for point in points]
        )


class TestEnumeratedCrashSchedule:
    def test_recovery_restores_exactly_the_acknowledged_prefix(
        self, crash_point, tmp_path
    ):
        data_dir = tmp_path / "data"
        states = expected_states()
        completed = [0]
        fs = faults.FaultyFS(crash_point)
        with pytest.raises(faults.SimulatedCrash):
            run_workload(data_dir, fs, completed)
        assert fs.dead

        recovered_client = DocumentStoreClient(data_dir=data_dir)
        recovered = store_state(recovered_client)
        acked = completed[0]
        # Acked state at minimum; at most one in-flight op may also have
        # reached disk whole before the crash.
        allowed = states[acked : min(acked + 2, len(states))]
        assert recovered in allowed, (
            f"crash at {crash_point} after {acked} acked ops recovered a "
            f"state matching none of the allowed prefixes"
        )
        # The reopened directory must be healthy: clean log, writable store.
        recovered_client.db.c.insert_one({"_id": "post-recovery"})
        recovered_client.close()

        final_client = DocumentStoreClient(data_dir=data_dir)
        assert (
            final_client.db.c.find_one({"_id": "post-recovery"}) is not None
        )
        final_client.close()


class TestNoCrashBaseline:
    def test_workload_without_crash_reaches_final_state(self, tmp_path):
        data_dir = tmp_path / "data"
        completed = [0]
        run_workload(data_dir, faults.FaultyFS(None), completed)
        assert completed[0] == len(OPERATIONS)
        client = DocumentStoreClient(data_dir=data_dir)
        assert store_state(client) == expected_states()[-1]
        client.close()


class TestShardedClusterRecovery:
    """Per-shard WALs: each shard recovers independently, routing survives."""

    def test_acked_writes_survive_abandoned_cluster(self, tmp_path):
        from repro.documentstore.wal import encode_record
        from repro.sharding.cluster import ShardedCluster

        data_dir = tmp_path / "cluster"
        cluster = ShardedCluster(3, data_dir=data_dir, fsync="always")
        cluster.shard_collection("db", "people", {"uid": "hashed"})
        cluster["db"].people.insert_many([{"uid": i, "n": i} for i in range(60)])
        cluster["db"].people.update_many({"uid": {"$lt": 10}}, {"$set": {"f": 1}})
        distribution = cluster.data_distribution("db", "people")
        assert sum(distribution.values()) == 60
        # SIGKILL model: abandon without close().  fsync="always" means every
        # acknowledged batch is already on disk; then tear each shard's WAL
        # tail the way a crash mid-append would.
        cluster.router.close()
        half_record = encode_record(b"garbage" * 8)
        for shard in cluster.shards:
            log = shard.engine.wal.path
            with open(log, "ab") as handle:
                handle.write(half_record[: len(half_record) // 2])

        reopened = ShardedCluster(3, data_dir=data_dir)
        assert reopened.config_server.is_sharded("db", "people")
        assert reopened.data_distribution("db", "people") == distribution
        assert reopened["db"].people.count_documents({"f": 1}) == 10
        for shard in reopened.shards:
            assert shard.engine.recovery_report.tail_state == "torn"
        # The reopened cluster keeps working and routing.
        reopened["db"].people.insert_many([{"uid": 100 + i} for i in range(12)])
        assert reopened["db"].people.count_documents({}) == 72
        reopened.close()

        final = ShardedCluster(3, data_dir=data_dir)
        assert final["db"].people.count_documents({}) == 72
        final.close()

    def test_topology_mismatch_is_refused(self, tmp_path):
        from repro.documentstore.errors import ShardingError
        from repro.sharding.cluster import ShardedCluster

        data_dir = tmp_path / "cluster"
        cluster = ShardedCluster(3, data_dir=data_dir)
        cluster.shard_collection("db", "c", "k")
        cluster.close()
        with pytest.raises(ShardingError):
            ShardedCluster(2, data_dir=data_dir)

    #: ``cluster_metadata.json`` of a hashed-key collection holding
    #: :meth:`_hashed_documents`, as written by the commit before the
    #: single-pass codec, and where that commit placed each ``_id``.
    GOLDEN_METADATA = (
        b'{"shards":["shard1","shard2","shard3"],'
        b'"databases":{"db":{"primary":"shard1","partitioned":true}},'
        b'"collections":{"db.t":{"ns":"db.t","key":{"fields":["k"],"hashed":true},'
        b'"chunk_size_bytes":67108864,"shard_ids":["shard1","shard2","shard3"],"chunks":['
        b'{"min":{"$minKey":1},"max":3074457345618258602,"shard":"shard1","count":2,'
        b'"size":74,"jumbo":false,"samples":[1514186692415443667,465497631725480761]},'
        b'{"min":3074457345618258602,"max":6148914691236517204,"shard":"shard2","count":1,'
        b'"size":37,"jumbo":false,"samples":[5693347397401503933]},'
        b'{"min":6148914691236517204,"max":9223372036854775806,"shard":"shard3","count":3,'
        b'"size":129,"jumbo":false,"samples":[8779506521465039330,6425909857045784868,'
        b'7524547013035871137]},'
        b'{"min":9223372036854775806,"max":12297829382473034408,"shard":"shard1","count":1,'
        b'"size":46,"jumbo":false,"samples":[9332392111358234308]},'
        b'{"min":12297829382473034408,"max":15372286728091293010,"shard":"shard2","count":3,'
        b'"size":120,"jumbo":false,"samples":[14524191183824104763,12311330045268819954,'
        b'15049985934649196602]},'
        b'{"min":15372286728091293010,"max":{"$maxKey":1},"shard":"shard3","count":2,'
        b'"size":92,"jumbo":false,"samples":[16062996825802820519,17221646359431366498]}]}}}'
    )
    GOLDEN_PLACEMENT = {"shard1": [0, 4, 11], "shard2": [2, 6, 7, 10], "shard3": [1, 3, 5, 8, 9]}

    def test_the_golden_metadata_holds_no_index_entry(self):
        """Chunk tables only: no bare-keys index form for a loader to read."""
        assert b'"indexes"' not in self.GOLDEN_METADATA
        assert b'"keys"' not in self.GOLDEN_METADATA

    @staticmethod
    def _hashed_documents():
        # List- and document-valued shard keys hash their *encoded bytes*.
        return [
            {"_id": i, "k": [i, "x"]} if i % 2 else {"_id": i, "k": {"a": i}} for i in range(12)
        ]

    @staticmethod
    def _placement(cluster):
        return {
            shard.shard_id: sorted(doc["_id"] for doc in shard.collection("db", "t").find({}))
            for shard in cluster.shards
        }

    def test_hashed_metadata_is_written_as_the_previous_commit_wrote_it(self, tmp_path):
        from repro.sharding.cluster import ShardedCluster

        cluster = ShardedCluster(3, data_dir=tmp_path)
        cluster.shard_collection("db", "t", {"k": "hashed"})
        cluster["db"].t.insert_many(self._hashed_documents())
        assert self._placement(cluster) == self.GOLDEN_PLACEMENT
        cluster.close()
        assert (tmp_path / "cluster_metadata.json").read_bytes() == self.GOLDEN_METADATA

    def test_hashed_metadata_from_the_previous_commit_routes_identically(self, tmp_path):
        from repro.sharding.cluster import ShardedCluster

        (tmp_path / "cluster_metadata.json").write_bytes(self.GOLDEN_METADATA)
        cluster = ShardedCluster(3, data_dir=tmp_path)
        try:
            assert cluster.config_server.is_sharded("db", "t")
            cluster["db"].t.insert_many(self._hashed_documents())
            assert self._placement(cluster) == self.GOLDEN_PLACEMENT
            for document in self._hashed_documents():
                assert cluster["db"].t.find({"k": document["k"]}).to_list() == [document]
        finally:
            cluster.close()


class TestByteLevelDamage:
    def test_torn_wal_tail_is_truncated_and_prefix_survives(self, tmp_path):
        data_dir = tmp_path / "data"
        with DocumentStoreClient(data_dir=data_dir, fsync="always") as client:
            client.db.c.insert_many([{"_id": i} for i in range(10)])
        # A crash mid-append leaves half a record at the tail.
        log = wal_path(data_dir, 0)
        record = encode_record(b"x" * 64)
        with open(log, "ab") as handle:
            handle.write(record[: len(record) // 2])

        client = DocumentStoreClient(data_dir=data_dir)
        report = client.engine.recovery_report
        assert report.tail_state == "torn"
        assert report.torn_bytes_truncated == len(record) // 2
        assert client.db.c.count_documents({}) == 10
        client.close()

    def test_bit_flipped_wal_tail_is_dropped_and_prefix_survives(self, tmp_path):
        data_dir = tmp_path / "data"
        with DocumentStoreClient(data_dir=data_dir, fsync="always") as client:
            client.db.c.insert_many([{"_id": i} for i in range(5)])
            client.db.c.insert_many([{"_id": 100 + i} for i in range(5)])
        log = wal_path(data_dir, 0)
        size = log.stat().st_size
        faults.flip_byte(log, size - 10)

        client = DocumentStoreClient(data_dir=data_dir)
        report = client.engine.recovery_report
        assert report.tail_state == "corrupt"
        # The damaged record (and only it) is gone; the first batch survives.
        assert client.db.c.count_documents({"_id": {"$lt": 100}}) == 5
        assert client.db.c.count_documents({"_id": {"$gte": 100}}) == 0
        client.close()


class TestIndexSpecsAcrossRestarts:
    #: A ``create_index`` spec written by a build that still had vector indexes.
    VECTOR_SPEC = {
        "name": "embedding_vector",
        "type": "vector",
        "keys": [["embedding", "vector"]],
        "unique": False,
        "dims": 3,
        "metric": "l2",
    }

    #: One spec of each index shape, and the ``find`` it serves.
    SPECS = {
        "single": ({"keys": ["tenant"]}, {"tenant": 1}),
        "compound unique": (
            {"keys": [["tenant", 1], ["_id", -1]], "unique": True, "name": "by_tenant"},
            {"tenant": 0, "_id": {"$gte": 10}},
        ),
        "hashed": ({"keys": [["tenant", "hashed"]]}, {"tenant": 1}),
    }

    DOCS = [{"_id": i, "tenant": i % 2, "n": i} for i in range(30)]

    @staticmethod
    def served(collection, query):
        """The plan that serves *query* and the ids it returns."""
        plan = collection.explain(query)["queryPlanner"]["winningPlan"]
        ids = sorted(doc["_id"] for doc in collection.find(query))
        return plan["stage"], plan.get("indexName"), ids

    @pytest.mark.parametrize("shape", SPECS)
    def test_an_index_survives_wal_replay(self, tmp_path, shape):
        spec, query = self.SPECS[shape]
        with DocumentStoreClient(data_dir=tmp_path, fsync="always") as client:
            client.db.c.insert_many(self.DOCS)
            name = client.db.c.create_index(spec)
            listed, expected = client.db.c.list_indexes(), self.served(client.db.c, query)
        assert expected[:2] == ("IXSCAN", name)

        # No checkpoint ran: reopening replays the DDL from the WAL.
        with DocumentStoreClient(data_dir=tmp_path) as client:
            assert client.db.c.list_indexes() == listed
            assert self.served(client.db.c, query) == expected

    @pytest.mark.parametrize("shape", SPECS)
    def test_an_index_survives_snapshot_restore(self, tmp_path, shape):
        spec, query = self.SPECS[shape]
        with DocumentStoreClient(data_dir=tmp_path, fsync="always") as client:
            client.db.c.insert_many(self.DOCS)
            name = client.db.c.create_index(spec)
            listed, expected = client.db.c.list_indexes(), self.served(client.db.c, query)
            client.checkpoint()  # the spec must round-trip through the manifest

        with DocumentStoreClient(data_dir=tmp_path) as client:
            assert client.db.c.list_indexes() == listed
            assert self.served(client.db.c, query) == expected
            # Writes after the restore still land in the rebuilt index.
            client.db.c.insert_one({"_id": 99, "tenant": 5, "n": 99})
            assert [doc["_id"] for doc in client.db.c.find({"tenant": 5}).hint(name)] == [99]

    def test_btree_unique_index_spec_round_trips(self, tmp_path):
        with DocumentStoreClient(data_dir=tmp_path, fsync="always") as client:
            client.db.c.insert_many([{"_id": i, "tenant": i % 2} for i in range(10)])
            client.db.c.create_index(
                {"keys": [["tenant", 1], ["_id", -1]], "unique": True, "name": "by_tenant"}
            )
            client.checkpoint()

        with DocumentStoreClient(data_dir=tmp_path) as client:
            spec = {s["name"]: s for s in client.db.c.list_indexes()}["by_tenant"]
            assert spec == {
                "name": "by_tenant",
                "type": "btree",
                "keys": [["tenant", 1], ["_id", -1]],
                "unique": True,
            }

    def test_legacy_wal_record_shape_is_refused(self):
        # Records written before structured specs carried keys/unique/name; no
        # tracked fixture holds one (test_bson.py's golden segment carries a spec).
        client = DocumentStoreClient()
        client.db.items.insert_many([{"_id": 1, "n": 1}])
        legacy = {
            "op": "create_index",
            "db": "db",
            "coll": "items",
            "keys": [["n", 1]],
            "unique": True,
            "name": "legacy_n",
        }
        with pytest.raises(RecoveryError, match="without a structured spec"):
            apply_record(client, legacy)
        assert "legacy_n" not in client.db.items.index_information()

    def test_a_vector_index_in_a_wal_segment_is_refused(self, tmp_path):
        records = [
            {"db": "rag", "coll": "chunks", "op": "insert", "docs": [{"_id": 1, "e": [1.0]}]},
            {"db": "rag", "coll": "chunks", "op": "create_index", "spec": self.VECTOR_SPEC},
        ]
        wal_path(tmp_path, 0).write_bytes(
            b"".join(encode_record(encode_document(record)) for record in records)
        )
        with pytest.raises(RecoveryError, match=r"rag\.chunks") as raised:
            DocumentStoreClient(data_dir=tmp_path)
        assert "embedding_vector" in str(raised.value)

    def test_a_vector_index_in_a_snapshot_manifest_is_refused(self, tmp_path):
        with DocumentStoreClient(data_dir=tmp_path, fsync="always") as client:
            client.rag.chunks.insert_many([{"_id": i, "embedding": [float(i)]} for i in range(3)])
            client.rag.chunks.create_index("embedding")
            client.checkpoint()
        snapshot = snapshot_path(tmp_path, 1)
        manifest_line, rest = snapshot.read_bytes().split(b"\n", 1)
        manifest = decode_document(manifest_line)
        manifest["databases"]["rag"]["chunks"]["indexes"] = {"embedding_vector": self.VECTOR_SPEC}
        snapshot.write_bytes(encode_document(manifest) + b"\n" + rest)

        with pytest.raises(RecoveryError, match=r"rag\.chunks") as raised:
            DocumentStoreClient(data_dir=tmp_path)
        assert "embedding_vector" in str(raised.value)
