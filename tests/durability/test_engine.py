"""Storage-engine behaviour: restart fidelity, checkpoints, fsync policies.

These are the non-crash tests — a clean close / reopen must restore every
acknowledged write, checkpoints must compact the log without losing
anything, and the durability counters must reflect the configured policy.
"""

from __future__ import annotations

import warnings

import pytest

import faults
from repro.documentstore import (
    DocumentStoreClient,
    OperationFailure,
    RecoveryError,
    dump_collection,
    load_collection,
)
from repro.documentstore.recovery import snapshot_path, wal_path


def make_client(tmp_path, **kwargs):
    return DocumentStoreClient(data_dir=tmp_path / "data", **kwargs)


class TestRestartFidelity:
    def test_all_write_shapes_survive_restart(self, tmp_path):
        with make_client(tmp_path, fsync="always") as client:
            people = client.db.people
            people.insert_many([{"_id": i, "n": i, "tags": [i, i + 1]} for i in range(20)])
            people.insert_one({"_id": 100, "n": 100})
            people.create_index([("n", 1)], name="by_n")
            people.update_many({"n": {"$lt": 5}}, {"$set": {"small": True}})
            people.update_one({"_id": 100}, {"$inc": {"n": 1}})
            people.replace_one({"_id": 19}, {"replaced": True})
            people.delete_many({"n": {"$gte": 15, "$lt": 18}})
            people.update_one(
                {"_id": "up"}, {"$set": {"via": "upsert"}}, upsert=True
            )
            expected = sorted(people.find(), key=lambda d: str(d["_id"]))

        with make_client(tmp_path) as client:
            people = client.db.people
            recovered = sorted(people.find(), key=lambda d: str(d["_id"]))
            assert recovered == expected
            assert "by_n" in people.index_information()

    def test_drop_collection_and_database_survive_restart(self, tmp_path):
        with make_client(tmp_path, fsync="always") as client:
            client.db.keep.insert_one({"_id": 1})
            client.db.gone.insert_one({"_id": 1})
            client.db.drop_collection("gone")
            client.other.c.insert_one({"_id": 1})
            client.drop_database("other")

        with make_client(tmp_path) as client:
            assert client.db.list_collection_names() == ["keep"]
            assert "other" not in client.list_database_names()

    def test_unique_index_constraint_survives_restart(self, tmp_path):
        from repro.documentstore import DuplicateKeyError

        with make_client(tmp_path, fsync="always") as client:
            client.db.c.create_index([("email", 1)], unique=True)
            client.db.c.insert_one({"email": "a@x"})

        with make_client(tmp_path) as client:
            with pytest.raises(DuplicateKeyError):
                client.db.c.insert_one({"email": "a@x"})

    def test_index_specs_round_trip_without_their_derived_attributes(self, tmp_path):
        """``IndexSpec.fields``/``is_hashed`` are per-object; disk carries ``describe()``."""

        def on_disk(client):
            data_dir = client.engine.data_dir
            return b"".join(path.read_bytes() for path in sorted(data_dir.iterdir()))

        with make_client(tmp_path, fsync="always") as client:
            client.db.c.insert_many([{"_id": i, "a": i % 3, "b": i, "h": f"k{i}"} for i in range(9)])
            client.db.c.create_index([("a", 1), ("b", -1)], name="a_b")
            client.db.c.create_index({"h": "hashed"})
            specs = client.db.c.list_indexes()
            logged = on_disk(client)
            assert b'"keys"' in logged
            assert b"is_hashed" not in logged and b'"fields"' not in logged

        with make_client(tmp_path) as client:  # WAL replay
            assert client.db.c.list_indexes() == specs
            assert client.db.c._indexes["h_hashed"].spec.is_hashed
            assert client.db.c._indexes["a_b"].spec.fields == ("a", "b")
            client.checkpoint()
            snapshotted = on_disk(client)
            assert b'"keys"' in snapshotted
            assert b"is_hashed" not in snapshotted and b'"fields"' not in snapshotted

        with make_client(tmp_path) as client:  # snapshot restore
            assert client.db.c.list_indexes() == specs
            plan = client.db.c.explain({"a": 1, "b": 4})["queryPlanner"]["winningPlan"]
            assert plan["stage"] == "IXSCAN" and plan["keyPattern"] == ["a", "b"]
            assert [d["_id"] for d in client.db.c.find({"h": "k5"})] == [5]


class TestCheckpoint:
    def test_checkpoint_compacts_and_preserves(self, tmp_path):
        with make_client(tmp_path, fsync="always") as client:
            client.db.c.insert_many([{"_id": i} for i in range(500)])
            data_dir = client.engine.data_dir
            wal_before = wal_path(data_dir, 0).stat().st_size
            generation = client.checkpoint()
            assert generation == 1
            # Old generation's files are gone, new WAL starts empty.
            assert not wal_path(data_dir, 0).exists()
            assert snapshot_path(data_dir, 1).exists()
            assert wal_path(data_dir, 1).stat().st_size == 0
            assert wal_before > 0
            client.db.c.insert_many([{"_id": 500 + i} for i in range(10)])

        with make_client(tmp_path) as client:
            assert client.db.c.count_documents({}) == 510
            report = client.engine.recovery_report
            assert report.snapshot_documents == 500
            assert report.records_replayed == 1  # only the post-checkpoint batch

    def test_auto_checkpoint_triggers_on_wal_growth(self, tmp_path):
        with make_client(tmp_path, fsync="off", auto_checkpoint_bytes=20_000) as client:
            for start in range(0, 2000, 100):
                client.db.c.insert_many([{"_id": start + i, "pad": "x" * 40} for i in range(100)])
            assert client.engine.checkpoints >= 1
            assert client.engine.generation >= 1

        with make_client(tmp_path) as client:
            assert client.db.c.count_documents({}) == 2000

    def test_repeated_checkpoints_keep_single_generation(self, tmp_path):
        with make_client(tmp_path) as client:
            for round_number in range(3):
                client.db.c.insert_one({"round": round_number})
                client.checkpoint()
            files = sorted(p.name for p in client.engine.data_dir.iterdir())
            assert files == ["snapshot-00000003.snap", "wal-00000003.log"]


class TestFsyncPolicies:
    def test_always_fsyncs_every_append(self, tmp_path):
        with make_client(tmp_path, fsync="always") as client:
            for i in range(5):
                client.db.c.insert_one({"_id": i})
            counters = client.engine.counters
            assert counters.records_appended == 5
            assert counters.fsync_calls >= 5
            assert counters.bytes_fsynced == counters.bytes_appended

    def test_batch_group_commits(self, tmp_path):
        with make_client(tmp_path, fsync="batch", batch_fsync_every=10) as client:
            for i in range(25):
                client.db.c.insert_one({"_id": i})
            counters = client.engine.counters
            assert counters.records_appended == 25
            assert counters.fsync_calls == 2  # at 10 and 20
            client.flush_durability()
            assert counters.bytes_fsynced == counters.bytes_appended

    def test_off_never_fsyncs_until_flush(self, tmp_path):
        with make_client(tmp_path, fsync="off") as client:
            for i in range(25):
                client.db.c.insert_one({"_id": i})
            assert client.engine.counters.fsync_calls == 0
            client.flush_durability()
            assert client.engine.counters.fsync_calls == 1

    def test_invalid_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            make_client(tmp_path, fsync="sometimes")


class TestStatusSurface:
    def test_status_reports_counters_and_recovery(self, tmp_path):
        with make_client(tmp_path, fsync="always") as client:
            client.db.c.insert_many([{"_id": i} for i in range(7)])
        with make_client(tmp_path) as client:
            status = client.durability_status()
            assert status["active"] is True
            assert status["fsync_policy"] == "batch"
            assert status["recovery"]["records_replayed"] == 1
            assert status["recovery"]["replay_seconds"] >= 0
            assert status["wal"]["active"] is True

    def test_in_memory_client_reports_inactive(self):
        client = DocumentStoreClient()
        assert client.durability_status() == {"active": False}
        assert client.checkpoint() is None
        client.flush_durability()  # no-op, must not raise


class TestCorruptSnapshotRefused:
    def test_bit_rotted_snapshot_raises_instead_of_silently_losing_data(self, tmp_path):
        with make_client(tmp_path) as client:
            client.db.c.insert_many([{"_id": i} for i in range(50)])
            client.checkpoint()
            snapshot = snapshot_path(client.engine.data_dir, 1)
        faults.flip_byte(snapshot, snapshot.stat().st_size // 2)
        with pytest.raises(RecoveryError):
            make_client(tmp_path)


class TestAtomicDumpsAndTolerantLoads:
    def test_dump_leaves_no_temp_and_loads_back(self, tmp_path):
        client = DocumentStoreClient()
        client.db.c.insert_many([{"_id": i, "n": i} for i in range(10)])
        target = tmp_path / "dump.jsonl"
        assert dump_collection(client.db.c, target) == 10
        assert not list(tmp_path.glob("*.tmp"))
        fresh = DocumentStoreClient()
        assert load_collection(fresh.db.c, target) == 10
        assert fresh.db.c.count_documents({}) == 10

    def test_torn_tail_line_is_skipped_with_warning(self, tmp_path):
        client = DocumentStoreClient()
        client.db.c.insert_many([{"_id": i} for i in range(5)])
        target = tmp_path / "dump.jsonl"
        dump_collection(client.db.c, target)
        # Tear the last line the way a crashed appender would.
        data = target.read_bytes()
        target.write_bytes(data[: len(data) - 8])
        fresh = DocumentStoreClient()
        with pytest.warns(UserWarning, match="torn tail"):
            loaded = load_collection(fresh.db.c, target)
        assert loaded == 4

    def test_mid_file_corruption_still_raises(self, tmp_path):
        client = DocumentStoreClient()
        client.db.c.insert_many([{"_id": i} for i in range(5)])
        target = tmp_path / "dump.jsonl"
        dump_collection(client.db.c, target)
        lines = target.read_bytes().splitlines(keepends=True)
        lines[1] = b"{definitely not json\n"
        target.write_bytes(b"".join(lines))
        fresh = DocumentStoreClient()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning allowed on this path
            with pytest.raises(OperationFailure, match="mid-file"):
                load_collection(fresh.db.c, target)
