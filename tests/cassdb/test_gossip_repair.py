"""Tests for gossip/phi-accrual failure detection and anti-entropy repair."""

import pytest

from repro.cassdb import (
    Cluster,
    Consistency,
    GossipRunner,
    HeartbeatHistory,
    PhiAccrualDetector,
    TableSchema,
)

SCHEMA = TableSchema("t", partition_key=("k",), clustering_key=("c",))


class TestHeartbeatHistory:
    def test_phi_grows_with_silence(self):
        history = HeartbeatHistory()
        for t in range(10):
            history.record(float(t))
        assert history.phi(10.0) < history.phi(20.0) < history.phi(60.0)

    def test_phi_zero_right_after_heartbeat(self):
        history = HeartbeatHistory()
        history.record(1.0)
        history.record(2.0)
        assert history.phi(2.0) == 0.0

    def test_mean_interval(self):
        history = HeartbeatHistory()
        for t in (0.0, 2.0, 4.0, 6.0):
            history.record(t)
        assert history.mean_interval == pytest.approx(2.0)

    def test_bootstrap_interval_used_before_samples(self):
        history = HeartbeatHistory(bootstrap_interval=5.0)
        history.record(0.0)
        assert history.mean_interval == 5.0

    def test_out_of_order_rejected(self):
        history = HeartbeatHistory()
        history.record(5.0)
        with pytest.raises(ValueError):
            history.record(4.0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            HeartbeatHistory(window=1)

    def test_never_heard_phi_zero(self):
        assert HeartbeatHistory().phi(100.0) == 0.0


class TestPhiAccrualDetector:
    def test_regular_heartbeats_stay_alive(self):
        detector = PhiAccrualDetector(threshold=8.0)
        for t in range(60):
            detector.heartbeat("n1", float(t))
        assert detector.is_alive("n1", 60.5)
        assert detector.suspected(60.5) == []

    def test_silence_convicts(self):
        detector = PhiAccrualDetector(threshold=8.0)
        for t in range(60):
            detector.heartbeat("n1", float(t))
        # phi crosses 8 after ~ 8 * ln(10) ≈ 18.4 mean intervals.
        assert not detector.is_alive("n1", 60.0 + 30.0)
        assert detector.suspected(90.0) == ["n1"]

    def test_slow_but_steady_not_convicted(self):
        """A node heartbeating every 5 s must not be convicted by a
        5-second gap — phi adapts to the observed cadence."""
        detector = PhiAccrualDetector(threshold=8.0)
        for t in range(0, 300, 5):
            detector.heartbeat("slow", float(t))
        assert detector.is_alive("slow", 300.0 + 6.0)

    def test_unknown_peer_alive(self):
        assert PhiAccrualDetector().is_alive("ghost", 100.0)


class TestGossipRunner:
    def _cluster(self, n=4, rf=2):
        cluster = Cluster(n, replication_factor=rf)
        cluster.create_table(SCHEMA)
        return cluster

    def test_crash_gets_convicted(self):
        cluster = self._cluster()
        gossip = GossipRunner(cluster, interval=1.0, threshold=8.0)
        gossip.tick(30)  # build history
        assert cluster.nodes["node01"].up
        gossip.crash("node01")
        gossip.tick(60)
        assert not cluster.nodes["node01"].up
        assert any(n == "node01" for n, _t in gossip.convictions)

    def test_healthy_nodes_never_convicted(self):
        cluster = self._cluster()
        gossip = GossipRunner(cluster, interval=1.0)
        gossip.tick(200)
        assert all(node.up for node in cluster.nodes.values())
        assert gossip.convictions == []

    def test_recovery_rehabilitates(self):
        cluster = self._cluster()
        gossip = GossipRunner(cluster, interval=1.0)
        gossip.tick(30)
        gossip.crash("node02")
        gossip.tick(60)
        assert not cluster.nodes["node02"].up
        gossip.recover("node02")
        gossip.tick(5)
        assert cluster.nodes["node02"].up

    def test_lossy_network_tolerated(self):
        """20% heartbeat loss widens the observed intervals; phi adapts
        and healthy nodes stay up."""
        cluster = self._cluster()
        gossip = GossipRunner(cluster, interval=1.0, loss_rate=0.2, seed=3)
        gossip.tick(300)
        assert all(node.up for node in cluster.nodes.values())

    def test_writes_continue_after_conviction(self):
        cluster = self._cluster(4, rf=2)
        gossip = GossipRunner(cluster, interval=1.0)
        gossip.tick(30)
        gossip.crash("node00")
        gossip.tick(60)
        cluster.insert("t", {"k": "x", "c": 1, "v": 1}, Consistency.ONE)
        rows = cluster.select_partition("t", ("x",))
        assert len(rows) == 1

    def test_invalid_loss_rate(self):
        with pytest.raises(ValueError):
            GossipRunner(self._cluster(), loss_rate=1.0)


class TestAntiEntropyRepair:
    def _diverged_cluster(self):
        """RF=2 cluster where one replica missed writes WITHOUT hints
        (node was up from the coordinator's view but dropped them)."""
        cluster = Cluster(4, replication_factor=2)
        cluster.create_table(SCHEMA)
        for i in range(20):
            cluster.insert("t", {"k": f"p{i % 4}", "c": i, "v": i})
        # Corrupt: silently drop one replica's copy of one partition.
        pk = cluster.schema("t").partition_key_from_tuple(("p1",))
        victim = cluster.ring.replicas(pk)[1]
        store = cluster.nodes[victim].tables["t"]
        store.memtable.partitions.pop(pk, None)
        for sst in store.sstables:
            sst.blocks.pop(pk, None)
        return cluster, pk, victim

    def test_repair_detects_and_fixes_divergence(self):
        cluster, pk, victim = self._diverged_cluster()
        assert cluster.nodes[victim].read_partition("t", pk) == []
        repaired = cluster.repair("t")
        assert repaired >= 1
        rows = cluster.nodes[victim].read_partition("t", pk)
        assert len(rows) == 5  # i in {1, 5, 9, 13, 17}

    def test_repair_idempotent(self):
        cluster, _pk, _victim = self._diverged_cluster()
        cluster.repair("t")
        assert cluster.repair("t") == 0

    def test_repair_noop_on_healthy_cluster(self):
        cluster = Cluster(4, replication_factor=3)
        cluster.create_table(SCHEMA)
        for i in range(30):
            cluster.insert("t", {"k": f"p{i % 5}", "c": i, "v": i})
        assert cluster.repair("t") == 0

    def test_repair_after_missed_hints(self):
        """Node down during writes, revived *without* hint replay (the
        coordinator holding hints also died): repair reconciles."""
        cluster = Cluster(4, replication_factor=2)
        cluster.create_table(SCHEMA)
        cluster.insert("t", {"k": "a", "c": 0, "v": 0})
        pk = cluster.schema("t").partition_key_from_tuple(("a",))
        down = cluster.ring.replicas(pk)[1]
        cluster.kill_node(down)
        for i in range(1, 10):
            cluster.insert("t", {"k": "a", "c": i, "v": i})
        # Lose the hints (simulate coordinator death) then revive.
        for node in cluster.nodes.values():
            node.hints.clear()
        cluster.nodes[down].mark_up()
        assert len(cluster.nodes[down].read_partition("t", pk)) == 1
        cluster.repair("t")
        assert len(cluster.nodes[down].read_partition("t", pk)) == 10

    def test_quorum_reads_consistent_after_repair(self):
        cluster, pk, _victim = self._diverged_cluster()
        cluster.repair("t")
        rows = cluster.select_partition("t", ("p1",),
                                        consistency=Consistency.ALL)
        assert [r["c"] for r in rows] == [1, 5, 9, 13, 17]
