"""LaunchStats / StatsCollector accounting."""

import copy

import pytest

from repro.sim.checkpoint import part_digest
from repro.sim.stats import LaunchStats, StatsCollector


def make_stats(**kw):
    defaults = dict(kernel_name="k", launch_index=0, start_cycle=100,
                    max_warps_per_sm=32)
    defaults.update(kw)
    return LaunchStats(**defaults)


class TestLaunchStats:
    def test_cycles(self):
        stats = make_stats(end_cycle=350)
        assert stats.cycles == 250

    def test_occupancy(self):
        stats = make_stats()
        stats.busy_sm_cycles = 100
        stats.warp_cycles = 800  # 8 warps average
        assert stats.occupancy == pytest.approx(8 / 32)

    def test_occupancy_idle(self):
        assert make_stats().occupancy == 0.0

    def test_means(self):
        stats = make_stats()
        stats.busy_sm_cycles = 10
        stats.thread_cycles = 2560
        stats.cta_cycles = 20
        assert stats.mean_threads_per_sm == 256.0
        assert stats.mean_ctas_per_sm == 2.0


class TestStatsCollector:
    def test_launch_lifecycle(self):
        collector = StatsCollector()
        collector.begin_launch("k1", 0, 32)
        collector.on_issue(None)
        collector.on_issue(None)
        done = collector.end_launch(500)
        assert done.instructions == 2
        assert done.cycles == 500
        assert collector.launches == [done]
        assert collector.current is None

    def test_launch_indices_increment(self):
        collector = StatsCollector()
        collector.begin_launch("a", 0, 32)
        collector.end_launch(10)
        second = collector.begin_launch("b", 10, 32)
        assert second.launch_index == 1

    def test_issue_outside_launch_ignored(self):
        collector = StatsCollector()
        collector.on_issue(None)  # no current launch: no crash

    def test_total_cycles(self):
        collector = StatsCollector()
        collector.begin_launch("a", 0, 32)
        collector.end_launch(100)
        collector.begin_launch("b", 100, 32)
        collector.end_launch(250)
        assert collector.total_cycles() == 250

    def test_sample_weighted_by_delta(self):
        class FakeCTA:
            live_warp_count = 2

        class FakeCore:
            core_id = 3
            ctas = [FakeCTA()]
            live_warps, live_threads = 2, 64

        collector = StatsCollector()
        collector.begin_launch("k", 0, 32)
        collector.sample([FakeCore()], delta=10)
        cur = collector.current
        assert cur.busy_sm_cycles == 10
        assert cur.warp_cycles == 20
        assert cur.thread_cycles == 640
        assert cur.cta_cycles == 10
        assert cur.cores_used == {3}


class TestCopy:
    """``LaunchStats.copy`` stands in for ``copy.deepcopy`` wherever
    launch records are snapshotted, restored or replayed."""

    def source(self):
        return make_stats(end_cycle=350, instructions=7, busy_sm_cycles=9,
                          warp_cycles=40, cores_used={0, 3}, grid_ctas=4,
                          threads_per_cta=64, regs_per_thread=12)

    def test_a_copy_equals_its_source_and_shares_nothing(self):
        stats = self.source()
        dup = stats.copy()
        assert dup == stats and dup is not stats
        assert vars(dup) == vars(copy.deepcopy(stats))
        assert list(vars(dup)) == list(vars(stats))  # field order kept
        dup.cores_used.add(5)
        dup.instructions += 1
        assert stats.cores_used == {0, 3} and stats.instructions == 7

    def test_a_snapshot_digests_like_a_deep_copy(self):
        collector = StatsCollector()
        for index in range(2):
            collector.begin_launch(f"k{index}", 100 * index, 32)
            collector.current.cores_used.add(index)
            collector.end_launch(100 * index + 50)
        collector.begin_launch("k2", 200, 32)
        collector.current.instructions = 11
        deep = {"launches": copy.deepcopy(collector.launches),
                "current": copy.deepcopy(collector.current)}
        snap = collector.snapshot()
        assert part_digest({"stats": snap}) == part_digest({"stats": deep})
        restored = StatsCollector()
        restored.restore(snap)
        assert part_digest({"stats": restored.snapshot()}) == \
            part_digest({"stats": deep})
        restored.current.cores_used.add(7)
        restored.launches[0].instructions = 99
        assert part_digest({"stats": snap}) == part_digest({"stats": deep})

    def test_an_idle_collector_snapshots_no_current(self):
        collector = StatsCollector()
        assert collector.snapshot() == {"launches": [], "current": None}
        collector.restore(collector.snapshot())
        assert collector.current is None
