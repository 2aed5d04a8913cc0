"""LaunchStats / StatsCollector accounting."""

import pytest

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
