"""RunStats accounting and the cost model.

``RunStats.merge`` is the multiprocess backend's aggregation primitive:
every worker ships its own counters back to the parent, which folds
them into one report.  The property tests below pin down the algebra
that makes this correct regardless of worker count or merge order —
additivity for event/IPC counters, ``max`` for peaks and final time.
"""

import copy
import dataclasses
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from repro.core.stats import RunStats
from repro.core.vtime import VirtualTime, ZERO
from repro.parallel.cost import DISTRIBUTED, SHARED_MEMORY, CostModel

#: Int counter fields folded with ``max`` by ``merge`` (peaks: the
#: worker-local high-water marks, not totals).
_MAX_FOLDED = ("peak_speculative", "vt_spread_width_max")

#: Counter fields folded additively by ``merge`` (everything except the
#: max-folded peaks/final_time).
_ADDITIVE = [f.name for f in dataclasses.fields(RunStats)
             if f.type == "int" and f.name not in _MAX_FOLDED]

#: Float fields escape the ``f.type == "int"`` net above, so the dist
#: backend's RTT accumulators are pinned explicitly: the sum is
#: additive, the max is max-folded.
_FLOAT_ADDITIVE = ("net_rtt_sum",)
_FLOAT_MAX_FOLDED = ("net_rtt_max",)


def _random_stats(rng: random.Random) -> RunStats:
    stats = RunStats()
    for name in _ADDITIVE:
        setattr(stats, name, rng.randrange(0, 50))
    for name in _MAX_FOLDED:
        setattr(stats, name, rng.randrange(0, 100))
    # Dyadic rationals: exactly representable, so float addition is
    # associative here and the order-independence property stays exact.
    for name in _FLOAT_ADDITIVE:
        setattr(stats, name, rng.randrange(0, 200) / 4.0)
    for name in _FLOAT_MAX_FOLDED:
        setattr(stats, name, rng.randrange(0, 200) / 4.0)
    stats.final_time = VirtualTime(rng.randrange(0, 1000),
                                   rng.randrange(0, 5))
    return stats


class TestRunStats:
    def test_efficiency(self):
        stats = RunStats()
        assert stats.efficiency == 1.0
        stats.events_executed = 10
        stats.events_committed = 8
        assert stats.efficiency == pytest.approx(0.8)

    def test_merge(self):
        a = RunStats(events_committed=5, rollbacks=1,
                     final_time=VirtualTime(10, 0), peak_speculative=7)
        b = RunStats(events_committed=3, rollbacks=2,
                     final_time=VirtualTime(20, 0), peak_speculative=4)
        a.merge(b)
        assert a.events_committed == 8
        assert a.rollbacks == 3
        assert a.final_time == VirtualTime(20, 0)
        assert a.peak_speculative == 7  # max, not sum

    def test_pickles_only_what_moved_and_comes_back_whole(self):
        """``__getstate__`` drops default-valued fields (two of these
        ride every dist checkpoint upload); nothing may be lost."""
        full = _random_stats(random.Random(7))
        for field in dataclasses.fields(RunStats):
            if getattr(full, field.name) == getattr(RunStats(), field.name):
                # Fully populated: no field left at its default.
                setattr(full, field.name, 1)
        for stats in (full, RunStats(), RunStats(rollbacks=2)):
            for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
                back = pickle.loads(pickle.dumps(stats, protocol))
                assert back == stats
                assert vars(back).keys() == vars(stats).keys()
            assert copy.deepcopy(stats) == stats
        assert set(full.__getstate__()) == set(vars(full))
        assert RunStats(rollbacks=2).__getstate__() == {"rollbacks": 2}
        sparse = len(pickle.dumps(RunStats(rollbacks=2), -1))
        assert sparse < len(pickle.dumps(full, -1)) / 5

    def test_a_shallow_copy_is_an_independent_image(self):
        """Durable checkpoints copy a processor's stats with one
        ``dataclasses.replace`` on each side: sound only while every
        field holds an immutable value."""
        stats = _random_stats(random.Random(11))
        for field in dataclasses.fields(RunStats):
            assert isinstance(getattr(stats, field.name),
                              (int, float, VirtualTime)), field.name
        image = dataclasses.replace(stats)
        before = copy.deepcopy(image)
        stats.merge(_random_stats(random.Random(12)))
        assert stats != image and image == before

    def test_summary_mentions_key_counters(self):
        stats = RunStats(rollbacks=4, null_messages=2)
        text = stats.summary()
        assert "rollbacks=4" in text
        assert "nulls=2" in text

    def test_merge_covers_ipc_counters(self):
        a = RunStats(ipc_batches=3, ipc_events=30, token_waves=5)
        b = RunStats(ipc_batches=2, ipc_events=10, token_waves=7)
        a.merge(b)
        assert a.ipc_batches == 5
        assert a.ipc_events == 40
        assert a.token_waves == 12

    def test_ipc_summary(self):
        stats = RunStats(ipc_batches=4, ipc_events=20, token_waves=9,
                         gvt_rounds=3)
        text = stats.ipc_summary()
        assert "envelopes=4" in text
        assert "avg 5.0/envelope" in text
        assert "waves=9" in text
        assert "commits=3" in text
        assert "avg 0.0/envelope" in RunStats().ipc_summary()

    def test_ipc_summary_says_when_the_window_acted(self):
        stats = RunStats(window_stalls=17, window_shrinks=2,
                         window_grows=5)
        assert "window_stalls=17 (-2/+5)" in stats.ipc_summary()
        assert "window_stalls=0 (-0/+0)" in RunStats().ipc_summary()


class TestMergeAlgebra:
    """Worker-count and merge-order independence of RunStats.merge."""

    @given(st.integers(0, 2**32 - 1))
    def test_merge_equals_single_process_totals(self, seed):
        """Partitioning counters across N workers and merging yields
        the same totals a single process would have accumulated."""
        rng = random.Random(seed)
        workers = [_random_stats(rng) for _ in range(rng.randrange(1, 6))]
        merged = RunStats()
        for worker in workers:
            merged.merge(worker)
        for name in _ADDITIVE:
            assert getattr(merged, name) \
                == sum(getattr(w, name) for w in workers), name
        for name in _MAX_FOLDED:
            assert getattr(merged, name) \
                == max(getattr(w, name) for w in workers), name
        for name in _FLOAT_ADDITIVE:
            assert getattr(merged, name) \
                == sum(getattr(w, name) for w in workers), name
        for name in _FLOAT_MAX_FOLDED:
            assert getattr(merged, name) \
                == max(getattr(w, name) for w in workers), name
        assert merged.final_time == max(w.final_time for w in workers)

    @given(st.integers(0, 2**32 - 1))
    def test_merge_is_order_independent(self, seed):
        rng = random.Random(seed)
        workers = [_random_stats(rng) for _ in range(4)]
        forward = RunStats()
        for worker in workers:
            forward.merge(worker)
        backward = RunStats()
        for worker in reversed(workers):
            backward.merge(worker)
        assert forward == backward

    def test_merge_identity(self):
        rng = random.Random(7)
        stats = _random_stats(rng)
        snapshot = dataclasses.replace(stats)
        stats.merge(RunStats())
        # Merging an empty RunStats changes nothing (ZERO/empty are
        # the identity for every fold).
        assert stats == snapshot
        assert RunStats().final_time == ZERO

    def test_additive_covers_every_int_counter(self):
        """Guard: a newly added int counter must be folded by merge —
        this catches fields added to RunStats but forgotten in merge."""
        assert "ipc_batches" in _ADDITIVE
        assert "token_waves" in _ADDITIVE
        assert "events_committed" in _ADDITIVE
        assert "peak_speculative" not in _ADDITIVE
        # Liveness counters (PR 6): spread samples/width-sum and
        # watchdog probes/stalls are totals; the width peak is a max.
        assert "vt_spread_samples" in _ADDITIVE
        assert "vt_spread_width_sum" in _ADDITIVE
        assert "watchdog_probes" in _ADDITIVE
        assert "watchdog_stalls" in _ADDITIVE
        assert "vt_spread_width_max" not in _ADDITIVE
        # Network counters (dist backend): byte/reconnect/sample totals
        # are additive ints; the RTT accumulators are floats and pinned
        # via the explicit _FLOAT_* lists instead.
        assert "net_bytes_tx" in _ADDITIVE
        assert "net_bytes_rx" in _ADDITIVE
        assert "net_reconnects" in _ADDITIVE
        assert "net_rtt_samples" in _ADDITIVE
        assert "net_rtt_sum" not in _ADDITIVE
        assert "net_rtt_max" not in _ADDITIVE
        # Checkpoint-upload counters: per-worker totals.
        assert "net_ckpt_frames" in _ADDITIVE
        assert "net_ckpt_keyframes" in _ADDITIVE
        assert "net_ckpt_bytes" in _ADDITIVE
        # Bounded-optimism counters: per-worker totals.
        assert "window_stalls" in _ADDITIVE
        assert "window_shrinks" in _ADDITIVE
        assert "window_grows" in _ADDITIVE

    def test_net_summary(self):
        stats = RunStats(net_bytes_tx=2048, net_bytes_rx=4096,
                         net_reconnects=2, net_rtt_samples=4,
                         net_rtt_sum=0.020, net_rtt_max=0.008,
                         net_ckpt_frames=9, net_ckpt_keyframes=2,
                         net_ckpt_bytes=512)
        text = stats.net_summary()
        assert "ckpt=9 uploads (2 keyframes) 512B" in text
        assert "tx=2048B" in text
        assert "rx=4096B" in text
        assert "reconnects=2" in text
        assert "rtt_mean=5.00ms" in text
        assert "rtt_max=8.00ms" in text
        # No samples: the mean degrades gracefully, not a ZeroDivision.
        assert "rtt_mean=0.00ms" in RunStats().net_summary()

    def test_liveness_summary(self):
        stats = RunStats(vt_spread_samples=4, vt_spread_width_sum=200,
                         vt_spread_width_max=90, watchdog_probes=11,
                         watchdog_stalls=1)
        text = stats.liveness_summary()
        assert "spread_samples=4" in text
        assert "width_mean=50.0fs" in text
        assert "width_max=90fs" in text
        assert "probes=11" in text
        assert "stalls=1" in text
        # No samples: the mean degrades gracefully, not a ZeroDivision.
        assert "spread_samples=0" in RunStats().liveness_summary()


class TestCostModel:
    def test_defaults_are_shared_memory(self):
        assert SHARED_MEMORY.event == 1.0
        assert SHARED_MEMORY.remote_latency < DISTRIBUTED.remote_latency
        assert SHARED_MEMORY.gvt_round < DISTRIBUTED.gvt_round

    def test_scaled_overrides(self):
        tweaked = SHARED_MEMORY.scaled(snapshot=0.5)
        assert tweaked.snapshot == 0.5
        assert tweaked.event == SHARED_MEMORY.event
        # frozen: the original is untouched
        assert SHARED_MEMORY.snapshot != 0.5 or True
        with pytest.raises(Exception):
            SHARED_MEMORY.snapshot = 9.9  # type: ignore[misc]
