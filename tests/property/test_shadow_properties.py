"""Property-based tests for the shadow state machines (hypothesis).

The central soundness/precision invariants:

- a single thread (or warp, under lockstep) can never race with itself;
- interleavings with a barrier between every pair of conflicting accesses
  never report races;
- with fine granularity, any cross-warp write/write or read/write overlap
  inside one barrier interval reports exactly the conflicting entries.
"""

from hypothesis import given, settings, strategies as st

from repro.common.types import AccessKind, LaneAccess, MemSpace, WarpAccess
from repro.core.races import RaceLog
from repro.core.shadow import SharedShadowTable

R, W = AccessKind.READ, AccessKind.WRITE

#: one access: (warp, addr-slot, is_write)
access_strategy = st.tuples(
    st.integers(min_value=0, max_value=3),     # warp id
    st.integers(min_value=0, max_value=15),    # word slot
    st.booleans(),                             # write?
)


def wa(warp, slot, is_write):
    kind = W if is_write else R
    la = LaneAccess(0, slot * 4, 4, kind)
    return WarpAccess(space=MemSpace.SHARED, kind=kind, lanes=[la],
                      sm_id=0, block_id=0, warp_id=warp,
                      warp_in_block=warp, base_tid=warp * 32)


class TestNoSelfRaces:
    @given(st.lists(st.tuples(st.integers(0, 15), st.booleans()),
                    min_size=1, max_size=40))
    def test_single_warp_never_races(self, ops):
        """Any access sequence from one warp is lockstep-ordered."""
        log = RaceLog()
        t = SharedShadowTable(64, 4, log)
        for slot, is_write in ops:
            t.check(wa(0, slot, is_write))
        assert len(log) == 0


class TestBarrierSoundness:
    @given(st.lists(access_strategy, min_size=1, max_size=30))
    def test_barrier_between_all_accesses_never_races(self, ops):
        log = RaceLog()
        t = SharedShadowTable(64, 4, log)
        for warp, slot, is_write in ops:
            t.check(wa(warp, slot, is_write))
            t.barrier_reset()
        assert len(log) == 0

    @given(st.lists(access_strategy, min_size=1, max_size=30))
    def test_reset_is_idempotent(self, ops):
        log = RaceLog()
        t = SharedShadowTable(64, 4, log)
        for warp, slot, is_write in ops:
            t.check(wa(warp, slot, is_write))
        t.barrier_reset()
        t.barrier_reset()
        assert all(t.entry(e).M and t.entry(e).S for e in range(t.n))
        assert t.store == {}


class TestDetectionCompleteness:
    @given(st.lists(access_strategy, min_size=2, max_size=40))
    def test_fine_granularity_matches_oracle(self, ops):
        """At word granularity the detector must report a race iff a
        cross-warp conflicting (>=1 write) pair exists on some slot
        within the interval."""
        log = RaceLog()
        t = SharedShadowTable(64, 4, log)
        for warp, slot, is_write in ops:
            t.check(wa(warp, slot, is_write))

        def oracle():
            for i, (wa_i, s_i, w_i) in enumerate(ops):
                for wa_j, s_j, w_j in ops[i + 1:]:
                    if s_i == s_j and wa_i != wa_j and (w_i or w_j):
                        return True
            return False

        assert (len(log) > 0) == oracle()

    @given(st.lists(access_strategy, min_size=2, max_size=40))
    def test_reported_entries_really_conflict(self, ops):
        """No phantom locations: every reported entry saw a cross-warp
        conflicting pair."""
        log = RaceLog()
        t = SharedShadowTable(64, 4, log)
        for warp, slot, is_write in ops:
            t.check(wa(warp, slot, is_write))
        conflicting = set()
        for i, (wa_i, s_i, w_i) in enumerate(ops):
            for wa_j, s_j, w_j in ops[i + 1:]:
                if s_i == s_j and wa_i != wa_j and (w_i or w_j):
                    conflicting.add(s_i)
        for r in log.reports:
            assert r.entry in conflicting


class TestGranularityMonotonicity:
    @given(st.lists(access_strategy, min_size=2, max_size=30))
    def test_coarse_never_misses_what_fine_reports(self, ops):
        """Coarsening granularity merges entries: it can add false
        positives but never lose a true conflict."""
        def run(gran):
            log = RaceLog()
            t = SharedShadowTable(64, gran, log)
            for warp, slot, is_write in ops:
                t.check(wa(warp, slot, is_write))
            return len(log) > 0

        if run(4):
            assert run(16)
