"""Batched engine kernels must be bit-identical to their scalar twins.

Every warp-level shortcut of the engine — the shared/global shadow
checks that skip the same-instruction WAW check for distinct-entry
accesses, the warp-batch coalescer, and the batched bank-conflict
counter — is run here against its scalar reference on randomized
inputs. The scalar walks stay in the engine as the fallback for
straddling and overlapping lanes; these properties localize a
divergence to the specific kernel that caused it.
"""

from hypothesis import given, settings, strategies as st

from repro.common.config import DetectionMode, GPUConfig, HAccRGConfig
from repro.common.types import AccessKind, LaneAccess, MemSpace, WarpAccess
from repro.core.clocks import RaceRegisterFile
from repro.core.races import RaceLog
from repro.core.shadow import SharedShadowTable
from repro.core.shadow_memory import GlobalShadowMemory
from repro.gpu.coalescer import coalesce
from repro.gpu.shared_memory import SharedMemoryModel
from repro.gpu.timing import TimingModel, coalesce_fast

KINDS = (AccessKind.READ, AccessKind.WRITE, AccessKind.ATOMIC)

#: one warp access: (warp, kind index, [(lane, slot)], sig, critical)
access_specs = st.lists(
    st.tuples(
        st.integers(0, 3),
        st.integers(0, 2),
        st.lists(st.tuples(st.integers(0, 31), st.integers(0, 15)),
                 min_size=1, max_size=8, unique_by=lambda t: t[0]),
        st.integers(0, 3),
        st.booleans(),
    ),
    min_size=1, max_size=25,
)


def _warp_access(spec, space):
    warp, kind_i, lane_slots, sig, critical = spec
    kind = KINDS[kind_i]
    lanes = [LaneAccess(lane, slot * 4, 4, kind, sig, critical)
             for lane, slot in sorted(lane_slots)]
    return WarpAccess(space=space, kind=kind, lanes=lanes,
                      sm_id=0, block_id=0, warp_id=warp,
                      warp_in_block=warp, base_tid=warp * 32)


class TestSharedShadowBatch:
    @given(access_specs, st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_batch_matches_scalar(self, specs, barrier_mid):
        """Same access stream, check() vs _check_scalar() on twin
        tables: same races, same state."""
        logs = {}
        tables = {}
        for batched in (True, False):
            log = RaceLog()
            table = SharedShadowTable(64 * 4, 4, log)
            check = table.check if batched else table._check_scalar
            for i, spec in enumerate(specs):
                if barrier_mid and i == len(specs) // 2:
                    table.barrier_reset()
                new = check(_warp_access(spec, MemSpace.SHARED))
                assert new >= 0
            logs[batched], tables[batched] = log, table
        assert logs[True] == logs[False]
        assert tables[True].store == tables[False].store


class TestGlobalShadowBatch:
    @given(access_specs, st.integers(0, 3))
    @settings(max_examples=120, deadline=None)
    def test_batch_matches_scalar(self, specs, sync_bumps):
        """Same access stream, check() vs _check_scalar() on twin
        shadows: same races, same state, same dirtied entries."""
        logs = {}
        shadows = {}
        dirtied = {}
        cfg = HAccRGConfig(mode=DetectionMode.GLOBAL, global_granularity=4)
        for batched in (True, False):
            log = RaceLog()
            rrf = RaceRegisterFile(8)
            g = GlobalShadowMemory(64 * 4, cfg, log, rrf)
            check = g.check if batched else g._check_scalar
            sync = 0
            dirtied[batched] = []
            for i, spec in enumerate(specs):
                if sync_bumps and i % (len(specs) // sync_bumps + 1) == 0:
                    sync += 1
                acc = _warp_access(spec, MemSpace.GLOBAL)
                acc.sync_id = sync
                entries = check(acc)
                assert len(entries) == len(set(entries))
                dirtied[batched].append(entries)
            logs[batched], shadows[batched] = log, g
        assert logs[True] == logs[False]
        assert shadows[True].store == shadows[False].store
        assert shadows[True].stats == shadows[False].stats
        assert dirtied[True] == dirtied[False]


class TestTimingBatch:
    @given(st.lists(st.integers(0, 1023), min_size=1, max_size=32),
           st.sampled_from([1, 2, 4, 8]),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_coalesce_fast_matches_scalar(self, slots, size, is_write):
        addrs = [slot * size for slot in slots]
        lanes = [LaneAccess(i, a, size, AccessKind.READ)
                 for i, a in enumerate(addrs)]
        assert coalesce_fast(addrs, size, is_write, lanes) == \
            coalesce(lanes, is_write)

    @given(st.lists(st.integers(0, 1021), min_size=1, max_size=32),
           st.sampled_from([4, 8]))
    @settings(max_examples=300, deadline=None)
    def test_coalesce_fast_handles_straddlers(self, byte_addrs, size):
        """Unaligned lanes may straddle segments: fallback must kick in."""
        lanes = [LaneAccess(i, a, size, AccessKind.WRITE)
                 for i, a in enumerate(byte_addrs)]
        assert coalesce_fast(byte_addrs, size, True, lanes) == \
            coalesce(lanes, True)

    @given(st.lists(st.integers(0, 511).map(lambda w: w * 4),
                    min_size=0, max_size=32))
    @settings(max_examples=300, deadline=None)
    def test_conflict_passes_match_scalar(self, addrs):
        config = GPUConfig()
        model = TimingModel(config)
        scalar = SharedMemoryModel(config.shared_mem_banks,
                                   config.shared_bank_width)
        lanes = [LaneAccess(i, a, 4, AccessKind.READ)
                 for i, a in enumerate(addrs)]
        assert model._conflict_passes_fast(addrs) == \
            scalar.conflict_passes(lanes)
