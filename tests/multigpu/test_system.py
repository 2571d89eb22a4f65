"""MultiGPUSimulator: shared memory, merge barrier, result surfaces."""

import json

import pytest

from repro.common.config import HAccRGConfig
from repro.common.errors import ConfigError
from repro.gpu.device import device_alloc
from repro.gpu.kernel import Kernel
from repro.gpu.simulator import GPUSimulator
from repro.multigpu.recorder import RemoteTrafficRecorder
from repro.multigpu.system import MGLaunch, MultiGPUSimulator, mg_gpu_config

N = 32
BLOCK = 32


def fill_kernel(ctx, buf, n, val):
    gtid = ctx.global_tid_x
    for i in range(gtid, n, ctx.num_threads):
        yield ctx.store(buf, i, float(val))


def sum_kernel(ctx, buf, out, n):
    gtid = ctx.global_tid_x
    acc = 0.0
    for i in range(gtid, n, ctx.num_threads):
        v = yield ctx.load(buf, i)
        acc += v
    yield ctx.store(out, gtid, acc)


def fence_kernel(ctx, buf, n):
    gtid = ctx.global_tid_x
    for i in range(gtid, n, ctx.num_threads):
        yield ctx.store(buf, i, 1.0)
    yield ctx.threadfence_system()
    for i in range(gtid, n, ctx.num_threads):
        yield ctx.store(buf, i, 2.0)
    yield ctx.threadfence()


FILL = Kernel(fill_kernel, name="mgtest_fill")
SUM = Kernel(sum_kernel, name="mgtest_sum")
FENCE = Kernel(fence_kernel, name="mgtest_fence")


def make_system(**kw):
    kw.setdefault("num_devices", 2)
    kw.setdefault("timing_enabled", False)
    return MultiGPUSimulator(**kw)


class TestConstruction:
    def test_requires_at_least_two_devices(self):
        with pytest.raises(ConfigError, match=">= 2 devices"):
            MultiGPUSimulator(num_devices=1)

    def test_mg_gpu_config_defaults_and_overrides(self):
        cfg = mg_gpu_config()
        assert (cfg.num_sms, cfg.num_clusters) == (4, 2)
        assert mg_gpu_config(num_sms=8).num_sms == 8

    def test_devices_share_one_memory_pool(self):
        mg = make_system()
        assert all(sim.device_mem is mg.shared_mem for sim in mg.devices)


class TestRecorderScope:
    """The per-device tap must preserve fence scope for the merge stream."""

    def test_fence_scopes_survive_into_payloads(self):
        sim = GPUSimulator(mg_gpu_config(), timing_enabled=False)
        rec = RemoteTrafficRecorder()
        sim.add_observer(rec)
        buf = device_alloc(sim.device_mem, "buf", N)
        sim.launch(FENCE, 1, BLOCK, (buf, N))
        scopes = [p[2] for _, _, _, p in rec.drain() if p[0] == "F"]
        assert 1 in scopes, "system-scope fence lost its scope"
        assert 0 in scopes, "device-scope fence lost its scope"

    def test_seq_counters_survive_drain(self):
        rec = RemoteTrafficRecorder()
        assert rec._next_seq(0) == 0
        rec.drain()
        # (sm_id, seq) must stay unique across a device's lifetime
        assert rec._next_seq(0) == 1


class TestSharedVisibility:
    def test_peer_write_visible_to_later_phase_read(self):
        mg = make_system()
        buf = mg.malloc("buf", N, home=0, shared=True)
        out = mg.malloc("out", BLOCK, home=1)
        mg.run_phase([MGLaunch(0, FILL, 1, BLOCK, (buf, N, 7))])
        mg.run_phase([MGLaunch(1, SUM, 1, BLOCK, (buf, out, N))])
        assert float(out.host_read().sum()) == 7.0 * N
        res = mg.finalize(name="visibility")
        # host-phase ordering is synchronization: no cross-device race
        assert res.cross_races == []
        assert res.detector_reports == []
        assert res.contradictions == []

    def test_same_phase_overlapping_writes_race(self):
        mg = make_system()
        buf = mg.malloc("buf", N, home=0, shared=True)
        mg.run_phase([
            MGLaunch(0, FILL, 1, BLOCK, (buf, N, 1)),
            MGLaunch(1, FILL, 1, BLOCK, (buf, N, 2)),
        ])
        res = mg.finalize(name="overlap")
        assert res.cross_races, "oracle missed a same-phase W/W overlap"
        assert res.detector_reports, "directory detector missed it too"
        assert all(r.kind.name == "WAW" for r in res.cross_races)
        assert res.contradictions == []

    def test_device_local_traffic_never_reaches_cross_detectors(self):
        mg = make_system()
        a = mg.malloc("a", N, home=0)
        b = mg.malloc("b", N, home=1, shared=False)
        mg.run_phase([
            MGLaunch(0, FILL, 1, BLOCK, (a, N, 1)),
            MGLaunch(1, FILL, 1, BLOCK, (b, N, 2)),
        ])
        res = mg.finalize(name="local")
        assert res.cross_races == []
        assert res.detector_reports == []
        # nothing was shared: the home-node directory tracked no pages
        assert not mg.pool.directory._entries


class TestResultSurfaces:
    def _run(self, **kw):
        mg = make_system(**kw)
        buf = mg.malloc("buf", N, home=0, shared=True)
        mg.run_phase([MGLaunch(0, FILL, 1, BLOCK, (buf, N, 3))])
        mg.run_phase([MGLaunch(1, FILL, 1, BLOCK, (buf, N, 4))])
        return mg, mg.finalize(name="surfaces")

    def test_record_is_json_round_trippable(self):
        _, res = self._run()
        rec = res.record()
        assert json.loads(json.dumps(rec)) == rec
        assert rec["name"] == "surfaces"
        assert rec["num_devices"] == 2
        assert rec["phases"] == 2
        assert rec["events"] > 0
        assert len(rec["tlb"]) == 2
        assert len(rec["device_stats"]) == 2

    def test_digest_covers_the_stream(self):
        _, res = self._run()
        assert len(res.digest) == 64
        _, res2 = self._run()
        assert res2.digest == res.digest  # identical runs, identical digest

    def test_finalize_runs_only_once(self):
        mg, _ = self._run()
        with pytest.raises(ConfigError, match="finalize"):
            mg.finalize()

    def test_remote_traffic_priced_against_home_device(self):
        mg = make_system()
        buf = mg.malloc("buf", N, home=0, shared=True)
        mg.run_phase([MGLaunch(1, FILL, 1, BLOCK, (buf, N, 1))])
        res = mg.finalize(name="remote")
        # device 1 wrote pages homed on device 0: only it pays link cycles
        assert res.remote_cycles[1] > 0
        assert res.remote_cycles[0] == 0
        assert res.interconnect["total_bytes"] >= 4 * N

    def test_tlb_stats_populated_per_device(self):
        _, res = self._run(detector_config=HAccRGConfig())
        assert res.tlb[0]["app_accesses"] > 0
        assert res.tlb[1]["app_accesses"] > 0
        # detector-attached runs price the paired app+shadow lookup
        assert res.tlb[0]["shadow_accesses"] > 0
