"""End-to-end campaign runs: parity, resume, fault reporting, CLI.

The acceptance contract: campaign-mode results (parallel workers, served
through the store) are *exactly* equal to direct serial ``run_benchmark``
results; a warm-cache pass performs zero simulator executions; a failing
cell is retried, reported, and never stops the rest of the grid.
"""

import os

import pytest

from repro.campaign.campaigns import Campaign, _cell
from repro.campaign.engine import run_campaign, session
from repro.campaign.jobs import Job
from repro.campaign.queue import DONE, FAILED
from repro.campaign.store import ResultStore
from repro.cli import main
from repro.common.config import DetectionMode, HAccRGConfig
from repro.harness.runner import run_benchmark, run_benchmark_direct

WORD = HAccRGConfig(mode=DetectionMode.FULL, shared_granularity=4,
                    global_granularity=4)

#: fig7-style mini grid: baseline vs full detection, timing on
GRID = [("SCAN", None), ("SCAN", WORD), ("REDUCE", None), ("REDUCE", WORD)]


def _mini_grid(scale):
    return [
        _cell(f"mini/{name}-{'full' if cfg else 'base'}", name, cfg,
              scale=0.1)
        for name, cfg in GRID
    ]


MINI = Campaign("mini", "fig7-style parity grid", _mini_grid)


def _faulty_grid(scale):
    cells = _mini_grid(scale)
    cells.append(("mini/broken", Job.from_call(
        "SCAN", WORD, scale=0.1, timing_enabled=False,
        overrides={"no_such_parameter": 1})))
    return cells


FAULTY = Campaign("faulty", "mini grid plus one broken cell", _faulty_grid)


@pytest.mark.slow
class TestParity:
    def test_parallel_campaign_matches_direct_serial(self, tmp_path):
        """The acceptance parity test: cold 2-worker campaign, then every
        cell served from the store compares exactly equal (dataclass
        equality, race logs included) to a fresh serial simulation."""
        store = ResultStore(tmp_path / "cache")
        run = run_campaign(MINI, store, workers=2)
        assert run.failed == 0
        assert len(store) == len(GRID)

        with session(store) as sess:
            for name, cfg in GRID:
                cached = run_benchmark(name, cfg, scale=0.1)
                direct = run_benchmark_direct(name, cfg, scale=0.1)
                assert cached == direct, f"{name} diverged through the cache"
        assert sess.cache_hits == len(GRID)
        assert sess.executed == 0

    def test_warm_rerun_executes_nothing(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        cold = run_campaign(MINI, store, workers=1)
        assert cold.report["executed"] == len(GRID)

        warm = run_campaign(MINI, store, workers=1)
        assert warm.failed == 0
        assert warm.report["executed"] == 0  # zero simulator executions
        assert warm.report["cached"] == len(GRID)

    def test_corrupt_store_entry_requeued(self, tmp_path):
        # the cache pass must validate entries, not just stat them: a
        # corrupt file is evicted and its cell re-simulated
        store = ResultStore(tmp_path / "cache")
        run_campaign(MINI, store, workers=1)
        _, path = next(iter(store.entries()))
        path.write_text("garbage", encoding="utf-8")
        rerun = run_campaign(MINI, store, workers=1)
        assert rerun.failed == 0
        assert rerun.report["executed"] == 1  # only the evicted cell
        assert len(store) == len(GRID)

    def test_interrupted_campaign_resumes(self, tmp_path):
        # simulate a driver killed mid-campaign: two cells already stored,
        # a state file left behind with one cell still marked running
        store = ResultStore(tmp_path / "cache")
        labeled = MINI.jobs()
        for _, job in labeled[:2]:
            from repro.campaign.jobs import execute
            store.put(job, execute(job))
        state_path = store.root / "state-mini.json"
        run = run_campaign(MINI, store, workers=1, state_path=state_path)
        assert run.failed == 0
        counts = run.state.counts()
        assert counts[DONE] == len(labeled)
        cached = [js for js in run.state.jobs.values() if js.cached]
        assert len(cached) == 2  # pre-stored cells were not re-simulated


@pytest.mark.slow
class TestFaultHandling:
    def test_broken_cell_fails_after_retries_rest_completes(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        run = run_campaign(FAULTY, store, workers=2, retries=1)
        assert run.failed == 1
        counts = run.state.counts()
        assert counts[DONE] == len(GRID)
        assert counts[FAILED] == 1
        (failure,) = run.state.failures()
        assert failure.label == "mini/broken"
        assert failure.attempts == 2  # retries=1 means two attempts
        assert "TypeError" in failure.error
        assert "FAILED mini/broken" in run.state.summary()
        assert len(store) == len(GRID)  # good cells all landed

    def test_failed_cell_skipped_unless_retry_requested(self, tmp_path):
        store = ResultStore(tmp_path / "cache")
        state_path = tmp_path / "state.json"
        run_campaign(FAULTY, store, workers=1, retries=0,
                     state_path=state_path)
        rerun = run_campaign(FAULTY, store, workers=1, retries=0,
                             state_path=state_path)
        (failure,) = rerun.state.failures()
        assert failure.attempts == 1  # not re-dispatched
        retried = run_campaign(FAULTY, store, workers=1, retries=0,
                               state_path=state_path, retry_failed=True)
        (failure,) = retried.state.failures()
        assert failure.attempts == 2


@pytest.mark.slow
class TestCLI:
    def test_campaign_run_and_status(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        rc = main(["campaign", "run", "smoke", "--cache", cache,
                   "--workers", "1", "--quiet"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "campaign: smoke" in out
        assert '"cache_hit_ratio"' in out

        rc = main(["campaign", "status", "smoke", "--cache", cache])
        out = capsys.readouterr().out
        assert rc == 0
        assert "failed: 0" in out

    @pytest.mark.slow
    def test_timeout_enforced_with_one_worker(self, tmp_path, capsys):
        """``--workers 1 --timeout`` runs a worker process it can kill,
        so every cell overruns and fails, as at ``--workers 2``."""
        import multiprocessing

        cache = str(tmp_path / "cache")
        rc = main(["campaign", "run", "smoke", "--cache", cache,
                   "--workers", "1", "--timeout", "0.01", "--retries", "0",
                   "--quiet"])
        capsys.readouterr()
        assert rc == 1
        rc = main(["campaign", "status", "smoke", "--cache", cache])
        out = capsys.readouterr().out
        assert rc == 1
        assert "failed: 4" in out
        assert out.count("timeout:") == 4
        assert multiprocessing.active_children() == []

    def test_status_reports_failure_nonzero(self, tmp_path, capsys):
        # graft a failed cell into the smoke state: status must surface it
        from repro.campaign.queue import CampaignState

        cache = tmp_path / "cache"
        store = ResultStore(cache)
        state = CampaignState.load(store.root / "state-smoke.json", "smoke")
        state.sync_jobs([("smoke/broken", "0" * 64)])
        state.mark_running("0" * 64)
        state.mark_failed("0" * 64, "TypeError: boom")
        state.save()

        rc = main(["campaign", "status", "smoke", "--cache", str(cache)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAILED smoke/broken" in out

    def test_status_without_state_errors(self, tmp_path, capsys):
        rc = main(["campaign", "status", "smoke", "--cache",
                   str(tmp_path / "empty")])
        assert rc == 1
        assert "no campaign state" in capsys.readouterr().err

    def test_campaign_clean(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "cache")
        from repro.campaign.jobs import execute
        job = Job.from_call("SCAN", scale=0.05, timing_enabled=False)
        store.put(job, execute(job))
        (store.root / "state-smoke.json").write_text("{}", encoding="utf-8")

        rc = main(["campaign", "clean", "--cache", str(store.root),
                   "--older-than", "30"])
        assert rc == 0
        assert len(store) == 1  # entry is fresh, cutoff keeps it

        rc = main(["campaign", "clean", "--cache", str(store.root),
                   "--states"])
        assert rc == 0
        assert len(store) == 0
        assert not (store.root / "state-smoke.json").exists()


def _speedup_grid(scale):
    # enough distinct cells that four workers amortize their ~1 s spawn
    return [
        _cell(f"speed/{name}-{'full' if cfg else 'base'}-s{seed}", name,
              cfg, scale=0.2, seed=seed)
        for name in ("SCAN", "REDUCE", "HIST")
        for cfg in (None, WORD)
        for seed in (0, 1)
    ]


SPEED = Campaign("speed", "cold-cache speedup grid", _speedup_grid)


@pytest.mark.slow
@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 4,
                    reason="needs >= 4 usable cores to show a speedup")
class TestSpeedup:
    def test_four_workers_beat_serial_cold(self, tmp_path):
        import time

        def timed(workers):
            store = ResultStore(tmp_path / f"cache-{workers}")
            start = time.perf_counter()
            run = run_campaign(SPEED, store, workers=workers)
            assert run.failed == 0
            return time.perf_counter() - start

        serial = timed(1)
        parallel = timed(4)
        # generous bound: worker startup is ~1 s, but four simulating
        # processes must still beat one on a >= 4-core machine
        assert parallel < serial * 0.9, (
            f"4 workers took {parallel:.1f}s vs serial {serial:.1f}s")
