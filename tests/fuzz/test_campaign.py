"""Campaign integration: jobs, executor registry, cache, determinism."""

import pytest

from repro.campaign.jobs import (JOB_EXECUTORS, Job, JobSpecError,
                                 execute_record, register_executor)
from repro.fuzz.corpus import CorpusStore, corpus_digest
from repro.fuzz.generator import GeneratorParams
from repro.fuzz.worker import FuzzJob, run_fuzz_campaign

FAST = GeneratorParams(max_safe_stmts=3)
MODES = ("hw-full-word", "software")


class TestFuzzJob:
    def test_record_roundtrip(self):
        job = FuzzJob(seed=7, index=3, params=FAST, modes=MODES)
        again = FuzzJob.from_record(job.record())
        assert again == job
        assert again.key() == job.key()
        assert again.iteration_seed == 10

    def test_key_depends_on_params(self):
        a = FuzzJob(seed=0, index=0)
        b = FuzzJob(seed=0, index=0, params=FAST)
        assert a.key() != b.key()

    def test_from_record_rejects_bench_records(self):
        bench = Job.from_call("SCAN", scale=0.25)
        with pytest.raises(JobSpecError):
            FuzzJob.from_record(bench.record())


class TestExecutorRegistry:
    def test_both_kinds_registered(self):
        assert set(JOB_EXECUTORS) >= {"bench", "fuzz"}

    def test_fuzz_record_dispatches(self):
        job = FuzzJob(seed=1, index=0, params=FAST, modes=MODES)
        result = execute_record(job.record())
        assert result["iteration_seed"] == 1
        assert result["real_bugs"] == 0
        assert set(result["modes"]) == set(MODES)

    def test_bench_record_dispatches(self):
        # records without a kind are legacy bench cells
        record = Job.from_call("SCAN", scale=0.25,
                               timing_enabled=False).record()
        result = execute_record(record)
        assert result["name"] == "SCAN"

    def test_unknown_kind_rejected(self):
        # "perf" is a retired kind: its old records must fail typed
        for kind in ("nope", "perf"):
            with pytest.raises(JobSpecError, match="no executor"):
                execute_record({"schema": 1, "kind": kind})

    def test_register_validates_target(self):
        with pytest.raises(JobSpecError):
            register_executor("bad", "no_colon_here")


class TestCampaignDeterminism:
    def test_identical_runs_identical_digest(self):
        a = run_fuzz_campaign(seed=0, iterations=8, params=FAST,
                              modes=MODES)
        b = run_fuzz_campaign(seed=0, iterations=8, params=FAST,
                              modes=MODES)
        assert a.digest == b.digest
        assert a.summary() == b.summary()
        assert a.real_bugs == 0

    def test_digest_tracks_content(self):
        a = run_fuzz_campaign(seed=0, iterations=4, params=FAST,
                              modes=MODES)
        b = run_fuzz_campaign(seed=1, iterations=4, params=FAST,
                              modes=MODES)
        assert a.digest != b.digest

    def test_corpus_digest_order_independent(self):
        recs = run_fuzz_campaign(seed=0, iterations=4, params=FAST,
                                 modes=MODES).iterations
        assert corpus_digest(recs) == corpus_digest(list(reversed(recs)))


class TestCacheAndCorpus:
    def test_second_run_fully_cached(self, tmp_path):
        cache = str(tmp_path / "cache")
        cold = run_fuzz_campaign(seed=0, iterations=6, params=FAST,
                                 modes=MODES, cache_dir=cache)
        warm = run_fuzz_campaign(seed=0, iterations=6, params=FAST,
                                 modes=MODES, cache_dir=cache)
        assert cold.cache_hits == 0
        assert warm.cache_hits == 6
        assert warm.digest == cold.digest
        hot, ref = warm.summary(), cold.summary()
        hot.pop("cache_hits"), ref.pop("cache_hits")
        assert hot == ref

    def test_corpus_persists_interesting_programs(self, tmp_path):
        corpus = str(tmp_path / "corpus")
        result = run_fuzz_campaign(seed=0, iterations=6, params=FAST,
                                   modes=MODES, corpus_dir=corpus)
        store = CorpusStore(corpus)
        # every injected (non-safe) program lands in the corpus
        injected = [r for r in result.iterations if r["note"] != "safe"]
        assert len(store.list_programs()) >= len(injected) > 0
        summary = store.read_summary()
        assert summary["digest"] == result.digest
        assert summary["real_bugs"] == 0


@pytest.mark.slow
class TestParallelWorkers:
    def test_parallel_matches_serial(self, tmp_path):
        serial = run_fuzz_campaign(seed=0, iterations=6, params=FAST,
                                   modes=MODES)
        parallel = run_fuzz_campaign(seed=0, iterations=6, params=FAST,
                                     modes=MODES, workers=2)
        assert parallel.digest == serial.digest
        assert parallel.summary() == serial.summary()
