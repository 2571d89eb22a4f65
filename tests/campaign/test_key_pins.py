"""Cache keys pinned to literal values.

Campaign result stores, the fuzz campaign cache and the service's verdict
cache are all addressed by these digests. Removing a config field that
was never part of the hashed record must not move them: every value
below was computed before the execution-strategy fields left
``GPUConfig`` / ``HAccRGConfig``, so a mismatch means existing caches
would silently miss.
"""

from repro.campaign.jobs import Job
from repro.common.config import DetectionMode, HAccRGConfig
from repro.fuzz.worker import FuzzJob
from repro.serve.backends import get_backend


def test_bench_job_keys_pinned():
    full = Job.from_call("SCAN", HAccRGConfig(mode=DetectionMode.FULL),
                         scale=0.5, seed=3)
    assert full.key() == (
        "b7249689dbefecded461c3f11846d6a420204fa54c6eae49a1e68eb38cd3b089")
    assert Job.from_call("HIST").key() == (
        "c976a7eaee1411e4acb555474a82a4257768ad16cf7f89afc9a9c5311c7667e9")


def test_fuzz_job_keys_pinned():
    assert FuzzJob(seed=42, index=7).key() == (
        "986612186e02c66652c24213a05ca7b9a39f59f11f4e890666e9428209ef0e26")
    job = FuzzJob(seed=42, index=7, modes=("hw-full",),
                  static_prefilter=True)
    assert job.key() == (
        "e73b13f86f3417ca1613978f03f915bb438552523311f0d0be6b54777bdeaa97")


def test_serve_backend_config_digests_pinned():
    pins = {
        "haccrg-bloom":
            "f8a070e0968ca6109ae74592d864eba96474f044275639f5ae290a3f7342dcae",
        "haccrg-full":
            "d1159679dbe25239a3b34e8db34aa1db2ca9942df2ae70a446fb0864e387acda",
        "swdetect":
            "27c66808daa36d2eba32f73ad3aebd63eeadffe7496b76ba7d14bf39c098b117",
        "oracle":
            "2d625a818624940bc993a4a8f5c93f9c8d8d5b9b21903b1a949a4795751a6d73",
    }
    for name, digest in pins.items():
        assert get_backend(name).config_digest() == digest, name
