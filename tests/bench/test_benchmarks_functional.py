"""Functional correctness of every benchmark kernel (no detector)."""

import numpy as np
import pytest

from repro.bench.suite import SUITE, get_benchmark
from repro.common.config import GPUConfig
from repro.gpu import GPUSimulator

SMALL_GPU = dict(num_sms=4, num_clusters=2)

#: overrides selecting the race-free configuration per benchmark
RACE_FREE = {
    "SCAN": {"num_blocks": 1},
    "KMEANS": {"num_update_blocks": 1},
    "OFFT": {"fix_bug": True},
}

VERIFIABLE = [b.name for b in SUITE if b.name != "OFFT"]


@pytest.mark.parametrize("name", VERIFIABLE)
def test_verifies_at_default_scale(name):
    sim = GPUSimulator(GPUConfig(**SMALL_GPU), timing_enabled=False)
    plan = get_benchmark(name).plan(sim, **RACE_FREE.get(name, {}))
    plan.run(sim)
    assert plan.verify is not None
    plan.verify()


@pytest.mark.parametrize("name", VERIFIABLE)
def test_verifies_at_small_scale(name):
    sim = GPUSimulator(GPUConfig(**SMALL_GPU), timing_enabled=False)
    plan = get_benchmark(name).plan(sim, scale=0.25,
                                    **RACE_FREE.get(name, {}))
    plan.run(sim)
    plan.verify()


@pytest.mark.parametrize("name", VERIFIABLE)
def test_different_seed_still_verifies(name):
    sim = GPUSimulator(GPUConfig(**SMALL_GPU), timing_enabled=False)
    plan = get_benchmark(name).plan(sim, seed=99, scale=0.25,
                                    **RACE_FREE.get(name, {}))
    plan.run(sim)
    plan.verify()


@pytest.mark.parametrize("scale", [0.2, 0.4])
def test_fwalsh_verifies_at_non_power_of_two_scales(scale):
    """Scales whose nominal size is no power of two still transform."""
    sim = GPUSimulator(GPUConfig(**SMALL_GPU), timing_enabled=False)
    plan = get_benchmark("FWALSH").plan(sim, scale=scale)
    plan.run(sim)
    plan.verify()


def test_offt_fixed_output_statistics():
    """OFFT has no closed-form verifier; its fixed spectrum must be
    fully populated in the owned half-plane and deterministic."""
    def run():
        sim = GPUSimulator(GPUConfig(**SMALL_GPU), timing_enabled=False)
        plan = get_benchmark("OFFT").plan(sim, fix_bug=True)
        plan.run(sim)
        # spectrum array is the second allocation
        from repro.bench import offt
        return sim

    sim1, sim2 = run(), run()
    v1 = sim1.device_mem.values[:sim1.device_mem.allocated_bytes]
    v2 = sim2.device_mem.values[:sim2.device_mem.allocated_bytes]
    assert np.array_equal(v1, v2)
    assert np.abs(v1).sum() > 0


class TestRacyConfigsStillComplete:
    """The buggy configurations must still run to completion (the races
    corrupt data, not the simulation)."""

    @pytest.mark.parametrize("name", ["SCAN", "KMEANS", "OFFT"])
    def test_completes(self, name):
        sim = GPUSimulator(GPUConfig(**SMALL_GPU), timing_enabled=False)
        plan = get_benchmark(name).plan(sim)
        assert plan.racy_by_design
        plan.run(sim)


class TestMetadata:
    def test_all_benchmarks_registered(self):
        assert [b.name for b in SUITE] == [
            "MCARLO", "SCAN", "FWALSH", "HIST", "SORTNW",
            "REDUCE", "PSUM", "OFFT", "KMEANS", "HASH",
        ]

    def test_paper_inputs_recorded(self):
        for b in SUITE:
            assert b.paper_input
            assert b.scaled_input

    def test_fence_users_match_paper(self):
        """REDUCE, PSUM, KMEANS use fences per the paper (plus HASH's
        pre-release fences in our lock idiom)."""
        users = {b.name for b in SUITE if b.uses_fences}
        assert {"REDUCE", "PSUM", "KMEANS"} <= users

    def test_lookup_case_insensitive(self):
        assert get_benchmark("scan").name == "SCAN"
        with pytest.raises(KeyError):
            get_benchmark("nope")

    def test_data_bytes_positive(self):
        for b in SUITE:
            sim = GPUSimulator(GPUConfig(**SMALL_GPU), timing_enabled=False)
            plan = b.plan(sim, **RACE_FREE.get(b.name, {}))
            assert plan.data_bytes > 0
