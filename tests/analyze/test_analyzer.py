"""Analyzer verdicts, oracle validation, determinism, device layout."""

import pytest

from repro.analyze import (
    analyze_program,
    cross_check,
    device_layout,
    report_json,
)
from repro.analyze.lower import A_GLOBAL, LaneAccess, WarpInstr, WarpStream
from repro.analyze.passes import classify_program
from repro.common.errors import KernelError
from repro.core.groundtruth import oracle_races
from repro.core.racerule import Race, order
from repro.fuzz.generator import generate_program
from repro.fuzz.program import FuzzProgram, record_program

#: every seed from the CI fuzz-smoke prefix; covers all injection kinds
SEEDS = range(25)


def _validated(program):
    report = analyze_program(program)
    races = oracle_races(record_program(program))
    return report, cross_check(report, races)


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_no_contradictions_on_fuzz_seeds(self, seed):
        program = generate_program(seed)
        report, result = _validated(program)
        assert result["ok"], result["contradictions"]

    def test_injected_programs_statically_racy(self):
        # every non-artifact injection must be found without simulation
        for seed in range(40):
            program = generate_program(seed)
            if not program.expected:
                continue
            report = analyze_program(program)
            assert report["verdicts"]["racy"] >= 1, program.note

    def test_safe_programs_fully_proved(self):
        for seed in range(40):
            program = generate_program(seed)
            if program.note != "safe":
                continue
            report = analyze_program(program)
            assert report["verdicts"]["racy"] == 0, program.note
            for region in report["regions"]:
                assert region["status"] == "race-free"
                assert region["proofs"]

    def test_granularity_artifact_not_statically_racy(self):
        # detector-only FP by design: oracle-clean, so the analyzer must
        # prove it race-free rather than echo the detector
        program = generate_program(6)
        assert program.note == "byte_granularity_fp"
        report, result = _validated(program)
        assert report["verdicts"]["racy"] == 0
        assert result["ok"]


class TestWitnesses:
    def test_witness_is_byte_exact(self):
        program = generate_program(2)  # shared_missing_barrier
        report, result = _validated(program)
        racy = [r for r in report["regions"] if r["status"] == "racy"]
        assert racy and result["racy_confirmed"] == len(racy)
        w = racy[0]["witness"]
        assert w["space"] == "SHARED"
        assert w["first"]["stmt"] != w["second"]["stmt"] or \
            w["first"]["tid"] != w["second"]["tid"]

    def test_global_witness_uses_device_bytes(self):
        program = generate_program(10)  # xblock
        report, result = _validated(program)
        assert result["ok"]
        racy = [r for r in report["regions"] if r["status"] == "racy"]
        w = racy[0]["witness"]
        assert w["space"] == "GLOBAL"
        layout = device_layout(program)
        assert w["byte"] == layout["fuzz_g"] + w["array_byte"]


def _rmw_streams(warp_epochs):
    """Warps of block 0 that each run unfenced read-modify-write
    sections on global bytes 0-3 under lock 3, one per listed epoch."""
    def instr(warp, pos, epoch, kind):
        lane = LaneAccess(tid=warp * 32, lane=0, array=A_GLOBAL, addr=0,
                          size=4, locks=frozenset({3}), stmt=pos)
        return WarpInstr(pos, epoch, kind, "G", (lane,))
    return [WarpStream(warp, 0, [instr(warp, 2 * i + k, epoch, kind)
                                 for i, epoch in enumerate(epochs)
                                 for k, kind in enumerate(("read",
                                                           "write"))])
            for warp, epochs in warp_epochs.items()]


class TestLocksetCoupling:
    def test_witness_is_a_pair_the_rule_leaves_unordered(self):
        """Warp 0 runs its section in epochs 0 and 1, warp 1 only in
        epoch 1: the witness must come from epoch 1, not pair warp 0's
        epoch-0 write with warp 1's epoch-1 read across the barrier."""
        finding, = classify_program(_rmw_streams({0: (0, 1), 1: (1,)}))[
            A_GLOBAL]
        assert finding.status == "racy"
        assert (finding.kinds, finding.categories) == (("RAW",),
                                                       ("GLOBAL_FENCE",))
        first, second = finding.witness
        assert {first.wid, second.wid} == {0, 1}
        assert first.epoch == second.epoch == 1
        assert isinstance(order(first, second, False, False, False), Race) \
            or isinstance(order(second, first, False, False, False), Race)

    def test_barrier_ordered_sections_do_not_couple(self):
        finding, = classify_program(_rmw_streams({0: (0,), 1: (1,)}))[
            A_GLOBAL]
        assert finding.status == "race-free"
        assert finding.witness is None


class TestDeterminism:
    def test_byte_identical_report_json(self):
        for seed in (0, 2, 6, 8, 10):
            a = generate_program(seed)
            b = generate_program(seed)
            assert report_json(analyze_program(a)) == \
                report_json(analyze_program(b))

    def test_report_json_round_trips(self):
        import json

        report = analyze_program(generate_program(0))
        assert json.loads(report_json(report)) == json.loads(
            report_json(analyze_program(generate_program(0))))


class TestDeviceLayout:
    def test_layout_mirrors_simulator_allocator(self):
        from repro.common.config import scaled_gpu_config
        from repro.gpu.simulator import GPUSimulator

        program = generate_program(6)  # has a byte-bin array
        sim = GPUSimulator(scaled_gpu_config(), timing_enabled=False)
        g = sim.malloc("fuzz_g", max(1, program.global_words))
        bbin = sim.malloc("fuzz_bytes", max(1, program.byte_bytes),
                          itemsize=1)
        locks = sim.malloc("fuzz_locks", max(1, program.num_locks))
        layout = device_layout(program)
        assert layout["fuzz_g"] == g.base
        assert layout["fuzz_bytes"] == bbin.base
        assert layout["fuzz_locks"] == locks.base

    def test_shared_array_at_offset_zero(self):
        program = generate_program(2)
        assert program.shared_words > 0
        assert device_layout(program)["sh"] == 0


class TestProgramShapes:
    def test_rejects_partial_warps(self):
        from repro.analyze import lower_program

        bad = FuzzProgram(blocks=1, threads=48, global_words=64,
                          shared_words=0, byte_bytes=0, num_locks=1,
                          stmts=({"op": "barrier"},))
        with pytest.raises(ValueError):
            lower_program(bad)

    def test_out_of_range_statement_raises_the_simulators_error(self):
        # the g statement spans 64 words of a 4-word array; lowering
        # indexes the simulator's own device array, so both fail alike
        bad = FuzzProgram(blocks=1, threads=32, global_words=4,
                          shared_words=0, byte_bytes=0, num_locks=1,
                          stmts=({"op": "g", "base": 0, "span": 64},))
        message = "index 4 out of bounds for array 'fuzz_g' of length 4"
        with pytest.raises(KernelError, match=message):
            analyze_program(bad)
        with pytest.raises(KernelError, match=message):
            record_program(bad)

    def test_every_region_has_a_status(self):
        report = analyze_program(generate_program(8))
        assert report["regions"]
        for region in report["regions"]:
            assert region["status"] in ("racy", "unknown", "race-free")
            assert region["device_lo"] < region["device_hi"]
