"""The one race rule (:mod:`repro.core.racerule`) and its judges.

The rule is exhaustively enumerated over the endpoint facts it reads:
same or different warp, block and barrier epoch; a read, write or atomic
on each side; no, common, disjoint or one-sided locks; shared or global
memory; and fence publication and atomic-chain order each ``True``,
``False`` or ``None`` in both orders. The static analyzer's soundness
contract (:mod:`repro.analyze.passes`) must hold on every combination: a
``racy`` verdict races under every exact answer in both orders, and a
``race-free`` verdict is ordered under every exact answer.
"""

from itertools import product
from typing import FrozenSet, NamedTuple

import pytest

from repro.analyze import passes
from repro.analyze.lower import A_GLOBAL, LaneAccess, WarpInstr, WarpStream
from repro.common.types import AccessKind, RaceCategory, RaceKind
from repro.core import groundtruth
from repro.core.racerule import (
    FENCED,
    RACY,
    SAFE,
    UNKNOWN,
    Depends,
    Ordered,
    Race,
    classify,
    order,
)
from repro.fuzz.generator import generate_program
from repro.fuzz.program import record_program
from repro.harness.trace import TraceEvent


class _Ep(NamedTuple):
    wid: int
    bid: int
    epoch: int
    locks: FrozenSet[int]
    atomic: bool
    is_write: bool


#: (wid, bid, epoch) of the second endpoint; the first is warp 0 of
#: block 0 in epoch 0 (warp 1 shares its block, warp 2 does not)
_PLACES = [(0, 0, 0), (0, 0, 1), (1, 0, 0), (1, 0, 1), (2, 1, 0), (2, 1, 1)]
#: (is_write, atomic) of a read, a write and an atomic
_KINDS = [(False, False), (True, False), (True, True)]
_LOCKS = [frozenset(), frozenset({7}), frozenset({8})]
_FACTS = (True, False, None)


def _pairs():
    for place, kinds, locks in product(_PLACES, product(_KINDS, repeat=2),
                                       product(_LOCKS, repeat=2)):
        yield (_Ep(0, 0, 0, locks[0], kinds[0][1], kinds[0][0]),
               _Ep(*place, locks[1], kinds[1][1], kinds[1][0]))


def _answers(fact):
    return (True, False) if fact is None else (fact,)


def _exact(prev, cur, shared, published, chain):
    """One order's outcome under every exact answer the facts allow."""
    return [order(prev, cur, shared, p, c)
            for p in _answers(published) for c in _answers(chain)]


class TestSoundness:
    def test_static_verdicts_hold_under_every_exact_answer(self):
        verdicts = {RACY: 0, SAFE: 0, UNKNOWN: 0}
        for a, b in _pairs():
            for shared, (p_ab, c_ab, p_ba, c_ba) in product(
                    (False, True), product(_FACTS, repeat=4)):
                status, _, _ = classify(
                    a, b, shared, lambda prev, cur: (p_ab, c_ab) if prev is a
                    else (p_ba, c_ba))
                exact = (_exact(a, b, shared, p_ab, c_ab)
                         + _exact(b, a, shared, p_ba, c_ba))
                assert not any(isinstance(o, Depends) for o in exact)
                if status == RACY:
                    assert all(isinstance(o, Race) for o in exact), (a, b)
                elif status == SAFE:
                    assert all(isinstance(o, Ordered) for o in exact), (a, b)
                verdicts[status] += 1
        assert all(verdicts.values())

    def test_stale_reads_only_break_a_fence_ordering(self):
        """A static pass that does not model L1 stays sound because a
        stale read only turns a fence-published pair into a race."""
        for a, b in _pairs():
            for shared, published, chain in product(
                    (False, True), (True, False), (True, False)):
                fresh = order(a, b, shared, published, chain)
                stale = order(a, b, shared, published, chain, stale=True)
                if isinstance(fresh, Ordered) and stale != fresh:
                    assert fresh == FENCED

    def test_static_facts_never_claim_a_fence_ordering(self):
        """The analyzer claims publication only for a store fenced before
        its unlock, which the rule reads under a common lock alone."""
        class Ctx:
            def __init__(self, fences, atomics):
                self.fences = fences
                self.warp_atomic_bytes = atomics

            def may_fence_after(self, ep):
                return self.fences

        for (a, b), fenced, fences, atomics in product(
                _pairs(), (False, True), (False, True), (False, True)):
            ends = [passes.Endpoint(tid=ep.wid * 32, wid=ep.wid, bid=ep.bid,
                                    epoch=ep.epoch, locks=ep.locks,
                                    atomic=ep.atomic, is_write=ep.is_write,
                                    pos=0, stmt=0, tag="", fenced=fenced)
                    for ep in (a, b)]
            ctx = Ctx(fences, {(b.wid, A_GLOBAL, 0)} if atomics else set())
            known = passes.facts(A_GLOBAL, 0, ctx)(*ends)
            assert order(*ends, False, *known) != FENCED

    def test_oracle_passes_exact_facts(self, monkeypatch):
        calls = []

        def exact_order(prev, cur, shared, published, chain, *rest):
            calls.append((published, chain))
            return order(prev, cur, shared, published, chain, *rest)

        monkeypatch.setattr(groundtruth, "order", exact_order)
        for seed in range(8):
            groundtruth.oracle_races(record_program(generate_program(seed)))
        groundtruth.oracle_races(_drift_trace())
        assert calls
        assert all(isinstance(p, bool) and isinstance(c, bool)
                   for p, c in calls)


# ---------------------------------------------------------------------------
# the atomic chain is judged before locksets, statically too
# ---------------------------------------------------------------------------

_ATOMIC, _READ = int(AccessKind.ATOMIC), int(AccessKind.READ)


def _drift_trace():
    """Warp 0 (block 0) atomics global bytes 0-3; warp 1 (block 1)
    atomics them, then reads them holding lock 7."""
    def access(warp, kind, crit=False):
        return TraceEvent(kind="A", space=1, access_kind=kind,
                          lanes=[(0, 0, 4, 0, crit)], block_id=warp,
                          warp_id=warp, base_tid=warp * 32)
    return [TraceEvent(kind="S", block_id=0), TraceEvent(kind="S", block_id=1),
            access(0, _ATOMIC), access(1, _ATOMIC),
            TraceEvent(kind="L", thread=32, addr=7),
            access(1, _READ, crit=True),
            TraceEvent(kind="U", thread=32, addr=7)]


def _drift_streams():
    def lane(warp, locks=frozenset()):
        return LaneAccess(tid=warp * 32, lane=0, array=A_GLOBAL, addr=0,
                          size=4, locks=locks)
    return [
        WarpStream(0, 0, [WarpInstr(0, 0, "atomic", "G", (lane(0),))]),
        WarpStream(1, 1, [WarpInstr(0, 0, "atomic", "G", (lane(1),)),
                          WarpInstr(1, 0, "read", "G",
                                    (lane(1, frozenset({7})),))]),
    ]


class TestAtomicChainBeforeLocksets:
    def test_oracle_orders_the_read_after_the_chain(self):
        assert groundtruth.oracle_races(_drift_trace()) == []

    def test_static_verdict_depends_on_the_chain(self):
        finding, = passes.classify_program(_drift_streams())[A_GLOBAL]
        assert (finding.lo, finding.hi) == (0, 4)
        assert finding.status == UNKNOWN
        assert "atomic-chain ordering is schedule-dependent" in \
            finding.reasons

    @pytest.mark.parametrize("chain,expected", [
        (True, "ordered"), (False, "race"), (None, "depends")])
    def test_rule_reads_the_chain_first(self, chain, expected):
        atomic = _Ep(0, 0, 0, frozenset(), True, True)
        locked_read = _Ep(1, 1, 0, frozenset({7}), False, False)
        got = order(atomic, locked_read, False, False, chain)
        assert {"ordered": Ordered, "race": Race,
                "depends": Depends}[expected] is type(got)
        if expected == "race":
            assert got == Race(RaceKind.RAW, RaceCategory.GLOBAL_LOCKSET)
