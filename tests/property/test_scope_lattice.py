"""Property suite for the fence-scope lattice (hypothesis).

Two end-to-end guarantees the ISSUE pins:

- **monotonicity** — strengthening any fence's scope in a multi-device
  program never flips a region from race-free to racy (publication can
  only grow on the chain none < block < device < system);
- **exactness** — on unconditional endpoints the static pair classifier
  agrees with :func:`repro.core.racerule.cross_device_verdict` bit
  for bit under every scope assignment, because it *is* that rule
  applied to reconstructed endpoints.
"""

from hypothesis import given, settings, strategies as st

from repro.analyze.multidevice import (
    MGArray,
    MGKernel,
    MGProgram,
    MGSite,
    build_mg_report,
    classify_site_pair,
)
from repro.analyze.scopes import all_scopes, publishes, scope_join
from repro.core.racerule import DeviceEndpoint, cross_device_verdict

# ---------------------------------------------------------------------------
# lattice-level properties
# ---------------------------------------------------------------------------

scopes = st.sampled_from(all_scopes())


class TestLatticeProperties:
    @given(scopes, scopes, scopes)
    def test_publishes_monotone_in_scope(self, weak, strong, required):
        """A stronger fence publishes everywhere a weaker one does."""
        lo, hi = min(weak, strong), max(weak, strong)
        if publishes(lo, required):
            assert publishes(hi, required)

    @given(scopes, scopes, scopes)
    def test_join_is_least_upper_bound(self, a, b, c):
        j = scope_join(a, b)
        assert j >= a and j >= b
        if c >= a and c >= b:
            assert c >= j


# ---------------------------------------------------------------------------
# program-level monotonicity
# ---------------------------------------------------------------------------

_N = 16


def _stmt(draw):
    op = draw(st.sampled_from(["write", "read", "atomic", "fence"]))
    if op == "fence":
        return {"op": "fence", "scope": draw(st.integers(0, 1))}
    start = draw(st.integers(0, _N - 1))
    stop = draw(st.integers(start + 1, _N))
    return {"op": op, "array": "buf", "start": start, "stop": stop}


@st.composite
def mg_programs(draw):
    """Small random 2-device programs over one shared array."""
    phases = []
    for _ in range(draw(st.integers(1, 2))):
        kernels = []
        for device in range(2):
            n_stmts = draw(st.integers(0, 3))
            if n_stmts:
                kernels.append(MGKernel(
                    device=device,
                    stmts=tuple(_stmt(draw) for _ in range(n_stmts))))
        if kernels:
            phases.append(tuple(kernels))
    return MGProgram(
        gpus=2,
        arrays=(MGArray("buf", _N, home=0, shared=True),),
        phases=tuple(phases),
        note="property")


def _racy_regions(report):
    return {(r["array"], r["lo"], r["hi"]) for r in report["regions"]
            if r["status"] == "racy"}


def _strengthen_fences(program, index):
    """The same program with one device-scope fence promoted to system."""
    device_fences = []
    new_phases = []
    for pi, phase in enumerate(program.phases):
        for ki, kernel in enumerate(phase):
            for si, stmt in enumerate(kernel.stmts):
                if stmt.get("op") == "fence" and not stmt.get("scope"):
                    device_fences.append((pi, ki, si))
    if not device_fences:
        return None
    target = device_fences[index % len(device_fences)]
    for pi, phase in enumerate(program.phases):
        kernels = []
        for ki, kernel in enumerate(phase):
            stmts = []
            for si, stmt in enumerate(kernel.stmts):
                if (pi, ki, si) == target:
                    stmt = dict(stmt, scope=1)
                stmts.append(stmt)
            kernels.append(MGKernel(device=kernel.device,
                                    stmts=tuple(stmts),
                                    grid=kernel.grid, block=kernel.block))
        new_phases.append(tuple(kernels))
    return MGProgram(gpus=program.gpus, arrays=program.arrays,
                     phases=tuple(new_phases), note=program.note)


class TestMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(mg_programs(), st.integers(0, 7))
    def test_strengthening_never_creates_a_race(self, program, index):
        stronger = _strengthen_fences(program, index)
        if stronger is None:
            return  # no device-scope fence to promote
        before = build_mg_report(program)
        after = build_mg_report(stronger)
        assert _racy_regions(after) <= _racy_regions(before)

    @settings(max_examples=30, deadline=None)
    @given(mg_programs())
    def test_all_system_fences_is_a_fixed_point(self, program):
        """Promoting every fence to system scope, twice, changes nothing
        the second time (top of the lattice)."""
        current = program
        while True:
            stronger = _strengthen_fences(current, 0)
            if stronger is None:
                break
            current = stronger
        once = build_mg_report(current)
        assert _strengthen_fences(current, 0) is None
        assert once == build_mg_report(current)


# ---------------------------------------------------------------------------
# pair-rule exactness under randomized scope assignments
# ---------------------------------------------------------------------------

@st.composite
def sites(draw):
    return MGSite(
        device=draw(st.integers(0, 2)),
        phase=draw(st.integers(0, 1)),
        wid=draw(st.integers(0, 1)),
        tid=draw(st.integers(0, 63)),
        bid=0,
        kind=draw(st.integers(0, 2)),
        sys_fenced_after=draw(st.booleans()),
        conditional=False,
        publish_unknown=False,
        stmt=draw(st.integers(0, 9)))


def _endpoint(site):
    return DeviceEndpoint(
        device=site.device, phase=site.phase, wid=site.wid, tid=site.tid,
        bid=site.bid, kind=site.kind,
        sys_fenced_after=site.sys_fenced_after)


class TestExactness:
    @settings(max_examples=300, deadline=None)
    @given(sites(), sites())
    def test_classifier_is_the_oracle_rule(self, a, b):
        status, info, _detail = classify_site_pair(a, b)
        verdict = cross_device_verdict(_endpoint(a), _endpoint(b))
        if verdict is None:
            assert status == "race-free"
            assert info is None
        else:
            kind, category = verdict
            assert status == "racy"
            assert info == (kind.name, category.name)

    @settings(max_examples=100, deadline=None)
    @given(sites(), sites())
    def test_classifier_is_symmetric(self, a, b):
        sa, ia, _ = classify_site_pair(a, b)
        sb, ib, _ = classify_site_pair(b, a)
        assert (sa, ia) == (sb, ib)
