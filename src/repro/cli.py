"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``list`` — show the benchmark suite and its metadata;
- ``run BENCH`` — run one benchmark under a chosen detection mode and
  print races + performance counters;
- ``experiment ID`` — regenerate one paper artifact (table1, table2,
  effectiveness, injected, table3, bloom, idsizes, fig7, fig8, fig9,
  table4, hwcost, ablations, vmtlb, multigpu);
- ``reproduce`` — regenerate everything, in paper order; with
  ``--workers N --cache DIR`` the experiment grid is pre-computed in
  parallel through the campaign engine and every re-run is incremental;
  ``--gpus N`` (N > 1) renders the multi-GPU extension section instead
  (see docs/MULTIGPU.md);
- ``campaign list/run/status/clean`` — drive experiment grids through
  the parallel campaign engine (see docs/CAMPAIGNS.md).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from repro.bench.suite import SUITE
from repro.common.config import (
    DetectionMode,
    DetectorBackend,
    HAccRGConfig,
)
from repro.harness import ablations as ab
from repro.harness import experiments as ex
from repro.harness import report
from repro.harness import vm_experiment as vme
from repro.harness.runner import run_benchmark

_MODES = {
    "off": DetectionMode.OFF,
    "shared": DetectionMode.SHARED,
    "global": DetectionMode.GLOBAL,
    "full": DetectionMode.FULL,
}

_BACKENDS = {
    "hardware": DetectorBackend.HARDWARE,
    "software": DetectorBackend.SOFTWARE,
    "grace": DetectorBackend.GRACE,
}


def _cmd_list(args) -> int:
    print(f"{'name':8s} {'fences':>7s} {'locks':>6s} {'real bug':>9s}  inputs")
    for b in SUITE:
        print(f"{b.name:8s} {'yes' if b.uses_fences else '-':>7s} "
              f"{'yes' if b.uses_locks else '-':>6s} "
              f"{'yes' if b.has_real_race else '-':>9s}  {b.scaled_input}")
    return 0


def _cmd_run(args) -> int:
    mode = _MODES[args.mode]
    cfg = None
    if mode != DetectionMode.OFF:
        cfg = HAccRGConfig(
            mode=mode,
            backend=_BACKENDS[args.backend],
            shared_granularity=args.shared_granularity,
            global_granularity=args.global_granularity,
        )
    if args.tlb:
        # translation modeling is a live observer, so it takes the direct
        # (session-bypassing) path; the probe prices the paired app+shadow
        # lookup whenever a detector is attached
        from repro.harness.runner import run_benchmark_direct
        from repro.harness.vm_experiment import TLBProbe

        probe = TLBProbe(entries=args.tlb, shadowed=cfg is not None)
        res = run_benchmark_direct(args.bench.upper(), cfg,
                                   scale=args.scale, observers=(probe,))
    else:
        res = run_benchmark(args.bench.upper(), cfg, scale=args.scale)
    print(f"{res.name}: {res.cycles} cycles, "
          f"{res.stats.instructions} instructions, "
          f"DRAM util {res.dram_utilization:.1%}, "
          f"L1 hit {res.l1_hit_rate:.1%}")
    if res.phases is not None:
        ph = res.phases
        print(f"phases: {ph.issue_cycles} issue / {ph.idle_cycles} idle "
              f"cycles, {ph.detector_stall_cycles} detector-stall "
              f"({ph.access_stall_cycles} access, "
              f"{ph.barrier_stall_cycles} barrier, "
              f"{ph.fence_stall_cycles} fence), "
              f"shadow traffic {ph.shadow_traffic_bytes} B")
    if res.tlb is not None:
        t = res.tlb
        print(f"tlb: {t['app_accesses']} app + {t['shadow_accesses']} "
              f"shadow lookups, app miss {t['app_miss_rate']:.1%}, "
              f"total miss {t['total_miss_rate']:.1%}, "
              f"{t['walks']} page walks")
    if res.races is not None:
        print(f"races: {len(res.races)} distinct "
              f"({res.shared_races()} shared, {res.global_races()} global)")
        for r in res.races.reports[: args.max_races]:
            print("  " + r.describe())
        hidden = len(res.races) - args.max_races
        if hidden > 0:
            print(f"  ... and {hidden} more")
        if args.diagnose and len(res.races):
            from repro.harness.diagnose import diagnose
            sim = getattr(res.detector, "sim", None)
            mem = sim.device_mem if sim is not None else None
            print()
            print(diagnose(res.races, mem).render())
    return 0


_EXPERIMENTS = {
    "table1": lambda s: report.render_table1(ex.table1_config()),
    "table2": lambda s: report.render_table2(
        ex.table2_characteristics(scale=s)),
    "effectiveness": lambda s: report.render_effectiveness(
        ex.effectiveness_real_races(scale=s)),
    "injected": lambda s: report.render_injected(
        ex.effectiveness_injected_races(scale=s)),
    "table3": lambda s: report.render_table3(ex.table3_granularity(scale=s)),
    "bloom": lambda s: report.render_bloom(ex.bloom_accuracy_study()),
    "idsizes": lambda s: report.render_idsizes(ex.id_size_study(scale=s)),
    "fig7": lambda s: _figure(ex.fig7_performance(scale=s),
                              report.render_fig7, "chart_fig7"),
    "fig8": lambda s: _figure(ex.fig8_shadow_split(scale=s),
                              report.render_fig8, "chart_fig8"),
    "fig9": lambda s: _figure(ex.fig9_bandwidth(scale=s),
                              report.render_fig9, "chart_fig9"),
    "table4": lambda s: report.render_table4(
        ex.table4_memory_overhead(scale=s)),
    "hwcost": lambda s: report.render_hw_cost(ex.hw_cost_report()),
    "vmtlb": lambda s: vme.render_vm_tlb(vme.vm_tlb_study(scale=s)),
    "multigpu": lambda s: _multigpu_section(s, gpus=2),
    "ablations": lambda s: "\n\n".join([
        ab.render_ablation("fence-ID suppression",
                           ab.ablation_fence_suppression(scale=s),
                           "races (with)", "races (without)"),
        ab.render_ablation("warp-aware suppression",
                           ab.ablation_warp_suppression(scale=s),
                           "races (with)", "races (without)"),
        ab.render_ablation("lazy sync-ID increment",
                           ab.ablation_sync_id_optimization(scale=s),
                           "max incr (lazy)", "max incr (eager)"),
        ab.render_ablation("dirty-only shadow write-back",
                           ab.ablation_shadow_writeback(scale=s),
                           "shadow txns", "shadow txns (naive)"),
    ]),
}


def _figure(data, table_renderer, chart_name: str) -> str:
    """Figures print both the numeric table and the ASCII bar chart."""
    from repro.harness import charts

    return "\n\n".join([table_renderer(data),
                        getattr(charts, chart_name)(data)])


def _multigpu_section(scale: float, gpus: int) -> str:
    from repro.multigpu.experiment import multigpu_study, render_multigpu

    return render_multigpu(multigpu_study(scale=scale, gpus=gpus))


def _cmd_experiment(args) -> int:
    if args.id == "multigpu":
        print(_multigpu_section(args.scale, gpus=args.gpus))
        return 0
    print(_EXPERIMENTS[args.id](args.scale))
    return 0


_REPRODUCE_ORDER = ["table1", "table2", "effectiveness", "injected",
                    "table3", "bloom", "idsizes", "fig7", "fig8", "fig9",
                    "table4", "hwcost", "vmtlb", "ablations"]

#: default on-disk result cache location for campaign-backed commands
DEFAULT_CACHE = ".repro-cache"


def _render_reproduce(scale: float) -> None:
    for exp_id in _REPRODUCE_ORDER:
        print(_EXPERIMENTS[exp_id](scale))
        print()


def _cmd_reproduce(args) -> int:
    if args.gpus > 1:
        # the multi-GPU extension section: every registered multi-device
        # benchmark plus the injection matrix, detector vs oracle. The
        # single-GPU tables are unaffected by the device count, so this
        # renders the one section that is.
        print(_multigpu_section(args.scale, gpus=args.gpus))
        return 0
    if args.profile:
        # profile the single-process render path: the cProfile stats
        # cover simulation + detection end to end, which is what the
        # engine fast path optimizes
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        try:
            _render_reproduce(args.scale)
        finally:
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stderr)
            stats.sort_stats("cumulative")
            print(f"\n--- profile: top {args.profile_top} by cumulative "
                  f"time ---", file=sys.stderr)
            stats.print_stats(args.profile_top)
        return 0

    if args.cache is None and args.workers <= 1:
        _render_reproduce(args.scale)
        return 0

    from repro.campaign import (
        ResultStore,
        get_campaign,
        run_campaign,
        session,
    )
    from repro.campaign.progress import ProgressReporter

    store = ResultStore(args.cache or DEFAULT_CACHE)
    if args.workers > 1:
        # pre-fill the cache in parallel: every run_benchmark cell the
        # reproduce pass will issue, executed by the worker pool
        campaign = get_campaign("reproduce")
        progress = ProgressReporter(total=0, quiet=args.quiet)
        run = run_campaign(campaign, store, scale=args.scale,
                           workers=args.workers, timeout=args.timeout,
                           retries=args.retries, progress=progress)
        if run.failed:
            print(run.state.summary(), file=sys.stderr)
    with session(store) as sess:
        _render_reproduce(args.scale)
    print(f"[cache] {sess.cache_hits} hits, {sess.executed} simulated, "
          f"store at {store.root}", file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# campaign verbs
# ---------------------------------------------------------------------------

def _state_path(args, store) -> Path:
    if getattr(args, "state", None):
        return Path(args.state)
    return store.root / f"state-{args.campaign}.json"


def _cmd_campaign_list(args) -> int:
    from repro.campaign import CAMPAIGNS

    print(f"{'name':14s} {'cells':>6s}  description")
    for name in sorted(CAMPAIGNS):
        c = CAMPAIGNS[name]
        print(f"{name:14s} {len(c.jobs(args.scale)):6d}  {c.description}")
    return 0


def _cmd_campaign_run(args) -> int:
    from repro.campaign import (
        CampaignInterrupted,
        ProgressReporter,
        ResultStore,
        get_campaign,
        run_campaign,
    )

    try:
        campaign = get_campaign(args.campaign)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    store = ResultStore(args.cache)
    progress = ProgressReporter(total=0, quiet=args.quiet,
                                min_interval=args.progress_interval)
    try:
        run = run_campaign(
            campaign, store, scale=args.scale, workers=args.workers,
            timeout=args.timeout, retries=args.retries,
            state_path=_state_path(args, store),
            retry_failed=args.retry_failed, progress=progress)
    except CampaignInterrupted as exc:
        print(str(exc), file=sys.stderr)
        return 130
    print(run.state.summary())
    if args.report:
        Path(args.report).write_text(
            json.dumps(run.report, indent=2, sort_keys=True) + "\n",
            encoding="utf-8")
        print(f"report written to {args.report}", file=sys.stderr)
    else:
        print(json.dumps(run.report, indent=2, sort_keys=True))
    return 1 if run.failed else 0


def _cmd_campaign_status(args) -> int:
    from repro.campaign import CampaignState, ResultStore

    store = ResultStore(args.cache)
    path = _state_path(args, store)
    if not path.exists():
        print(f"no campaign state at {path}", file=sys.stderr)
        return 1
    state = CampaignState.load(path, args.campaign)
    print(state.summary())
    print(f"store: {len(store)} cached result(s) at {store.root}")
    return 1 if state.failures() else 0


def _cmd_campaign_clean(args) -> int:
    from repro.campaign import ResultStore

    store = ResultStore(args.cache)
    older = args.older_than * 86400.0 if args.older_than is not None else None
    removed = store.prune(older_than_seconds=older)
    scope = (f"older than {args.older_than:g} day(s)"
             if older is not None else "all entries")
    print(f"removed {removed} cache entr(ies) ({scope}) from {store.root}")
    if args.states:
        for path in sorted(Path(store.root).glob("state-*.json")):
            path.unlink()
            print(f"removed {path}")
    return 0


# ---------------------------------------------------------------------------
# trace + fuzz verbs
# ---------------------------------------------------------------------------

def _cmd_trace_record(args) -> int:
    from repro.harness.runner import run_benchmark_direct
    from repro.harness.trace import TraceRecorder, write_trace

    recorder = TraceRecorder()
    run_benchmark_direct(args.bench.upper(), detector_config=None,
                         scale=args.scale, seed=args.seed,
                         timing_enabled=False, observers=(recorder,))
    write_trace(args.output, recorder.events,
                binary=True if args.binary else None)
    size = os.path.getsize(args.output)
    print(f"{args.bench.upper()}: {len(recorder.events)} events -> "
          f"{args.output} ({size} bytes)")
    return 0


def _cmd_trace_replay(args) -> int:
    from repro.common.errors import TraceFormatError
    from repro.harness.trace import read_trace, replay

    try:
        events = read_trace(args.trace)
    except TraceFormatError as exc:
        print(f"error: {args.trace}: {exc}", file=sys.stderr)
        return 2

    if args.backend is not None:
        # service-backend replay: emit the canonical verdict JSON, byte-
        # identical to what the detection service serves for this trace
        from repro.serve.backends import (
            BackendError, canonical_json, get_backend, trace_digest,
            verdict_record)
        try:
            backend = get_backend(args.backend)
            record = verdict_record(trace_digest(events), backend, events)
        except BackendError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        sys.stdout.write(canonical_json(record) + "\n")
        return 0

    mode = _MODES[args.mode]
    if mode == DetectionMode.OFF:
        print("error: replay needs a detection mode", file=sys.stderr)
        return 2
    cfg = HAccRGConfig(mode=mode,
                       shared_granularity=args.shared_granularity,
                       global_granularity=args.global_granularity,
                       sync_id_bits=args.sync_id_bits,
                       fence_id_bits=args.fence_id_bits)
    log = replay(events, cfg, perfect_sigs=args.perfect_sigs)
    print(f"{args.trace}: {len(events)} events, {len(log)} distinct races")
    for r in log.reports[: args.max_races]:
        print("  " + r.describe())
    hidden = len(log) - args.max_races
    if hidden > 0:
        print(f"  ... and {hidden} more")
    if args.oracle:
        from repro.core.groundtruth import (detector_entries,
                                            oracle_entries, oracle_races)
        races = oracle_races(events)
        orc = oracle_entries(races, cfg.shared_granularity,
                             cfg.global_granularity,
                             cfg.mode.shared_enabled,
                             cfg.mode.global_enabled)
        det = detector_entries(log, cfg.mode.shared_enabled,
                               cfg.mode.global_enabled)
        print(f"oracle: {len(races)} racing byte-pairs, {len(orc)} entries; "
              f"detector-only {len(det - orc)}, oracle-only {len(orc - det)}")
    return 0


def _cmd_fuzz(args) -> int:
    if args.gpus > 1:
        from repro.multigpu.fuzz import MGFuzzParams, run_mg_fuzz

        summary = run_mg_fuzz(args.seed, args.iterations,
                              MGFuzzParams(gpus=args.gpus),
                              static_prefilter=args.static_prefilter)
        if args.json:
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(f"mg-fuzz: {summary['iterations']} iterations on "
                  f"{args.gpus} devices "
                  f"({summary['prefiltered']} statically prefiltered), "
                  f"{summary['racy_programs']} racy "
                  f"programs ({summary['oracle_races']} oracle / "
                  f"{summary['detector_races']} detector races), "
                  f"digest {summary['digest'][:16]}")
            for c in summary["contradictions"]:
                print(f"  CONTRADICTION: {c}")
            for c in summary["static_contradictions"]:
                print(f"  STATIC CONTRADICTION: {c}")
        return 1 if (summary["contradictions"]
                     or summary["static_contradictions"]) else 0

    from repro.fuzz import GeneratorParams, run_fuzz_campaign

    params = GeneratorParams(inject_every=args.inject_every)
    result = run_fuzz_campaign(
        seed=args.seed, iterations=args.iterations, workers=args.workers,
        params=params, modes=tuple(args.mode or ()),
        cache_dir=args.cache, corpus_dir=args.corpus,
        minimize=args.minimize,
        static_prefilter=args.static_prefilter, timeout=args.timeout)
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"fuzz: {summary['iterations']} iterations "
              f"({summary['cache_hits']} cached, "
              f"{summary['prefiltered']} prefiltered, "
              f"{summary['errors']} errors), "
              f"corpus digest {summary['digest'][:16]}")
        print(f"  programs: " + ", ".join(
            f"{k}={v}" for k, v in sorted(summary["programs_by_note"].items())))
        for name, res in sorted(summary["modes"].items()):
            fp = ", ".join(f"{k}={v}" for k, v in sorted(res["fp"].items()))
            fn = ", ".join(f"{k}={v}" for k, v in sorted(res["fn"].items()))
            print(f"  {name}: detected {res['detected']} vs oracle "
                  f"{res['oracle']}; fp [{fp or '-'}] fn [{fn or '-'}]")
        print(f"  real reproduction bugs: {summary['real_bugs']}"
              + (f" {summary['real_bug_hashes']}"
                 if summary['real_bug_hashes'] else ""))
    return 1 if summary["real_bugs"] else 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.serve.app import ServiceConfig, run_service

    config = ServiceConfig(
        host=args.host, port=args.port, store=args.store,
        workers=args.workers, timeout=args.timeout, retries=args.retries,
        high_water=args.high_water, rate=args.rate, burst=args.burst)
    try:
        asyncio.run(run_service(config))
    except KeyboardInterrupt:
        print("repro-serve: shutting down")
    return 0


def _cmd_submit(args) -> int:
    from repro.serve.backends import backend_names
    from repro.serve.client import JobFailed, ServiceClient, ServiceError

    if args.list_backends:
        for name in backend_names():
            print(name)
        return 0
    if args.trace is None or not args.backend:
        print("error: submit needs a trace file and at least one "
              "--backend (or --list-backends)", file=sys.stderr)
        return 2
    program = None
    if args.program is not None:
        program = json.loads(Path(args.program).read_text(encoding="utf-8"))

    with ServiceClient(args.server, client_id=args.client) as client:
        try:
            receipt = client.upload(args.trace)
        except (ServiceError, ConnectionError, OSError) as exc:
            print(f"error: upload failed: {exc}", file=sys.stderr)
            return 1
        if not args.json:
            print(f"uploaded {args.trace}: trace {receipt['digest'][:16]}... "
                  f"({receipt['events']} events, {receipt['bytes']} bytes)")
        failures = 0
        for backend in args.backend:
            try:
                state = client.submit(receipt["digest"], backend,
                                      program=program)
                if state["status"] not in ("done", "error", "timeout",
                                           "crashed"):
                    state = client.wait(state["job"], timeout=args.timeout)
                verdict_body = client.verdict_bytes(state["verdict"])
                if args.json:
                    sys.stdout.write(verdict_body.decode("utf-8") + "\n")
                else:
                    verdict = json.loads(verdict_body)
                    result = verdict["result"]
                    races = result.get("distinct", result.get("count"))
                    cached = " (cached)" if state.get("cached") else ""
                    print(f"{backend}: {races} distinct races, verdict "
                          f"{state['verdict'][:16]}...{cached}")
            except (ServiceError, JobFailed, TimeoutError) as exc:
                failures += 1
                print(f"error: {backend}: {exc}", file=sys.stderr)
        return 1 if failures else 0


def _cmd_analyze_mg(args) -> int:
    """Multi-device static analysis: the ``--gpus N`` route.

    Exit codes are script-friendly: 0 = every region proved race-free,
    1 = static-vs-oracle contradiction or worker error (an analyzer
    bug), 2 = racy verdicts present, 3 = unknown verdicts only.
    """
    from repro.analyze.mgworker import run_mg_analyze_campaign

    bench = args.bench
    result = run_mg_analyze_campaign(
        gpus=args.gpus, seed=args.seed, iterations=args.iterations,
        workers=args.workers, benchmarks=bench is not None,
        injected=args.injected, validate=args.validate,
        cache_dir=args.cache, timeout=args.timeout)
    if bench not in (None, "all"):
        result.results = [r for r in result.results
                          if r.get("source") != "bench"
                          or f"mgbench:{bench.upper()}:"
                          in r.get("note", "")]
    summary = result.summary()
    summary["gpus"] = args.gpus
    summary["programs_detail"] = [
        {
            "note": rec.get("note", ""),
            "verdicts": rec.get("verdicts", {}),
            "placement": rec.get("report", {}).get("placement"),
            "validation_ok": rec.get("validation", {}).get("ok"),
        }
        for rec in result.results
    ]
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        v = summary["verdicts"]
        print(f"analyze[x{args.gpus}]: {summary['programs']} programs "
              f"({summary['cache_hits']} cached, {summary['errors']} "
              f"errors): {v['racy']} racy, {v['unknown']} unknown, "
              f"{v['race_free']} race-free regions")
        for rec in result.results:
            rv = rec.get("verdicts", {})
            line = (f"  {rec.get('note') or rec['hash']}: "
                    f"racy={rv.get('racy', 0)} "
                    f"unknown={rv.get('unknown', 0)} "
                    f"race-free={rv.get('race_free', 0)}")
            placement = rec.get("report", {}).get("placement")
            if placement:
                per_dev = ", ".join(
                    f"d{d['device']}:{len(d['local_arrays'])} local"
                    f"+{len(d['visible_shared_arrays'])} shared"
                    for d in placement["devices"])
                line += (f" [{placement['shared_pages']} shared pages; "
                         f"{per_dev}]")
            val = rec.get("validation")
            if val is not None:
                line += (" [oracle ok]" if val["ok"]
                         else f" [CONTRADICTED: {val['contradictions']}]")
            print(line)
        if args.validate:
            t = summary["validation"]
            print(f"  oracle cross-check: {t['racy_confirmed']} witnesses "
                  f"confirmed, {t['race_free_clean']} regions clean, "
                  f"{t['unknown']} unknown, "
                  f"{summary['contradictions']} contradictions "
                  f"(fp={t['static_fp']} fn={t['static_fn']})")
    if summary["contradictions"]:
        return 1
    if summary["verdicts"]["racy"]:
        return 2
    if summary["verdicts"]["unknown"]:
        return 3
    return 0


def _cmd_analyze(args) -> int:
    if args.gpus > 1:
        return _cmd_analyze_mg(args)

    from repro.analyze import run_analyze_campaign

    bench = args.bench
    result = run_analyze_campaign(
        seed=args.seed, iterations=args.iterations, workers=args.workers,
        benchmarks=bench is not None, injected=args.injected,
        validate=args.validate, cache_dir=args.cache,
        timeout=args.timeout)
    if bench not in (None, "all"):
        result.results = [r for r in result.results
                          if r.get("source") != "bench"
                          or f"bench:{bench}:" in r.get("note", "")]
    summary = result.summary()
    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        v = summary["verdicts"]
        print(f"analyze: {summary['programs']} programs "
              f"({summary['cache_hits']} cached, {summary['errors']} "
              f"errors): {v['racy']} racy, {v['unknown']} unknown, "
              f"{v['race_free']} race-free regions")
        for rec in result.results:
            rv = rec.get("verdicts", {})
            line = (f"  {rec.get('note') or rec['hash']}: "
                    f"racy={rv.get('racy', 0)} "
                    f"unknown={rv.get('unknown', 0)} "
                    f"race-free={rv.get('race_free', 0)}")
            val = rec.get("validation")
            if val is not None:
                line += (" [oracle ok]" if val["ok"]
                         else f" [CONTRADICTED: {val['contradictions']}]")
            print(line)
        if args.validate:
            t = summary["validation"]
            print(f"  oracle cross-check: {t['racy_confirmed']} witnesses "
                  f"confirmed, {t['race_free_clean']} regions clean, "
                  f"{t['unknown']} unknown, "
                  f"{summary['contradictions']} contradictions")
    return 1 if summary["contradictions"] else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="HAccRG reproduction: run benchmarks and regenerate "
                    "the paper's tables and figures.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite").set_defaults(
        fn=_cmd_list)

    run_p = sub.add_parser("run", help="run one benchmark with detection")
    run_p.add_argument("bench", choices=[b.name for b in SUITE],
                       type=str.upper)
    run_p.add_argument("--mode", choices=sorted(_MODES), default="full")
    run_p.add_argument("--backend", choices=sorted(_BACKENDS),
                       default="hardware")
    run_p.add_argument("--shared-granularity", type=int, default=4)
    run_p.add_argument("--global-granularity", type=int, default=4)
    run_p.add_argument("--scale", type=float, default=1.0)
    run_p.add_argument("--max-races", type=int, default=10)
    run_p.add_argument("--tlb", type=int, default=0, metavar="ENTRIES",
                       help="model address translation through an "
                            "ENTRIES-entry tagged TLB (repro.vm) and "
                            "report its statistics; runs the direct "
                            "(uncached) path")
    run_p.add_argument("--diagnose", action="store_true",
                       help="group races into per-array findings with "
                            "suggested fixes")
    run_p.set_defaults(fn=_cmd_run)

    exp_p = sub.add_parser("experiment",
                           help="regenerate one paper artifact")
    exp_p.add_argument("id", choices=sorted(_EXPERIMENTS))
    exp_p.add_argument("--scale", type=float, default=1.0)
    exp_p.add_argument("--gpus", type=int, default=2,
                       help="device count for the multigpu experiment "
                            "(ignored by single-GPU experiments)")
    exp_p.set_defaults(fn=_cmd_experiment)

    rep_p = sub.add_parser("reproduce",
                           help="regenerate every table and figure")
    rep_p.add_argument("--scale", type=float, default=1.0)
    rep_p.add_argument("--gpus", type=int, default=1,
                       help="with N > 1, render the multi-GPU extension "
                            "section on an N-device system instead of "
                            "the single-GPU tables (docs/MULTIGPU.md)")
    rep_p.add_argument("--workers", type=int, default=1,
                       help="pre-compute the experiment grid with N "
                            "parallel workers before rendering")
    rep_p.add_argument("--cache", default=None, metavar="DIR",
                       help="result-store directory; makes reproduce "
                            f"incremental across runs (default "
                            f"{DEFAULT_CACHE} when --workers > 1)")
    rep_p.add_argument("--timeout", type=float, default=None,
                       help="per-job timeout in seconds (parallel only)")
    rep_p.add_argument("--retries", type=int, default=1,
                       help="retries per failed job (parallel only)")
    rep_p.add_argument("--quiet", action="store_true",
                       help="suppress per-job progress lines")
    rep_p.add_argument("--profile", action="store_true",
                       help="run under cProfile and dump the hottest "
                            "functions to stderr (single-process only)")
    rep_p.add_argument("--profile-top", type=int, default=25,
                       metavar="N",
                       help="functions shown with --profile "
                            "(default: 25)")
    rep_p.set_defaults(fn=_cmd_reproduce)

    camp_p = sub.add_parser(
        "campaign", help="run experiment grids through the campaign engine")
    camp_sub = camp_p.add_subparsers(dest="verb", required=True)

    def _common(sp, with_campaign: bool = True):
        if with_campaign:
            sp.add_argument("campaign", help="campaign name (see "
                                             "'campaign list')")
        sp.add_argument("--cache", default=DEFAULT_CACHE, metavar="DIR",
                        help="result-store directory "
                             f"(default {DEFAULT_CACHE})")
        sp.add_argument("--state", default=None, metavar="FILE",
                        help="campaign state file (default "
                             "<cache>/state-<campaign>.json)")

    list_p = camp_sub.add_parser("list", help="list known campaigns")
    list_p.add_argument("--scale", type=float, default=1.0)
    list_p.set_defaults(fn=_cmd_campaign_list)

    crun_p = camp_sub.add_parser(
        "run", help="run (or resume) a campaign through the worker pool")
    _common(crun_p)
    crun_p.add_argument("--scale", type=float, default=1.0)
    crun_p.add_argument("--workers", type=int, default=1)
    crun_p.add_argument("--timeout", type=float, default=None,
                        help="per-job timeout in seconds (runs at least "
                             "one worker process)")
    crun_p.add_argument("--retries", type=int, default=1,
                        help="retries per failed job")
    crun_p.add_argument("--retry-failed", action="store_true",
                        help="re-queue jobs a previous run marked failed")
    crun_p.add_argument("--report", default=None, metavar="FILE",
                        help="write the JSON campaign report here "
                             "instead of stdout")
    crun_p.add_argument("--quiet", action="store_true")
    crun_p.add_argument("--progress-interval", type=float, default=0.0,
                        help="min seconds between progress lines")
    crun_p.set_defaults(fn=_cmd_campaign_run)

    stat_p = camp_sub.add_parser("status",
                                 help="show a campaign's job states")
    _common(stat_p)
    stat_p.set_defaults(fn=_cmd_campaign_status)

    clean_p = camp_sub.add_parser(
        "clean", help="prune the result store (and optionally state files)")
    _common(clean_p, with_campaign=False)
    clean_p.add_argument("--older-than", type=float, default=None,
                         metavar="DAYS",
                         help="only remove entries older than DAYS "
                              "(default: remove everything)")
    clean_p.add_argument("--states", action="store_true",
                         help="also remove campaign state files")
    clean_p.set_defaults(fn=_cmd_campaign_clean)

    trace_p = sub.add_parser(
        "trace", help="record and replay execution traces")
    trace_sub = trace_p.add_subparsers(dest="trace_command", required=True)

    trec_p = trace_sub.add_parser(
        "record", help="record a benchmark's access trace (no detector)")
    trec_p.add_argument("bench", choices=[b.name for b in SUITE],
                        type=str.upper)
    trec_p.add_argument("-o", "--output", required=True, metavar="PATH",
                        help="trace file (.bin = compact binary, else "
                             "JSON-lines)")
    trec_p.add_argument("--scale", type=float, default=1.0)
    trec_p.add_argument("--seed", type=int, default=0)
    trec_p.add_argument("--binary", action="store_true",
                        help="force the binary format regardless of suffix")
    trec_p.set_defaults(fn=_cmd_trace_record)

    trep_p = trace_sub.add_parser(
        "replay", help="replay a trace through the detection structures")
    trep_p.add_argument("trace", help="trace file (binary or JSON-lines)")
    trep_p.add_argument("--mode", choices=sorted(_MODES), default="full")
    trep_p.add_argument("--shared-granularity", type=int, default=4)
    trep_p.add_argument("--global-granularity", type=int, default=4)
    trep_p.add_argument("--sync-id-bits", type=int, default=8)
    trep_p.add_argument("--fence-id-bits", type=int, default=8)
    trep_p.add_argument("--perfect-sigs", action="store_true",
                        help="replace Bloom lock signatures with exact "
                             "per-lock bits (aliasing ablation)")
    trep_p.add_argument("--oracle", action="store_true",
                        help="also run the exact happens-before oracle "
                             "and report the entry-level diff")
    trep_p.add_argument("--max-races", type=int, default=10)
    trep_p.add_argument("--backend", default=None, metavar="NAME",
                        help="replay through a named service backend and "
                             "print the canonical verdict JSON (byte-"
                             "identical to the detection service's "
                             "response; see docs/SERVICE.md)")
    trep_p.set_defaults(fn=_cmd_trace_replay)

    fuzz_p = sub.add_parser(
        "fuzz", help="differential kernel fuzzing against the exact "
                     "happens-before oracle (see docs/FUZZING.md)")
    fuzz_p.add_argument("--seed", type=int, default=0)
    fuzz_p.add_argument("--iterations", type=int, default=100)
    fuzz_p.add_argument("--workers", type=int, default=1)
    fuzz_p.add_argument("--gpus", type=int, default=1,
                        help="with N > 1, run the multi-GPU differential "
                             "fuzzer on an N-device system instead "
                             "(docs/MULTIGPU.md); other flags except "
                             "--seed/--iterations/--json are ignored")
    fuzz_p.add_argument("--inject-every", type=int, default=2,
                        help="inject a planned race into every Nth "
                             "program (0 = never)")
    fuzz_p.add_argument("--mode", action="append", metavar="NAME",
                        help="detector mode(s) to diff (default: all; "
                             "repeatable)")
    fuzz_p.add_argument("--cache", default=None, metavar="DIR",
                        help="campaign result store for resumable runs")
    fuzz_p.add_argument("--corpus", default=None, metavar="DIR",
                        help="corpus directory (programs, reproducer "
                             "traces, summary)")
    fuzz_p.add_argument("--minimize", action="store_true",
                        help="delta-debug real-bug reproducers")
    fuzz_p.add_argument("--timeout", type=float, default=None,
                        help="per-iteration timeout in seconds (runs "
                             "at least one worker process)")
    fuzz_p.add_argument("--static-prefilter", action="store_true",
                        help="skip the simulator for programs the static "
                             "analyzer proves race-free (see "
                             "docs/ANALYSIS.md)")
    fuzz_p.add_argument("--json", action="store_true",
                        help="print the full summary as JSON")
    fuzz_p.set_defaults(fn=_cmd_fuzz)

    an_p = sub.add_parser(
        "analyze", help="static race analysis, differentially validated "
                        "against the oracle (see docs/ANALYSIS.md)")
    an_p.add_argument("--seed", type=int, default=0)
    an_p.add_argument("--iterations", type=int, default=0,
                      help="number of fuzz-generated programs to analyze")
    an_p.add_argument("--workers", type=int, default=1)
    an_p.add_argument("--gpus", type=int, default=1,
                      help="with N > 1, run the scope-aware multi-device "
                           "analysis (XGPU race class) instead: --bench "
                           "selects MG benchmark models, --iterations "
                           "analyzes mg-fuzz seeds; exit code 0 = proved "
                           "race-free, 2 = racy, 3 = unknown "
                           "(docs/ANALYSIS.md)")
    an_p.add_argument("--bench", default=None, metavar="NAME",
                      help="also analyze benchmark models ('all' or one "
                           "benchmark name)")
    an_p.add_argument("--injected", action="store_true",
                      help="include every injected variant of the "
                           "41-race catalog")
    an_p.add_argument("--no-validate", dest="validate",
                      action="store_false",
                      help="skip the oracle cross-check (no simulation)")
    an_p.add_argument("--cache", default=None, metavar="DIR",
                      help="campaign result store for resumable runs")
    an_p.add_argument("--timeout", type=float, default=None,
                      help="per-program timeout in seconds (runs at "
                           "least one worker process)")
    an_p.add_argument("--json", action="store_true",
                      help="print the full summary as JSON")
    an_p.set_defaults(fn=_cmd_analyze)

    srv_p = sub.add_parser(
        "serve", help="run the async detection service over HART traces "
                      "(see docs/SERVICE.md)")
    srv_p.add_argument("--host", default="127.0.0.1")
    srv_p.add_argument("--port", type=int, default=8037,
                       help="listen port (0 = pick a free port)")
    srv_p.add_argument("--store", default=".serve-store", metavar="DIR",
                       help="root for the trace store and verdict cache")
    srv_p.add_argument("--workers", type=int, default=2,
                       help="replay worker processes (0 = run replays "
                            "inline in threads)")
    srv_p.add_argument("--timeout", type=float, default=120.0,
                       help="per-job replay timeout (seconds)")
    srv_p.add_argument("--retries", type=int, default=1,
                       help="retries for timed-out/crashed jobs")
    srv_p.add_argument("--high-water", type=int, default=64,
                       help="queue depth past which submissions get 429")
    srv_p.add_argument("--rate", type=float, default=50.0,
                       help="per-client job submissions per second")
    srv_p.add_argument("--burst", type=float, default=100.0,
                       help="per-client token-bucket burst size")
    srv_p.set_defaults(fn=_cmd_serve)

    sub_p = sub.add_parser(
        "submit", help="upload a trace to a running detection service "
                       "and fetch verdicts (see docs/SERVICE.md)")
    sub_p.add_argument("trace", nargs="?", default=None,
                       help="trace file (binary or JSON-lines)")
    sub_p.add_argument("--server", default="http://127.0.0.1:8037",
                       metavar="URL")
    sub_p.add_argument("--backend", action="append", default=[],
                       metavar="NAME",
                       help="detector backend(s) to run (repeatable)")
    sub_p.add_argument("--program", default=None, metavar="FILE",
                       help="program-spec JSON (required by the 'static' "
                            "backend)")
    sub_p.add_argument("--client", default=None, metavar="ID",
                       help="client id for rate limiting (X-Client)")
    sub_p.add_argument("--timeout", type=float, default=300.0,
                       help="seconds to wait for each verdict")
    sub_p.add_argument("--json", action="store_true",
                       help="print the raw canonical verdict JSON, one "
                            "line per backend")
    sub_p.add_argument("--list-backends", action="store_true",
                       help="list registered backends and exit")
    sub_p.set_defaults(fn=_cmd_submit)

    return p


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # stdout consumer (e.g. `| head`) closed early; exit quietly the
        # way coreutils do, without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
