#!/usr/bin/env python3
"""Judge a change against a base revision with interleaved perfbench pairs.

Usage::

    python tools/perf_compare.py BASE [--workload W ...] [--pairs K]
                                      [--seconds S] [--record PATH]

``BASE`` is a git revision; it is exported with ``git archive`` into a
temporary directory. The change is the checkout this file belongs to.
``--workload`` defaults to every workload in ``BENCHMARK.json``,
``--seconds`` to its ``run_seconds`` and ``--pairs`` to 10. The seed is
always 1.

One pair runs, for each side, ``perfbench/run.py --trace 0`` and then
``--trace 1`` from that side's own root. The side that runs first
alternates from pair to pair. A run is invalid when perfbench exits
non-zero, reports ``correct: false`` or ``failed > 0``, or ran with a
``REPRO_*`` override set; the tool then stops at once.

Judging, per workload. A per-layer self time (``*.self_s``) is judged
as its share of the same run's ``trace.wall_s``: a slow stretch of the
host slows every layer of a run together, and the share cancels that,
where seconds per round would carry it into the layer's spread. Other
per-layer metrics in seconds or counts are divided by the run's rounds,
since the two sides can fit different round counts in ``--seconds``;
end-to-end metrics are judged as perfbench reports them (``setup_s`` is
a one-off cost, not a total over rounds). A count metric is compared
exactly (see ``judge_count``): it ``varies`` when two runs of the same
round count on one side give different totals (the count depends on
timing, so no pair can show a change), and ``differs`` when each side
agrees with itself but a run of the base and one of the change at the
same round count do not. Every other metric gets each side's
median and IQR, "better in n/K pairs" (ties count for neither side),
the median shift against the base's IQR, and the two-sided
Mann-Whitney U p. It is flagged
``better`` or ``worse`` when the median shift is larger than the base's
IQR and its p, Holm-Bonferroni adjusted over every such metric of the
workload (``p_holm``, see :func:`holm`), is below 0.05. A workload
judges 41 such metrics, so 6 pairs or fewer flag nothing: the least
two-sided U p is 2/252 = 0.0079 at 5 pairs and 2/924 = 0.0022 at 6,
both above 0.05/41 = 0.0012 (at 10 pairs it is 1.8e-4). An
end-to-end metric is a ``regression`` when the
change's median is worse than the base's by more than its bound in
``BENCHMARK.json`` and the change is also worse in most pairs. It is
``unresolved`` when its median is worse by more than the bound in no
more than half of the pairs (a shift that the pairs do not confirm), or
when the base's IQR/median exceeds the bound.

Exit codes: 0 no regression, 1 a regression, 2 an invalid run, a failed
export, a metric missing from a run, or a usage error. ``--record PATH``
writes the raw samples and every verdict as a schema-2
``BENCH_<n>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
ALPHA = 0.05
SCHEMA = 2
#: per-layer units that are totals over the measured rounds
PER_ROUND_UNITS = ("s", "count")
#: per-layer self times are judged as shares of this metric of the run
WALL = "trace.wall_s"


class InvalidRun(Exception):
    """A perfbench run whose numbers must not be judged."""


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


@contextlib.contextmanager
def exported(commit: str) -> Iterator[Path]:
    """The tree of ``commit`` in a temporary directory (no worktree)."""
    with tempfile.TemporaryDirectory(prefix="perf-compare-") as tmp:
        archive = subprocess.Popen(
            ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
            stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", tmp], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            raise subprocess.CalledProcessError(archive.returncode,
                                                "git archive")
        yield Path(tmp)


def run_perfbench(root: Path, workload: str, seconds: float,
                  trace: int) -> Tuple[int, str]:
    """One perfbench run from ``root``: (exit code, standard output)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, capture_output=True, text=True)
    if proc.returncode:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, proc.stdout


def parse_run(returncode: int, stdout: str) -> Tuple[Dict[str, Any],
                                                      Dict[str, Any]]:
    """The ``info`` and result objects of a valid run."""
    if returncode:
        raise InvalidRun(f"perfbench exited with code {returncode}")
    lines = stdout.strip().splitlines()
    try:
        info = json.loads(lines[-2])["info"]
        result = json.loads(lines[-1])
    except (IndexError, KeyError, ValueError) as exc:
        raise InvalidRun(f"unreadable perfbench output: {exc}") from None
    if info.get("override_set"):
        raise InvalidRun(f"REPRO_* overrides set: {info.get('overrides')}")
    if result.get("correct") is not True or result.get("failed", 0) > 0:
        raise InvalidRun(f"{result.get('failed')} of "
                         f"{result.get('attempted')} jobs failed: "
                         f"{info.get('errors')}")
    return info, result


def schedule(pairs: int) -> List[Tuple[str, str]]:
    """Which side runs first in each pair: base first in even pairs."""
    return [("base", "change") if i % 2 == 0 else ("change", "base")
            for i in range(pairs)]


def layer_sample(name: str, unit: str, run: Dict[str, Any]) -> float:
    """One traced run's sample of a per-layer metric: a self time as a
    share of the run's wall time, another total per round."""
    value = run["metrics"][name]
    if name.endswith(".self_s"):
        return value / run["metrics"][WALL]
    return value / run["rounds"] if unit in PER_ROUND_UNITS else value


def iqr(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def judge_metric(base: Sequence[float], change: Sequence[float],
                 better: str, bound: Optional[float] = None
                 ) -> Dict[str, Any]:
    """Compare the per-pair samples of one timing metric."""
    # scipy is imported here, not at load: a perfbench child starts with
    # this process's peak RSS, and scipy alone is ~99 MB of it
    from scipy.stats import mannwhitneyu

    sign = 1.0 if better == "higher" else -1.0
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    base_iqr = iqr(base)
    shift = change_median - base_median
    p = float(mannwhitneyu(base, change, alternative="two-sided").pvalue)
    p = 1.0 if p != p else p  # all samples tied
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    out = {
        "base_median": base_median, "base_iqr": base_iqr,
        "change_median": change_median, "change_iqr": iqr(change),
        "wins": sum(1 for b, c in zip(base, change) if sign * (c - b) > 0),
        "pairs": len(base),
        "shift_vs_iqr": shift / base_iqr if base_iqr else None,
        "p": p,
        "verdict": "-",
    }
    if p < ALPHA and abs(shift) > base_iqr:
        out["verdict"] = "better" if sign * shift > 0 else "worse"
    if bound is not None:
        spread = base_iqr / abs(base_median) if base_median else 0.0
        worse_by = (-sign * shift / abs(base_median) if base_median
                    else 0.0)
        if worse_by > bound:
            # a median past the bound counts only if the pairs agree
            out["verdict"] = ("regression" if 2 * losses > len(base)
                              else "unresolved")
        elif spread > bound:
            out["verdict"] = "unresolved"
    return out


def holm(ps: Sequence[float]) -> List[float]:
    """Holm-Bonferroni step-down adjusted p-values, in the input order.

    The k-th smallest of m p-values is multiplied by m - k + 1 (k from
    1), capped at 1, and never falls below the one before it. Flagging
    those below ``ALPHA`` keeps the chance that any of the m flags is a
    false alarm at or below ``ALPHA``.
    """
    adjusted = [1.0] * len(ps)
    running = 0.0
    for rank, i in enumerate(sorted(range(len(ps)), key=ps.__getitem__)):
        running = max(running, min(1.0, (len(ps) - rank) * ps[i]))
        adjusted[i] = running
    return adjusted


def judge_count(base: Sequence[Tuple[int, float]],
                change: Sequence[Tuple[int, float]]) -> Dict[str, Any]:
    """Compare (rounds, total) samples of one count metric exactly.

    Runs of the same round count should give the same total. When they
    do not on one side, the count depends on timing (polls, coalesced
    submissions) and cannot be compared exactly: ``varies``. When each
    side agrees with itself and the two sides disagree at a round count:
    ``differs``. Beyond that the sides are ``equal`` when they share a
    round count, or when every total (a count that does not grow with
    rounds) or every total per round is the same. A count that varies
    from round to round, on sides with no round count in common, cannot
    be compared exactly: ``unresolved``.
    """
    def disagree(samples: Sequence[Tuple[int, float]]) -> bool:
        totals: Dict[int, set] = {}
        for rounds, total in samples:
            totals.setdefault(rounds, set()).add(total)
        return any(len(s) > 1 for s in totals.values())

    both = (*base, *change)
    if disagree(base) or disagree(change):
        verdict = "varies"
    elif disagree(both):
        verdict = "differs"
    elif ({r for r, _ in base} & {r for r, _ in change}
          or len({t for _, t in both}) == 1
          or len({t / r for r, t in both}) == 1):
        verdict = "equal"
    else:
        verdict = "unresolved"
    return {
        "base_median": statistics.median(t / r for r, t in base),
        "change_median": statistics.median(t / r for r, t in change),
        "verdict": verdict,
    }


def judge_workload(runs: Dict[str, List[Dict[str, Any]]],
                   spec: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    """Verdicts for every metric of one workload's runs."""
    def samples(side: str, name: str) -> List[float]:
        return [run["trace0"]["metrics"][name] for run in runs[side]]

    def layer_samples(side: str, name: str, unit: str) -> List[float]:
        return [layer_sample(name, unit, run["trace1"])
                for run in runs[side]]

    out = {}
    for m in spec["end_to_end"]:
        out[m["name"]] = judge_metric(
            samples("base", m["name"]), samples("change", m["name"]),
            m["better"], m["bound"])
    for m in spec["per_layer"]:
        if m["unit"] == "count":
            out[m["name"]] = judge_count(
                *[[(run["trace1"]["rounds"],
                    run["trace1"]["metrics"][m["name"]])
                   for run in runs[side]] for side in ("base", "change")])
        else:
            out[m["name"]] = judge_metric(
                layer_samples("base", m["name"], m["unit"]),
                layer_samples("change", m["name"], m["unit"]),
                m["better"])
    # a flag must survive the correction for the workload's many tests;
    # the end-to-end regression and unresolved verdicts stay as judged
    timed = [v for v in out.values() if "p" in v]
    for v, p in zip(timed, holm([v["p"] for v in timed])):
        v["p_holm"] = p
        if v["verdict"] in ("better", "worse") and p >= ALPHA:
            v["verdict"] = "-"
    return out


def measure(roots: Dict[str, Path], workload: str, pairs: int,
            seconds: float) -> Dict[str, List[Dict[str, Any]]]:
    """Run ``pairs`` interleaved pairs; the raw samples of each side."""
    runs: Dict[str, List[Dict[str, Any]]] = {"base": [], "change": []}
    for index, order in enumerate(schedule(pairs)):
        for side in order:
            run = {}
            for trace in (0, 1):
                print(f"[{workload}] pair {index + 1}/{pairs} {side} "
                      f"--trace {trace}", file=sys.stderr, flush=True)
                info, result = parse_run(*run_perfbench(
                    roots[side], workload, seconds, trace))
                run[f"trace{trace}"] = {
                    "rounds": info["rounds"],
                    "metrics": {k: v["value"]
                                for k, v in result["metrics"].items()}}
            runs[side].append(run)
    return runs


def _fmt(value: Optional[float]) -> str:
    return "-" if value is None else f"{value:.4g}"


def render(workload: str, verdicts: Dict[str, Dict[str, Any]]) -> str:
    def cell(median: float, spread: Optional[float] = None) -> str:
        return _fmt(median) + ("" if spread is None
                               else f" ({_fmt(spread)})")

    lines = [f"== {workload}", f"{'metric':30} {'base median (IQR)':>22} "
             f"{'change median (IQR)':>22} {'better':>7} {'shift/IQR':>9} "
             f"{'p':>7} {'p_holm':>7}  verdict"]
    for name, v in verdicts.items():
        timed = "p" in v
        wins = f"{v['wins']}/{v['pairs']}" if timed else ""
        lines.append(
            f"{name:30} {cell(v['base_median'], v.get('base_iqr')):>22} "
            f"{cell(v['change_median'], v.get('change_iqr')):>22} "
            f"{wins:>7} {_fmt(v['shift_vs_iqr']) if timed else '':>9} "
            f"{format(v['p'], '.3g') if timed else '':>7} "
            f"{format(v['p_holm'], '.3g') if timed else '':>7}  "
            f"{v['verdict']}")
    return "\n".join(lines)


def write_record(path: str, record: Dict[str, Any]) -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.common import atomic_write

    atomic_write(path, json.dumps(record, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    known = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", metavar="BASE", help="git revision")
    parser.add_argument("--workload", action="append", choices=known)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--record", metavar="PATH")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs and --seconds must be positive")
    workloads = args.workload or known
    try:
        base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
        change_commit = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain"))
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"error: git: {exc}", file=sys.stderr)
        return 2

    results = {}
    try:
        with exported(base_commit) as base_root:
            roots = {"base": base_root, "change": ROOT}
            # every run comes before the first judgment, which imports
            # scipy (see judge_metric)
            runs = {workload: measure(roots, workload, args.pairs,
                                      args.seconds)
                    for workload in workloads}
        for workload in workloads:
            verdicts = judge_workload(runs[workload], spec)
            print(render(workload, verdicts), flush=True)
            results[workload] = {"runs": runs[workload], "metrics": verdicts}
    except InvalidRun as exc:
        print(f"error: invalid run: {exc}", file=sys.stderr)
        return 2
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"error: base export or perfbench start: {exc}",
              file=sys.stderr)
        return 2
    except KeyError as exc:
        print(f"error: metric {exc} in BENCHMARK.json is missing from a "
              f"perfbench run", file=sys.stderr)
        return 2

    regressions = [f"{w}/{name}" for w, r in results.items()
                   for name, v in r["metrics"].items()
                   if v["verdict"] == "regression"]
    unresolved = [f"{w}/{name}" for w, r in results.items()
                  for name, v in r["metrics"].items()
                  if v["verdict"] == "unresolved"]
    verdict = "regression" if regressions else "no regression"
    print(f"verdict: {verdict}"
          + (f" ({', '.join(regressions)})" if regressions else "")
          + (f"; unresolved: {', '.join(unresolved)}" if unresolved else ""))
    if args.record:
        write_record(args.record, {
            "schema": SCHEMA, "bench": Path(args.record).stem,
            "base": {"rev": args.base, "commit": base_commit},
            "change": {"commit": change_commit, "dirty": dirty},
            "pairs": args.pairs, "seconds": args.seconds, "seed": SEED,
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "workloads": results, "regressions": regressions,
            "unresolved": unresolved, "verdict": verdict})
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
