"""tfm-lab benchmark: one workload per call, result as JSON on the last line.

    python3 bench/run.py --workload dsic-sweep --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from the checkout's
own `src/`, never from an installed copy.  With `--trace 0` the result
carries the end-to-end metrics; with `--trace 1` it runs one untraced and one
traced round and carries the per-layer metrics instead.  Everything else (run
metadata, raw seconds, tail percentile and sample count, failures) goes to
stderr.

End-to-end times are rescaled to a reference machine speed.  A fixed
pure-Python probe, which uses no tfm_lab code, runs before the first task of
a round and then after any task that ends PROBE_INTERVAL_S or more after the
previous probe; a time t measured between two probes becomes
t * PROBE_REFERENCE_S / (mean of the two probe times).  Other load on a
shared machine slows the probe and the task alike, so the rescaled figure
keeps the program's own cost and drops most of the machine's.

`--record-reference` stores the output digests of this seed in
reference.json; only use it at a commit whose outputs are known to be right.
Workload design and metric mapping: NOTES.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
SETUP_REPEATS = 5
TAIL_BEYOND = 10
# Probe duration that defines the reference speed: about its median between
# tasks on the 2-core x86-64 machine, Python 3.11, the benchmark was written on.
PROBE_REFERENCE_S = 0.0014
PROBE_INTERVAL_S = 0.05

from tracer import MODULES, Tracer, difference
from workloads import WORKLOADS, sha256


def fresh_lab():
    """Import tfm_lab from the checkout's src/ from scratch (no module reuse),
    so that each timed set-up pays the import as a user's process does."""
    for name in [n for n in sys.modules if n == "tfm_lab" or n.startswith("tfm_lab.")]:
        del sys.modules[name]
    pkg = importlib.import_module("tfm_lab")
    if Path(pkg.__file__).resolve().parent != SRC / "tfm_lab":
        raise ImportError(f"tfm_lab was imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"tfm_lab.{m}") for m in MODULES})


@dataclass(frozen=True, slots=True)
class _ProbeItem:
    ids: tuple[int, ...]


_PROBE_ITEMS = tuple(_ProbeItem(tuple(j for j in range(10) if b >> j & 1)) for b in range(256))
_PROBE_TABLE = {item: i % 7 for i, item in enumerate(_PROBE_ITEMS) if i % 3 == 0}
_PROBE_WEIGHTS = {i: i * 7919 % 101 for i in range(10)}


def probe():
    """Fixed interpreter work shaped like block scoring: table lookups keyed
    by frozen dataclasses, integer sums over tuples, dict lookups and
    tuple comparisons."""
    best, best_key = -1, None
    for _ in range(6):
        for item in _PROBE_ITEMS:
            total = _PROBE_TABLE.get(item, 0)
            for t in item.ids:
                total += _PROBE_WEIGHTS[t]
            key = (len(item.ids), item.ids)
            if total > best or (total == best and key < best_key):
                best, best_key = total, key
    return best


def timed_probe():
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


def rescale(seconds, probe_before, probe_after):
    return seconds * PROBE_REFERENCE_S * 2 / (probe_before + probe_after)


def run_task(task):
    """(raw output or None, exit code, digest, error) of one task run."""
    try:
        raw = task.run()
    except Exception as exc:  # a task that raises is a failed task
        return None, -1, None, f"{type(exc).__name__}: {exc}"
    code, text = task.summarize(raw)
    return raw, code, sha256(text), None


def run_round(tasks):
    """Run every task once, in order.  Returns (wall, raw latencies, rescaled
    latencies, results), where results[i] is (exit code, digest, error); raw
    outputs are dropped so that memory stays that of the program."""
    raw, scaled, results = [], [], []
    start = time.perf_counter()
    before = timed_probe()
    since = time.perf_counter()
    pending = 0
    for i, task in enumerate(tasks):
        t0 = time.perf_counter()
        _, code, digest, error = run_task(task)
        raw.append(time.perf_counter() - t0)
        results.append((code, digest, error))
        pending += 1
        if time.perf_counter() - since >= PROBE_INTERVAL_S or i == len(tasks) - 1:
            after = timed_probe()
            scaled.extend(rescale(t, before, after) for t in raw[-pending:])
            before, since, pending = after, time.perf_counter(), 0
    return time.perf_counter() - start, raw, scaled, results


def percentile(values, p):
    """Linear interpolation between closest ranks, p in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def judge(tasks, rounds, reference):
    """Failed (round, task) pairs with reasons: exceptions, exit codes 2 and
    3, digests that differ from the reference or from the first round."""
    failures = {}
    first = rounds[0][-1]
    for p, (*_, results) in enumerate(rounds):
        for task, (code, digest, error), (_, digest0, _) in zip(tasks, results, first):
            why = error
            if why is None and code in (2, 3):
                why = f"exit code {code}"
            if why is None and reference is not None:
                want = reference.get(task.task_id)
                if want is None:
                    why = "task missing from the reference"
                elif f"{digest} {code}" != want:
                    why = f"output {digest} exit {code}, reference {want}"
            if why is None and digest != digest0:
                why = "output differs from the first round"
            if why is not None:
                failures[(p, task.task_id)] = why
    return failures


def post_checks(tasks, results, failures):
    """Run every task once more, untimed, and re-verify its output
    independently; the output must also match the timed rounds' digest.
    Returns the total cell count."""
    cells = 0
    for task, (_, digest0, error0) in zip(tasks, results):
        if error0 is not None:
            continue
        raw, _, digest, error = run_task(task)
        problems = []
        if error is not None:
            problems.append(f"check run raised {error}")
        elif digest != digest0:
            problems.append("check run output differs from the timed rounds")
        else:
            try:
                n, problems = task.check(raw)
                cells += n
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            # Charged to the first round's run, so failed never exceeds attempted.
            key = (0, task.task_id)
            failures[key] = "; ".join(([failures[key]] if key in failures else []) + problems)
    return cells


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head.removeprefix("ref: ")
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines():
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def load_reference(seed):
    if not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text()).get(str(seed), {})


def record_reference(seed, workload, tasks, results):
    data = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    data.setdefault(str(seed), {})[workload] = {
        task.task_id: f"{digest} {code}" for task, (code, digest, _) in zip(tasks, results)
    }
    REFERENCE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def layer_metrics(total, check, wall_traced, wall_untraced):
    """Per-layer figures over set-up plus the traced round; reports.parse is
    measured in the post-run checks, the only place reports are parsed."""
    stats, counters, sites = total["stats"], total["counters"], total["site_calls"]

    def get(key, field):
        return stats.get(key, {}).get(field, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    cells = counters["cells"]
    argmax_busy = get("solver.bps_argmax_detail", "busy_s")
    construct_calls = get("counterexamples.construct", "calls")
    out = {
        "auditors.audit.self_s": (get("auditors.audit", "self_s"), "s"),
        "auditors.rec_calls_per_cell": (
            ratio(sites.get("auditors>mechanisms.recommended_block", 0), cells), "ratio"),
        "auditors.argmax_calls_per_cell": (
            ratio(get("solver.bps_argmax_detail", "calls"), cells), "ratio"),
        "auditors.cells": (cells, "count"),
        "auditors.witnesses_found": (counters["witnesses_found"], "count"),
        "auditors.witnesses_emitted": (counters["witnesses_emitted"], "count"),
        "mechanisms.recommended_block.calls": (get("mechanisms.recommended_block", "calls"), "count"),
        "mechanisms.recommended_block.self_s": (get("mechanisms.recommended_block", "self_s"), "s"),
        "mechanisms.payment.calls": (get("mechanisms.payment", "calls"), "count"),
        "solver.bps_argmax_detail.calls": (get("solver.bps_argmax_detail", "calls"), "count"),
        "solver.bps_argmax_detail.self_s": (get("solver.bps_argmax_detail", "self_s"), "s"),
        "solver.blocks_scored": (counters["blocks_scored"], "count"),
        "solver.blocks_scored_per_s": (ratio(counters["blocks_scored"], argmax_busy), "1/s"),
        "core.bp_value.calls": (get("core.bp_value", "calls"), "count"),
        "core.bp_value.busy_s": (get("core.bp_value", "busy_s"), "s"),
        "solver.enumerate_blocks.calls": (get("solver.enumerate_blocks", "calls"), "count"),
        "solver.enumerate_blocks.miss_ratio": (
            ratio(counters["enum_misses"], get("solver.enumerate_blocks", "calls")), "ratio"),
        "solver.enumerate_blocks.busy_s": (get("solver.enumerate_blocks", "busy_s"), "s"),
        "solver.max_marginal_value.busy_s": (get("solver.max_marginal_value", "busy_s"), "s"),
        "counterexamples.construct.calls": (construct_calls, "count"),
        "counterexamples.construct.busy_s": (get("counterexamples.construct", "busy_s"), "s"),
        "counterexamples.construct.built_ratio": (
            ratio(construct_calls - get("counterexamples.construct", "errors"), construct_calls),
            "ratio"),
        "scenario_io.load.busy_s": (get("scenario_io.load", "busy_s"), "s"),
        "scenario_io.serialize.busy_s": (get("scenario_io.serialize", "busy_s"), "s"),
        "scenario_io.digest.busy_s": (get("scenario_io.digest", "busy_s"), "s"),
        "generator.random_scenario.busy_s": (get("generator.random_scenario", "busy_s"), "s"),
        "reports.render.busy_s": (get("reports.render", "busy_s"), "s"),
        "reports.render.bytes": (counters["render_bytes"], "bytes"),
        "reports.parse.busy_s": (check["stats"].get("reports.parse", {}).get("busy_s", 0.0), "s"),
        "cli.main.self_s": (get("cli.main", "self_s"), "s"),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = (get(module, "self_s"), "s")
    out["trace.overhead"] = (wall_traced / wall_untraced, "ratio")
    return out


def trace_consistency(run, wall_traced, wall_untraced, cells, construct_calls):
    """Problems with the traced round: its cell count must equal the one the
    post-run checks read from the outputs, and its module self times must add
    up to its wall time within the tracing overhead."""
    problems = []
    traced_cells = run["counters"]["cells"] + construct_calls
    if traced_cells != cells:
        problems.append(f"traced cell count {traced_cells} != checked cell count {cells}")
    self_sum = sum(run["stats"].get(m, {}).get("self_s", 0.0) for m in MODULES)
    gap = wall_traced - self_sum
    if not 0 <= gap <= wall_traced - wall_untraced:
        problems.append(
            f"module self times sum to {self_sum:.4f} s against a traced wall of "
            f"{wall_traced:.4f} s; the gap {gap:.4f} s exceeds the tracing overhead "
            f"{wall_traced - wall_untraced:.4f} s"
        )
    return problems, self_sum


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "tfm_lab" / "__init__.py").is_file():
        log(f"error: no tfm_lab package under {SRC}; run from a tfm-lab checkout")
        return 2
    sys.path.insert(0, str(SRC))
    setup, _ = WORKLOADS[args.workload]
    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        return measure(args, setup, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def measure(args, setup, workdir) -> int:
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_lines": src_lines(),
        "task_counts": {name: count for name, (_, count) in WORKLOADS.items()},
    }
    log("meta " + json.dumps(meta))
    tracer = Tracer() if args.trace else None

    setup_raw, setup_scaled = [], []
    for _ in range(1 if tracer else SETUP_REPEATS):
        before = timed_probe()
        t0 = time.perf_counter()
        lab = fresh_lab()
        if tracer:
            tracer.install()
        try:
            tasks = setup(lab, args.seed, workdir)
        finally:
            if tracer:
                tracer.uninstall()
        took = time.perf_counter() - t0
        setup_raw.append(took)
        setup_scaled.append(rescale(took, before, timed_probe()))

    reference = load_reference(args.seed).get(args.workload)
    rounds = []
    if tracer:
        rounds.append(run_round(tasks))
        before_run = tracer.snapshot()
        tracer.install()
        try:
            rounds.append(run_round(tasks))
            after_run = tracer.snapshot()
            failures = judge(tasks, rounds, reference)
            cells = post_checks(tasks, rounds[0][-1], failures)
            after_check = tracer.snapshot()
        finally:
            tracer.uninstall()
    else:
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(run_round(tasks))
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures = judge(tasks, rounds, reference)
        cells = post_checks(tasks, rounds[0][-1], failures)

    for (p, task_id), why in sorted(failures.items()):
        log(f"FAILED round {p} {task_id}: {why}")
    attempted = len(rounds) * len(tasks)
    correct = not failures
    log(f"failed_frac {len(failures) / attempted:.4f} ({len(failures)} of {attempted} task runs)")

    if args.record_reference:
        record_reference(args.seed, args.workload, tasks, rounds[0][-1])
        log(f"recorded {len(tasks)} digests for seed {args.seed} in {REFERENCE}")

    if tracer:
        wall_u, wall_t = rounds[0][0], rounds[1][0]
        run = difference(after_run, before_run)
        check = difference(after_check, after_run)
        construct_calls = run["stats"].get("counterexamples.construct", {}).get("calls", 0)
        problems, self_sum = trace_consistency(run, wall_t, wall_u, cells, construct_calls)
        for problem in problems:
            log(f"TRACE INCONSISTENT: {problem}")
        correct = correct and not problems
        metrics = layer_metrics(after_run, check, wall_t, wall_u)
        log(f"traced round {wall_t:.3f} s, untraced {wall_u:.3f} s, module self times {self_sum:.3f} s")
        dump = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(json.dumps({
            "meta": meta,
            "wall_untraced_s": wall_u,
            "wall_traced_s": wall_t,
            "setup_and_traced_round": after_run,
            "traced_round": run,
            "post_checks": check,
        }, indent=1) + "\n")
        log(f"trace aggregates written to {dump}")
    else:
        # A task's latency is its median over the rounds, which also drops
        # rounds slowed by load the probe did not see; wall_s is their sum.
        tail_p = 100 * (1 - TAIL_BEYOND / len(tasks))

        def timings(column, setup_times, prefix):
            per_task = [statistics.median(x) for x in zip(*(r[column] for r in rounds))]
            wall = sum(per_task)
            return {
                f"{prefix}wall_s": (wall, "s"),
                f"{prefix}cells_per_s": (cells / wall, "1/s"),
                f"{prefix}task_s.p50": (percentile(per_task, 50), "s"),
                f"{prefix}task_s.tail": (percentile(per_task, tail_p), "s"),
                f"{prefix}setup_s": (statistics.median(setup_times), "s"),
            }

        metrics = timings(2, setup_scaled, "")
        metrics["peak_rss_mib"] = (peak_rss_mib, "MiB")
        log(
            f"{len(rounds)} rounds of {len(tasks)} tasks, {cells} cells per round, "
            f"round walls {', '.join(f'{r[0]:.3f}' for r in rounds)} s; "
            f"task_s.tail is p{tail_p:.2f} of {len(tasks)} per-task medians"
        )
        for name, (value, unit) in timings(1, setup_raw, "raw.").items():
            log(f"  {name:40s} {value:>16.6f} {unit} (not rescaled)")
    for name, (value, unit) in metrics.items():
        log(f"  {name:40s} {value:>16.6f} {unit}")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
