"""Run one workload of the version-stamp sync benchmark and print its metrics.

    python3 perfbench/run.py --workload steady-gossip --seed 7 --seconds 20 --trace 0

The run imports the program from ``src/`` next to this directory and runs
the workload's plan: about ``--seconds`` worth of episodes (three at
least), each on a freshly built seeded state.  ``steady-gossip`` and
``write-churn`` run distinct episodes, each twice; ``service-1k`` repeats
one episode.  Every repeat must reproduce the exact counts and
final-state digest of its seed; they are also compared with the counts an
earlier run of the same seed left in ``.perfbench/counts/``.  Any mismatch,
failed session or failed correctness check makes the run print
``"correct": false`` and exit with status 1.

With ``--trace 0`` the last line holds the end-to-end metrics.  With
``--trace 1`` the run then runs the first episode six more times,
alternately untraced and traced; the last line holds the per-layer
metrics, the span file of the median traced copy is
written to ``.perfbench/trace-<workload>.csv`` and the per-layer table is
printed to standard error.  See README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path

from measure import (
    REFERENCE_S,
    Recorder,
    SessionFailed,
    calibrate,
    clock,
    combine,
    median,
    timing_summary,
    wall_of,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"


def source_hash() -> str:
    """Digest of the program and benchmark sources the counts depend on."""
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def differing(first: dict, second: dict):
    return sorted(key for key in first.keys() | second.keys() if first.get(key) != second.get(key))


def check_counts_across_runs(workload: str, seed: int, counts: dict):
    """Compare with the counts earlier runs of this seed recorded.

    ``counts`` maps each episode seed to its exact counts; episodes both
    runs made must agree (a longer ``--seconds`` only adds episodes).
    """
    directory = SCRATCH / "counts"
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload}-{seed}.json"
    source = source_hash()
    counts = json.loads(json.dumps(counts))
    earlier = json.loads(path.read_text()) if path.exists() else {}
    known = earlier.get("counts", {}) if earlier.get("source") == source else {}
    problems = [
        f"exact counts of episode seed {episode} differ from an earlier run: "
        + ", ".join(differing(known[episode], counts[episode]))
        for episode in sorted(known.keys() & counts.keys())
        if known[episode] != counts[episode]
    ]
    path.write_text(json.dumps({"source": source, "counts": {**known, **counts}}, sort_keys=True))
    return problems


IMPORTS = 9


def import_seconds() -> float:
    """Median time a fresh interpreter takes to import the program, rescaled."""
    code = (
        "import time; start = time.perf_counter(); "
        "import repro.replication, repro.service; "
        "print(time.perf_counter() - start)"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    samples = []
    for _ in range(IMPORTS):
        before = calibrate()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        samples.append(float(done.stdout) * REFERENCE_S / ((before + calibrate()) / 2))
    return median(samples)


def scaled_call(function, *args):
    """``(result, seconds at reference speed)`` of one call, calibrated
    right before and right after it."""
    before = calibrate()
    start = clock()
    result = function(*args)
    seconds = clock() - start
    return result, seconds * REFERENCE_S / ((before + calibrate()) / 2)


class Runs:
    """Every untraced episode of a run, grouped by the seed it was built from."""

    def __init__(self) -> None:
        self.recorders: list = []
        self.setups: list = []
        #: sub-seed -> [(scaled chunks, outcome)] in run order
        self.by_seed: dict = {}

    def run(self, workload, seed: int) -> None:
        gc.collect()
        state, seconds = scaled_call(workload.setup, seed, SCRATCH)
        self.setups.append(seconds)
        gc.collect()
        recorder = Recorder()
        self.recorders.append(recorder)
        outcome = workload.episode(state, recorder)
        del state
        outcome.figures["sessions"] = recorder.sessions_attempted
        self.by_seed.setdefault(seed, []).append((recorder.scaled(), outcome))

    def problems(self):
        """Correctness failures, and exact counts a repeat did not reproduce."""
        found = []
        for seed, copies in self.by_seed.items():
            reference = copies[0][1].counts
            for number, (_, outcome) in enumerate(copies[1:], 2):
                if outcome.counts != reference:
                    keys = ", ".join(differing(reference, outcome.counts))
                    found.append(f"repeat {number} of seed {seed} changed exact counts: {keys}")
            for _, outcome in copies:
                found.extend(outcome.problems)
        return found

    def combined(self):
        """Per-seed lower medians over copies, concatenated over distinct seeds."""
        return [
            chunk
            for copies in self.by_seed.values()
            for chunk in combine([scaled for scaled, _ in copies])
        ]

    def figures(self):
        """Exact figures summed over distinct seeds (``*_max``: the maximum)."""
        total = {}
        for copies in self.by_seed.values():
            for key, value in copies[0][1].figures.items():
                if key.endswith("_max"):
                    total[key] = max(total.get(key, value), value)
                else:
                    total[key] = total.get(key, 0) + value
        return total

    def counts(self):
        return {str(seed): copies[0][1].counts for seed, copies in self.by_seed.items()}


def end_to_end(import_s, runs):
    timing = timing_summary(runs.combined())
    figures = runs.figures()
    return {
        "setup_s": (import_s + median(runs.setups), "s"),
        "sessions_per_s": (timing["sessions_per_s"], "1/s"),
        "session_us_p50": (timing["session_us_p50"], "us"),
        "session_us_p99": (timing["session_us_p99"], "us"),
        "wire_bytes_per_session": (figures["wire_bytes"] / figures["sessions"], "bytes"),
        "metadata_bytes_per_key": (figures["metadata_bits"] / 8 / figures["metadata_keys"], "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(workload, runs, traced):
    """Per-layer metrics of the traced episode, plus workload-only figures.

    Span-derived figures are per session (or put, round, compaction) of
    the traced episode; its exact counts equal those of the untraced
    repeats of the same seed, which the run checks.  The ``workload.*``
    figures are end-to-end quantities that exist on one workload only,
    taken from the untraced episodes like the end-to-end metrics.
    """
    summary, tracer, whole_ns, untraced_ns, outcome, _ = traced
    figures = outcome.figures
    sessions = max(1, tracer.sessions)
    puts = max(1, figures.get("puts", 0))
    rounds = max(1, figures.get("rounds", 0))
    compactions = max(1, figures.get("compactions", 0))
    session, put = "replication.session", "replication.put"

    def per_session(*names, context=session):
        return sum(summary.total_ns(name, context) for name in names) / 1e3 / sessions

    def ratio(part, whole):
        return part / whole if whole else 0.0

    service = workload.name == "service-1k"
    engine = summary.total_ns(session)
    daemon = summary.self_ns("service.daemon")
    converged = summary.total_ns("service.converged_check")
    recover_ns = summary.total_ns("durability.recover")
    layers = summary.layers()
    combined = runs.combined()
    timing = timing_summary(combined)
    episodes = len(runs.by_seed)
    untraced = runs.figures()
    attempted = sum(r.sessions_attempted for r in runs.recorders)
    metrics = {
        "kernel.encode_us_per_session": (per_session("kernel.encode_stream"), "us"),
        "kernel.decode_us_per_session": (
            per_session("kernel.decode_stream", "kernel.decode_incremental"), "us"),
        "kernel.frames_per_session": (figures["frames"] / sessions, "count"),
        "kernel.intern_hit_ratio": (ratio(figures["intern_hits"], figures["intern_lookups"]), "ratio"),
        "replication.session_self_us": (summary.self_ns(session) / 1e3 / sessions, "us"),
        "replication.keys_examined_per_session": (tracer.keys_examined / sessions, "count"),
        "replication.equal_skip_ratio": (ratio(figures["equal_skips"], tracer.keys_examined), "ratio"),
        "replication.keys_changed_per_session": (
            (figures["frames"] - tracer.request_frames) / sessions, "count"),
        "replication.compactions_per_round": (figures.get("compactions", 0) / rounds, "count"),
        "replication.compaction_abort_ratio": (
            1 - ratio(figures.get("compactions", 0), figures.get("compaction_attempts", 0))
            if figures.get("compaction_attempts") else 0.0, "ratio"),
        "replication.compaction_us_per_round": (summary.total_ns("replication.compaction") / 1e3 / rounds, "us"),
        "core.compare_us_per_session": (per_session("core.compare"), "us"),
        "core.join_fork_us_per_session": (per_session("core.join", "core.fork"), "us"),
        "core.update_us_per_put": (summary.total_ns("core.update", put) / 1e3 / puts, "us"),
        "core.reroot_us_per_compaction": (summary.total_ns("core.reroot") / 1e3 / compactions, "us"),
        "core.stamp_bits_max": (figures["stamp_bits_max"], "bits"),
        "durability.records_per_session": (summary.count("durability.record", session) / sessions, "count"),
        "durability.flush_us_per_session": (per_session("durability.flush"), "us"),
        "durability.record_us_per_put": (
            sum(summary.total_ns(name, put) for name in
                ("durability.record", "durability.flush", "durability.snapshot")) / 1e3 / puts, "us"),
        "durability.snapshot_us_per_round": (summary.total_ns("durability.snapshot") / 1e3 / rounds, "us"),
        "durability.replay_records_per_s": (
            ratio(figures.get("records_replayed", 0), recover_ns / 1e9), "1/s"),
        "service.engine_share": (ratio(engine, untraced_ns) if service else 0.0, "ratio"),
        "service.daemon_self_share": (ratio(daemon, untraced_ns) if service else 0.0, "ratio"),
        "service.converged_check_share": (ratio(converged, untraced_ns) if service else 0.0, "ratio"),
        "service.loop_share": (ratio(summary.remainder_ns, untraced_ns) if service else 0.0, "ratio"),
        "service.sessions_per_round": (sessions / rounds if service else 0.0, "count"),
        "service.empty_part_ratio": (ratio(figures.get("empty_parts", 0), figures.get("parts", 0)), "ratio"),
        "service.rounds_to_converge": (figures.get("converged_after", 0), "count"),
        "trace.overhead_ratio": ((whole_ns - untraced_ns) / untraced_ns, "ratio"),
        "trace.remainder_share": (summary.remainder_ns / untraced_ns, "ratio"),
        "trace.span_cost_ns": (summary.span_ns, "ns"),
        "trace.spans": (summary.spans, "count"),
        "workload.session_samples": (timing["sessions"], "count"),
        "workload.put_samples": (timing["puts"], "count"),
        "workload.put_us_p50": (timing.get("put_us_p50", 0.0), "us"),
        "workload.put_us_p99": (timing.get("put_us_p99", 0.0), "us"),
        "workload.read_samples": (timing["reads"], "count"),
        "workload.read_us_p50": (timing.get("read_us_p50", 0.0), "us"),
        "workload.read_us_p99": (timing.get("read_us_p99", 0.0), "us"),
        "workload.recover_s": (wall_of(combined, "recover") / episodes, "s"),
        "workload.converge_s": (
            wall_of(combined, "round" if service else "quiesce") / episodes, "s"),
        "workload.converge_virtual_s": (untraced.get("virtual_seconds", 0.0) / episodes, "s"),
        "workload.storage_bytes_per_put": (
            ratio(untraced.get("storage_bytes", 0), untraced.get("all_puts", 0)), "bytes"),
        "workload.sessions_failed_ratio": (
            ratio(sum(r.sessions_failed for r in runs.recorders), attempted), "ratio"),
        "workload.keys_diverged_ratio": (ratio(untraced["keys_diverged"], untraced["metadata_keys"]), "ratio"),
    }
    for layer in ("kernel", "core", "replication", "durability", "service"):
        metrics[f"trace.{layer}_share"] = (layers.get(layer, [0, 0])[1] / untraced_ns, "ratio")
    return metrics


#: Untraced and traced copies of the traced seed's episode, interleaved.
TRACE_COPIES = 3


def traced_episode(workload, seed: int):
    """Copies of ``seed``'s episode, untraced and traced in turn.

    Both kinds calibrate as an untraced run does (a traced copy records
    each calibration as a span, so its time comes out of the span it
    interrupts), and both wholes are per-chunk lower medians of their
    rescaled copies, so the overhead compares like with like and the
    copies share the machine's phases.
    The spans come from the traced copy with the median whole; the
    untraced whole is converted to that copy's machine speed.  Its spans
    go to ``.perfbench/``.
    """
    from tracing import Tracer, instrument, span_cost
    from trace_summary import Summary

    untraced, traced = [], []
    for _ in range(TRACE_COPIES):
        for with_spans in (False, True):
            gc.collect()
            state = workload.setup(seed, SCRATCH)
            gc.collect()
            if with_spans:
                tracer = Tracer()
                recorder = Recorder(on_calibration=tracer.calibration)
                with instrument(tracer):
                    outcome = workload.episode(state, recorder)
                traced.append((recorder, tracer, outcome))
            else:
                recorder = Recorder()
                workload.episode(state, recorder)
                untraced.append(recorder.scaled())
            del state
    untraced_scaled = sum(chunk.wall for chunk in combine(untraced))
    traced_scaled = sum(chunk.wall for chunk in combine([r.scaled() for r, *_ in traced]))
    traced.sort(key=lambda copy: sum(chunk.wall for chunk in copy[0].scaled()))
    recorder, tracer, outcome = traced[len(traced) // 2]
    split = span_cost()
    whole_ns = int(sum(chunk.wall for chunk in recorder.chunks) * 1e9)
    untraced_ns = whole_ns * untraced_scaled / traced_scaled
    tracer.write_csv(SCRATCH / f"trace-{workload.name}.csv")
    (SCRATCH / f"trace-{workload.name}.json").write_text(json.dumps({
        "workload": workload.name, "seed": seed,
        "whole_ns": whole_ns, "untraced_ns": untraced_ns, "span_split_ns": split,
    }))
    summary = Summary(tracer.names, tracer.spans, whole_ns, untraced_ns, split)
    print(summary.table(), file=sys.stderr)
    rerooted = [stamp.encoded_size_bits() for group in tracer.rerooted for stamp in group]
    outcome.figures["stamp_bits_max"] = max([outcome.figures["stamp_bits_max"], *rerooted])
    return summary, tracer, whole_ns, untraced_ns, outcome, [copy[2] for copy in traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="version-stamp sync benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    try:
        import repro.replication  # noqa: F401
        import repro.service  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from {', '.join(WORKLOADS)})",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    SCRATCH.mkdir(exist_ok=True)
    problems = []
    runs = Runs()
    metrics = {}
    try:
        plan = workload.plan(args.seed, args.seconds)
        for seed in plan:
            runs.run(workload, seed)
        problems.extend(runs.problems())
        problems.extend(check_counts_across_runs(workload.name, args.seed, runs.counts()))
        if args.trace:
            traced = traced_episode(workload, plan[0])
            reference = runs.by_seed[plan[0]][0][1]
            for traced_outcome in traced[-1]:
                if traced_outcome.counts != reference.counts:
                    keys = ", ".join(differing(reference.counts, traced_outcome.counts))
                    problems.append(f"a traced episode changed exact counts: {keys}")
                problems.extend(traced_outcome.problems)
            metrics = per_layer(workload, runs, traced)
        else:
            metrics = end_to_end(import_seconds(), runs)
        digests = " ".join(copies[0][1].counts["digest"][:12] for copies in runs.by_seed.values())
        print(f"{workload.name} seed {args.seed}: {len(plan)} episodes, digests {digests}",
              file=sys.stderr)
    except SessionFailed as exc:
        traceback.print_exc()
        problems.append(f"{exc} (the pass ended there; nothing was retried)")
    except Exception:  # a broken check or workload: report it, never average it away
        traceback.print_exc()
        problems.append("the workload raised; see the traceback above")
    finally:
        for leftover in SCRATCH.glob(f"{workload.name}-*"):
            shutil.rmtree(leftover, ignore_errors=True)
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": max(1, sum(r.attempted for r in runs.recorders)),
        "failed": sum(r.failed for r in runs.recorders),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
