"""The three seeded workloads, all on the ``version-stamp`` family.

Each workload has a ``setup(seed, scratch)`` that builds its initial state
and an ``episode(state, recorder)`` that runs the measured work as a
closed loop from one thread: the next session or put starts only when the
previous one has returned.  An episode returns an :class:`Outcome`: the
exact counts that must repeat bit for bit for a seed, a digest of the
final state, and the correctness verdicts.

* ``steady-gossip`` -- 32 replicas x 256 keys, converged before timing,
  then sessions between seeded random pairs: the quiescent read path
  (ship, encode, decode, EQUAL verdicts; no merges, journal or service).
* ``write-churn`` -- 8 replicas x 512 keys on durable file journals
  (flush at every sync completion and put, no fsync).  Rounds of a seeded
  YCSB-style mix (Zipfian reads and updates, inserts of unique new keys),
  each key written only at the replica that created it, then one
  ``AntiEntropy`` gossip round with its re-rooting compaction sweep at 384
  bits; then a quiesce, a crash of every replica and its recovery from the
  journal.
* ``service-1k`` -- ``build_cluster(1000, keys=16, writes_per_key=1)`` on
  ``AntiEntropyService`` (4 shards, overlap mode, 1 ms links with 10%
  jitter), run until converged.  The only workload that drives
  ``repro.service``.

Keys are only ever created and written at one replica, and the service
converges a single write wave: see README.md, "Operating limits", for why.
"""

from __future__ import annotations

import bisect
import hashlib
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from measure import Recorder, attach_session_timer

from repro.replication import (
    AntiEntropy,
    FullyConnectedNetwork,
    KernelTracker,
    MobileNode,
    StoreReplica,
    WireSyncEngine,
)
from repro.service import AntiEntropyService, AsyncWireSyncEngine, LinkProfile, build_cluster

FAMILY = "version-stamp"


@dataclass
class Outcome:
    """What one episode produced, beyond its timings."""

    #: Exact counts, the final-state digest among them; every repeat of a
    #: seed must reproduce them bit for bit.
    counts: Dict[str, object]
    #: Failed correctness checks, as human-readable lines.
    problems: List[str] = field(default_factory=list)
    #: Figures the per-layer report needs (exact, not timings).
    figures: Dict[str, float] = field(default_factory=dict)


def state_digest(stores) -> str:
    """blake2b over every store's keys, sibling values and tracker bytes."""
    digest = hashlib.blake2b(digest_size=16)
    for store in stores:
        digest.update(store_digest(store))
    return digest.hexdigest()


def store_digest(store) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(store.name.encode())
    for key in store.keys():
        digest.update(key.encode() + b"\0")
        digest.update(repr(sorted(repr(value) for value in store.get(key))).encode())
        digest.update(store.tracker_of(key).to_bytes())
    return digest.digest()


def diverged_keys(stores) -> int:
    """Keys whose sibling sets differ between any two stores."""
    keys = set()
    for store in stores:
        keys.update(store.keys())
    diverged = 0
    for key in keys:
        reference = None
        for store in stores:
            siblings = sorted(repr(value) for value in store.get(key))
            if reference is None:
                reference = siblings
            elif siblings != reference:
                diverged += 1
                break
    return diverged


def metadata_bits(stores) -> List[int]:
    """Encoded tracker size of every (replica, key) pair."""
    return [store.tracker_of(key).size_in_bits() for store in stores for key in store.keys()]


def engine_counts(engine) -> Dict[str, object]:
    meter = engine.meter
    return {
        "messages": meter.messages,
        "bytes_sent": meter.bytes_sent,
        "bytes_delivered": meter.bytes_delivered,
        "faults": list(meter.fault_snapshot()),
        "stamps_shipped": engine.stamps_shipped,
        "equal_bytes_skips": engine.equal_bytes_skips,
        "equal_cache_hits": engine.equal_cache_hits,
        "deliveries_failed": engine.deliveries_failed,
        "frames_rejected": engine.frames_rejected,
        "epoch_upgrades": engine.epoch_upgrades,
        "intern_hits": engine.intern.hits,
        "intern_misses": engine.intern.misses,
    }


def engine_delta(engine, before: Dict[str, object]) -> Dict[str, object]:
    """Engine counters accrued since ``before`` (set-up traffic excluded)."""
    after = engine_counts(engine)
    return {
        key: after[key] - before[key] if isinstance(after[key], int) else after[key]
        for key in after
    }


def repeats(seconds: float, nominal: float) -> int:
    """Episodes that fill about ``seconds`` at ``nominal`` seconds each (3 at least)."""
    return max(3, round(seconds / nominal))


def sub_seed(seed: int, index: int) -> int:
    """The seed of the ``index``-th distinct episode of a run."""
    return seed * 1009 + index


def twice_each(seed: int, seconds: float, nominal: float) -> List[int]:
    """Distinct episodes, each run twice, filling about ``seconds``.

    Pooling several seeded episodes keeps one seed's shape (its fork tree,
    its key placement) from setting the figures; running each twice makes
    every operation the smaller of two copies (the lower median) and checks,
    in every run, that the exact counts repeat.
    """
    distinct = max(2, repeats(seconds, nominal) // 2)
    return [sub_seed(seed, index) for index in range(distinct) for _ in range(2)]


def random_pairs(rng: random.Random, replicas: int, count: int):
    pairs = []
    for _ in range(count):
        first = rng.randrange(replicas)
        second = rng.randrange(replicas - 1)
        pairs.append((first, second + (second >= first)))
    return pairs


class SteadyGossip:
    """Sessions between random pairs of an already converged population."""

    name = "steady-gossip"
    replicas = 32
    keys = 256
    #: Sessions run before timing starts, so the intern table and the
    #: engine's EQUAL-verdict cache are in their steady state.
    warmup = 64
    sessions = 1200
    chunk = 50
    #: Episode length at reference speed, which sets how many fit a run.
    nominal_s = 2.5

    def plan(self, seed: int, seconds: float) -> List[int]:
        # A session's cost depends on the seeded fork tree (how long the
        # replicas' identities are), so a run pools several trees.
        return twice_each(seed, seconds, self.nominal_s)

    def setup(self, seed: int, scratch: Path):
        rng = random.Random(seed)
        network = FullyConnectedNetwork()
        nodes = [MobileNode.first("r00", network, tracker_factory=KernelTracker.factory(FAMILY))]
        for index in range(1, self.replicas):
            # A seeded fork tree: identities of random depth, not one chain.
            parent = nodes[rng.randrange(len(nodes))]
            nodes.append(parent.spawn_peer(f"r{index:02d}"))
        for index in range(self.keys):
            author = nodes[rng.randrange(self.replicas)]
            author.write(f"k{index:04d}", f"v{rng.getrandbits(32):08x}")
        engine = WireSyncEngine()
        gossip = AntiEntropy(nodes, rng=random.Random(rng.getrandbits(32)), engine=engine)
        if gossip.rounds_to_convergence(64) is None:
            raise RuntimeError("steady-gossip set-up did not converge in 64 rounds")
        stores = [node.store for node in nodes]
        pairs = random_pairs(rng, self.replicas, self.warmup + self.sessions)
        for first, second in pairs[: self.warmup]:
            engine.sync(stores[first], stores[second])
        return stores, engine, pairs[self.warmup :]

    def episode(self, state, recorder: Recorder) -> Outcome:
        stores, engine, pairs = state
        attach_session_timer(engine, recorder)
        before = engine_counts(engine)
        for start in range(0, len(pairs), self.chunk):
            recorder.begin("gossip")
            for first, second in pairs[start : start + self.chunk]:
                engine.sync(stores[first], stores[second])
            recorder.end()
        delta = engine_delta(engine, before)
        bits = metadata_bits(stores)
        digest = state_digest(stores)
        outcome = Outcome(
            counts={**delta, "metadata_bits": sum(bits), "digest": digest},
            figures={
                "wire_bytes": delta["bytes_sent"],
                "frames": delta["stamps_shipped"],
                "equal_skips": delta["equal_bytes_skips"] + delta["equal_cache_hits"],
                "intern_hits": delta["intern_hits"],
                "intern_lookups": delta["intern_hits"] + delta["intern_misses"],
                "metadata_bits": sum(bits),
                "metadata_keys": len(bits),
                "stamp_bits_max": max(bits),
            },
        )
        diverged = diverged_keys(stores)
        if diverged:
            outcome.problems.append(f"{diverged} keys diverged after the gossip episode")
        outcome.figures["keys_diverged"] = diverged
        return outcome


def zipf_cdf(count: int, exponent: float) -> List[float]:
    weights = [1.0 / (rank + 1) ** exponent for rank in range(count)]
    total = sum(weights)
    cdf, running = [], 0.0
    for weight in weights:
        running += weight / total
        cdf.append(running)
    cdf[-1] = 1.0
    return cdf


class WriteChurn:
    """Durable replicas under a YCSB-style mix, gossip and compaction.

    The client mix between gossip rounds follows the YCSB core workloads
    (Cooper et al., "Benchmarking Cloud Serving Systems with YCSB", SoCC
    2010): workload A's even read/update split over a Zipfian key choice
    with YCSB's default constant 0.99, plus 5% inserts of new keys, the
    insert share of workloads D and E.  Each round issues
    :attr:`operations` of them (two per replica) before one
    :meth:`AntiEntropy.run_round`, which ends in the program's own
    compaction sweep at :attr:`compact_bits`.

    Every key has a single writer, the replica that created it, so no two
    updates of a key are ever concurrent.  With writers drawn at random,
    two updates of a hot key in successive rounds can reach different
    replicas through different merges: their trackers end causally EQUAL
    while their sibling sets differ, and gossip never reconciles them;
    hot-key stamps can also outgrow the 16-bit wire length within one
    round.  README.md, "Operating limits", has the repro.
    """

    name = "write-churn"
    replicas = 8
    keys = 512
    rounds = 12
    operations = 16
    insert_share = 0.05
    read_share = 0.475
    zipf_constant = 0.99
    compact_bits = 384
    #: Journal records between snapshots, so the snapshot path and a
    #: snapshot-plus-tail recovery are part of every episode.
    snapshot_every = 256
    max_quiesce_rounds = 32
    nominal_s = 2.0

    def plan(self, seed: int, seconds: float) -> List[int]:
        # The session tail comes from the few sessions per round that ship
        # a hot key's stamp of thousands of bits, or sync a compaction's
        # holders; how many there are depends on the seed, so a run pools
        # several distinct episodes, and each runs twice so that a tail
        # session is the smaller of two copies rather than one sample.
        return twice_each(seed, seconds, self.nominal_s)

    def setup(self, seed: int, scratch: Path):
        rng = random.Random(seed)
        directory = scratch / f"{self.name}-{seed}"
        shutil.rmtree(directory, ignore_errors=True)
        network = FullyConnectedNetwork()
        factory = KernelTracker.factory(FAMILY)
        nodes = [
            MobileNode(
                f"r{index}",
                StoreReplica(f"r{index}", tracker_factory=factory, durable=True,
                             path=directory / f"r{index}", snapshot_every=self.snapshot_every),
                network,
            )
            for index in range(self.replicas)
        ]
        # Each key has one writer, the replica that created it (see the
        # class docstring).
        owners = {}
        for index in range(self.keys):
            key = f"k{index:04d}"
            owners[key] = rng.randrange(self.replicas)
            nodes[owners[key]].write(key, f"{key}#0")
        engine = WireSyncEngine()
        gossip = AntiEntropy(nodes, rng=random.Random(rng.getrandbits(32)), engine=engine,
                             compact_threshold_bits=self.compact_bits)
        if gossip.rounds_to_convergence(64) is None:
            raise RuntimeError("write-churn set-up did not converge in 64 rounds")
        return nodes, engine, gossip, rng, directory, owners

    def episode(self, state, recorder: Recorder) -> Outcome:
        nodes, engine, gossip, rng, directory, owners = state
        attach_session_timer(engine, recorder)
        before = engine_counts(engine)
        compactions, attempts = gossip.compactions, gossip.compaction_attempts
        stores = [node.store for node in nodes]
        names = [f"k{index:04d}" for index in range(self.keys)]
        hot = list(names)
        rng.shuffle(hot)
        cdf = zipf_cdf(len(hot), self.zipf_constant)
        reads_seen = hashlib.blake2b(digest_size=16)
        puts = reads = inserted = skipped = 0
        bits_max = metadata_sum = metadata_keys = 0
        journal_records = [store.journal.records_written for store in stores]
        problems = []
        for number in range(self.rounds):
            recorder.begin("round")
            for operation in range(self.operations):
                draw = rng.random()
                if draw < self.insert_share:
                    key = f"n{number:03d}.{operation}"
                    names.append(key)
                    owners[key] = rng.randrange(self.replicas)
                    recorder.put(stores[owners[key]], key, f"{key}#0")
                    puts += 1
                    inserted += 1
                    continue
                key = hot[bisect.bisect_left(cdf, rng.random())]
                if draw < self.insert_share + self.read_share:
                    values = recorder.read(stores[rng.randrange(self.replicas)], key)
                    reads_seen.update(repr(sorted(repr(value) for value in values)).encode())
                    reads += 1
                else:
                    recorder.put(stores[owners[key]], key, f"{key}#{number}.{operation}")
                    puts += 1
            skipped += gossip.run_round().skipped_partitioned
            recorder.end()
            bits = metadata_bits(stores)
            bits_max = max(bits_max, max(bits))
            metadata_sum += sum(bits)
            metadata_keys += len(bits)
        quiesce = 0
        while True:
            if quiesce == self.max_quiesce_rounds:
                raise RuntimeError(f"write-churn did not quiesce in {quiesce} rounds")
            recorder.begin("quiesce")
            skipped += gossip.run_round().skipped_partitioned
            converged = gossip.converged()
            recorder.end()
            quiesce += 1
            if converged:
                break
        if skipped:
            problems.append(f"{skipped} gossip exchanges were skipped")
        diverged = diverged_keys(stores)
        digest = state_digest(stores)
        before_crash = [store_digest(store) for store in stores]
        storage = sum(
            path.stat().st_size for path in directory.rglob("*") if path.is_file()
        )
        records = sum(store.journal.records_written for store in stores) - sum(journal_records)
        snapshots = sum(store.journal.snapshots_written for store in stores)
        recorder.begin("recover")
        reports = []
        for node in nodes:
            node.crash()
            reports.append(node.restart(mode="recover"))
        recorder.end()
        recovered = [store_digest(node.store) for node in nodes]
        if diverged:
            problems.append(f"{diverged} keys diverged after the quiesce")
        for node, old, new, report in zip(nodes, before_crash, recovered, reports):
            if old != new:
                problems.append(f"replica {node.node_id} recovered a state other than its last flushed one")
            if not report.clean:
                problems.append(f"replica {node.node_id} recovered with tail damage: {report.tail}")
        replayed = sum(report.records_replayed for report in reports)
        compactions = gossip.compactions - compactions
        attempts = gossip.compaction_attempts - attempts
        counts = {
            **engine_delta(engine, before),
            "puts": puts,
            "reads": reads,
            "reads_digest": reads_seen.hexdigest(),
            "inserted": inserted,
            "compactions": compactions,
            "compaction_attempts": attempts,
            "quiesce_rounds": quiesce,
            "journal_records": records,
            "snapshots": snapshots,
            "storage_bytes": storage,
            "metadata_bits": metadata_sum,
            "stamp_bits_max": bits_max,
            "recovery": [
                [r.snapshot_keys, r.snapshot_groups, r.records_replayed, r.records_skipped,
                 r.clears_applied, r.upto_seq, r.last_seq, r.clean]
                for r in reports
            ],
            "digest": digest,
        }
        for node in nodes:
            node.store.journal.close()
        shutil.rmtree(directory, ignore_errors=True)
        return Outcome(
            counts=counts,
            problems=problems,
            figures={
                "rounds": self.rounds,
                "puts": puts,
                "reads": reads,
                "wire_bytes": counts["bytes_sent"],
                "frames": counts["stamps_shipped"],
                "equal_skips": counts["equal_bytes_skips"] + counts["equal_cache_hits"],
                "intern_hits": counts["intern_hits"],
                "intern_lookups": counts["intern_hits"] + counts["intern_misses"],
                # Sampled after every round's compaction sweep.
                "metadata_bits": metadata_sum,
                "metadata_keys": metadata_keys,
                "stamp_bits_max": bits_max,
                "storage_bytes": storage,
                "all_puts": puts + self.keys,
                "compactions": compactions,
                "compaction_attempts": attempts,
                "records_replayed": replayed,
                "keys_diverged": diverged,
            },
        )


class Service1k:
    """One write wave over 1000 replicas, gossiped to convergence."""

    name = "service-1k"
    replicas = 1000
    keys = 16
    shards = 4
    max_rounds = 64
    nominal_s = 6.0

    def plan(self, seed: int, seconds: float) -> List[int]:
        # Identical repeats: one convergence already pools 19,000 sessions
        # of 1000 replicas, and three copies of each short (about 0.1 ms)
        # session keep one interrupted copy out of the figures.
        return [seed] * repeats(seconds, self.nominal_s)

    def setup(self, seed: int, scratch: Path):
        nodes, names = build_cluster(self.replicas, keys=self.keys, writes_per_key=1, seed=seed)
        engine = AsyncWireSyncEngine()
        service = AntiEntropyService(
            nodes,
            engine=engine,
            shards=self.shards,
            link=LinkProfile(latency=0.001, jitter=0.1),
            seed=seed,
        )
        return nodes, engine, service

    def episode(self, state, recorder: Recorder) -> Outcome:
        nodes, engine, service = state
        attach_session_timer(engine, recorder)

        def next_round(metrics) -> None:
            if not metrics.converged:
                recorder.end()
                recorder.begin("round")

        recorder.begin("round")
        report = service.run(max_rounds=self.max_rounds, on_round=next_round)
        recorder.end()
        stores = [node.store for node in nodes]
        problems = []
        if report.converged_after is None:
            problems.append(f"service-1k did not converge in {self.max_rounds} rounds")
        diverged = diverged_keys(stores)
        if diverged:
            problems.append(f"{diverged} keys diverged after convergence")
        bits = metadata_bits(stores)
        digest = state_digest(stores)
        rounds = [
            [r.exchanges, r.skipped, r.empty_parts, r.messages, r.bytes_sent,
             repr(r.virtual_duration), r.converged, r.merge.keys_examined,
             r.merge.keys_replicated, r.merge.values_taken, r.merge.conflicts_detected]
            for r in report.rounds
        ]
        counts = {
            **engine_counts(engine),
            "chunks_fed": engine.chunks_fed,
            "rounds": rounds,
            "converged_after": report.converged_after,
            "virtual_seconds": repr(report.virtual_seconds),
            "transfer_latency_p99": repr(report.session_latency_percentiles((0.99,))[0.99]),
            "metadata_bits": sum(bits),
            "digest": digest,
        }
        exchanges = report.total_exchanges
        return Outcome(
            counts=counts,
            problems=problems,
            figures={
                "rounds": len(report.rounds),
                "converged_after": report.converged_after or 0,
                "virtual_seconds": report.virtual_seconds,
                "exchanges": exchanges,
                "empty_parts": sum(r.empty_parts for r in report.rounds),
                "parts": exchanges * self.shards,
                "wire_bytes": counts["bytes_sent"],
                "frames": counts["stamps_shipped"],
                "equal_skips": counts["equal_bytes_skips"] + counts["equal_cache_hits"],
                "intern_hits": counts["intern_hits"],
                "intern_lookups": counts["intern_hits"] + counts["intern_misses"],
                "metadata_bits": sum(bits),
                "metadata_keys": len(bits),
                "stamp_bits_max": max(bits),
                "keys_diverged": diverged,
            },
        )


WORKLOADS = {workload.name: workload for workload in (SteadyGossip, WriteChurn, Service1k)}
