"""Metric rules of the benchmark, shared by the parent and the worker process.

Everything here reads finished runs; nothing is timed.
"""

from __future__ import annotations

import hashlib
import json

# Candidate tail percentiles in per-mille, highest first.
TAIL_CANDIDATES = (999, 990, 900, 500)
MIN_BEYOND = 10

TRANSFER_ACTIONS = ("deposit", "withdraw")
# Topics a deposit or withdraw transaction emits to open its transfer.
TRANSFER_TOPICS = ("CrossChainArrived", "AssetsLocked")


def _rank(n: int, per_mille: int) -> int:
    """1-based nearest rank of the per-mille percentile among n samples."""
    return max(1, -(-per_mille * n // 1000))


def beyond(n: int, per_mille: int) -> int:
    """How many of n sorted samples lie after the percentile's rank."""
    return n - _rank(n, per_mille)


def percentile(samples, per_mille: int):
    """Nearest-rank percentile; ``per_mille`` 990 is the 99th percentile."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), per_mille) - 1]


def highest_percentile(n: int, min_beyond: int = MIN_BEYOND,
                       candidates=TAIL_CANDIDATES) -> int | None:
    """Highest candidate percentile (per-mille) with at least ``min_beyond``
    of n samples beyond it, or None when even the lowest has too few."""
    for per_mille in candidates:
        if beyond(n, per_mille) >= min_beyond:
            return per_mille
    return None


def trace_sha256(lines) -> str:
    """sha256 of the trace file ``RunResult.write_trace`` would write."""
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def trace_records(lines, kind: str):
    """Decoded trace records of one kind."""
    needle = f'"kind":"{kind}"'
    for line in lines:
        if needle in line:
            record = json.loads(line)
            if record["kind"] == kind:
                yield record


def transfer_ticks(sim, lines) -> list[tuple[int, str, int | None]]:
    """(action tick, action, simulated ticks to completion) per transfer.

    A transfer completes in the canonical block whose successful consensus
    result lists the origin of the event its action's transaction emitted.
    When that execution re-locks the value for a further hop (a native-gas
    gateway releasing escrow toward the token chain), the transfer completes
    at the result that lists the re-lock's origin.  Everything is read from
    the final canonical chains, so a transfer that crossed a reorg counts
    where it finally landed.  Equal actions make equal transactions, so the
    k-th action with a given transaction digest is the k-th canonical
    occurrence of that digest.  The latency is None when the transfer never
    completed.
    """
    home: dict[str, list[tuple]] = {}
    done_at: dict[tuple, int] = {}
    relock: dict[tuple, tuple] = {}
    for chain_id, host in sim.hosts.items():
        for block in host.chain.blocks[1:]:
            for index, tx in enumerate(block.transactions):
                home.setdefault("0x" + tx.digest().hex(), []).append((chain_id, block, index))
            for ev in block.events:
                if ev.topic.value == "ConsensusResult" and ev.payload.get("success"):
                    for origin in ev.payload.get("origins", []):
                        done_at.setdefault(tuple(origin), block.produced_at)
                elif ev.topic.value == "AssetsLocked" and "origin" in ev.payload:
                    relock[tuple(ev.payload["origin"])] = ev.origin_plain(chain_id)
    out = []
    for record in trace_records(lines, "action"):
        action = record["payload"]["action"]
        if action not in TRANSFER_ACTIONS:
            continue
        latency = None
        landed = home.get(record["payload"]["tx"])
        if landed:
            chain_id, block, index = landed.pop(0)
            opened = [ev for ev in block.events
                      if ev.tx_index == index and ev.topic.value in TRANSFER_TOPICS]
            if opened:
                origin = opened[0].origin_plain(chain_id)
                finished = done_at.get(origin)
                while finished is not None and origin in relock:
                    origin = relock[origin]
                    finished = done_at.get(origin)
                if finished is not None:
                    latency = finished - record["tick"]
        out.append((record["tick"], action, latency))
    return out


def peg_balanced(summary: dict) -> bool:
    """Locked equals circulating (gasless) or the trading ledger plus escrow."""
    for entry in summary["side_chains"].values():
        if entry["variant"] == "gasless":
            if entry["locked"] != entry["circulating"]:
                return False
        elif entry["locked"] != entry["trading_sum"] + entry["escrow"]:
            return False
    return True


def outcomes(job: dict, result, transfers) -> dict:
    """Attempted and failed operations of one run against its expectations.

    A run whose expected verdict is a failure (a negative control) counts
    only its verdict; any other run also counts every scheduled
    register, deposit and withdraw action.
    """
    summary = result.summary
    verdict_ok = result.ok == job["expect_ok"]
    if job["expect_ok"]:
        verdict_ok = verdict_ok and peg_balanced(summary)
    attempted = 1
    failed = 0 if verdict_ok else 1
    if job["expect_ok"]:
        for action in job["scenario"]["workload"]:
            if action["action"] != "register":
                continue
            attempted += 1
            entry = summary["side_chains"][action["chain_id"]]
            if entry["registered"] != job["expect_registered"]:
                failed += 1
        attempted += len(transfers)
        failed += sum(1 for _, _, latency in transfers if latency is None)
    return {"attempted": attempted, "failed": failed,
            "stalled": 0 if result.quiescent else 1}
