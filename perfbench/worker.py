"""One repetition of a workload, in a fresh process.

Reads ``{"jobs": [...], "trace": bool}`` as JSON on stdin, runs the jobs back
to back and prints one JSON object with this repetition's timings and
outputs.  The parent (``run.py``) takes the spawn time just before starting
this process, so ``first_tick_at`` minus that time is the set-up time:
interpreter start, imports, reading the input, and the first job's scenario
parse and simulation build.  ``time.perf_counter`` is the system-wide
monotonic clock on Linux, so both processes read the same clock.
"""

from __future__ import annotations

import json
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bridgesim import scenario as scenario_mod, simnet  # noqa: E402

import metrics  # noqa: E402
from tracer import Tracer  # noqa: E402


class TimedSimulation(simnet.Simulation):
    """Records the host time of every tick."""

    def _run_tick(self) -> None:
        start = perf_counter()
        super()._run_tick()
        self.tick_s.append(perf_counter() - start)


def run_job(job: dict) -> tuple:
    """(start, first tick, end) times, the simulation and its result."""
    start = perf_counter()
    scenario = scenario_mod.parse_scenario(job["scenario"])
    sim = TimedSimulation(scenario, threshold_override=job["threshold_override"])
    sim.tick_s = []
    first_tick = perf_counter()
    result = sim.run()
    return (start, first_tick, perf_counter()), sim, result


def trace_counts(sim, lines) -> dict:
    """Counts the traced run reports beside its span times."""
    blocks = list(metrics.trace_records(lines, "block"))
    accepted = sum(len(b["payload"]["txs"]) for b in blocks)
    rejected = [r["reason"] for b in blocks for r in b["payload"]["rejected"]]
    submitted = sum(1 for r in metrics.trace_records(lines, "submit")
                    if "witness" in r["payload"])
    included = sum(
        1
        for host in sim.hosts.values()
        for block in host.chain.blocks
        for tx in block.transactions
        if tx.payload.TAG in ("confirm", "transferring")
    )
    return {
        "chain.retained_snapshots": sum(len(getattr(h.chain, "_snapshots", ()))
                                        for h in sim.hosts.values()),
        "chain.offered_txs": accepted + len(rejected),
        "chain.rejected_txs": len(rejected),
        "contracts.stale_votes": sum(1 for r in rejected if r.startswith("StaleRound")),
        "witness.submitted_votes": submitted,
        "witness.included_votes": included,
        "witness.resends": sum(1 for _ in metrics.trace_records(lines, "resend")),
        "simnet.drops": sum(1 for _ in metrics.trace_records(lines, "drop")),
        "simnet.dups": sum(1 for _ in metrics.trace_records(lines, "dup")),
        "trace.bytes": sum(len(line.encode("utf-8")) + 1 for line in lines),
    }


def main() -> int:
    request = json.load(sys.stdin)
    tracer = None
    if request["trace"]:
        tracer = Tracer()
        tracer.install()
    first_tick_at = None
    run_s = traced_wall_s = 0.0
    tick_s: list[float] = []
    jobs = []
    counts: dict[str, int] = {}
    for job in request["jobs"]:
        (start, first_tick, end), sim, result = run_job(job)
        # Later jobs' parse and build count as run time: in a sweep they are
        # part of the work, and only the first job's belong to set-up.
        if first_tick_at is None:
            first_tick_at = first_tick
            run_s += end - first_tick
        else:
            run_s += end - start
        traced_wall_s += end - start
        tick_s.extend(sim.tick_s)
        lines = result.trace_lines
        with tracer.paused() if tracer else nullcontext():
            transfers = metrics.transfer_ticks(sim, lines)
            jobs.append({
                "name": job["name"],
                "sha256": metrics.trace_sha256(lines),
                "ticks": len(sim.tick_s),
                "latencies": [latency for _, _, latency in transfers],
                **metrics.outcomes(job, result, transfers),
            })
            if tracer is not None:
                for key, value in trace_counts(sim, lines).items():
                    counts[key] = counts.get(key, 0) + value
        del sim, result, lines
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail = metrics.highest_percentile(len(tick_s))
    out = {
        "first_tick_at": first_tick_at,
        "run_s": run_s,
        "ticks": len(tick_s),
        "tick_tail_per_mille": tail,
        "tick_ms_p99": metrics.percentile(tick_s, 990) * 1000,
        "peak_rss_mb": peak_rss_mb,
        "jobs": jobs,
    }
    if tracer is not None:
        out["traced_wall_s"] = traced_wall_s
        out["calls"] = tracer.calls
        out["self_s"] = tracer.self_s
        out["counts"] = counts
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
