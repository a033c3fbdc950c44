"""bridgesim benchmark: one workload, one seed, timed in fresh processes.

    python3 perfbench/run.py --workload dense_gasless --seed 1 --seconds 20 --trace 0

Each repetition runs the workload's jobs in a fresh worker process
(``worker.py``), one process at a time.  A first, untimed repetition runs under
another ``PYTHONHASHSEED``; then repetitions run until ``--seconds`` have
passed.  With ``--trace 0`` every repetition is untraced and the end-to-end
metrics are medians over them.  With ``--trace 1`` traced and untraced
repetitions alternate; the per-layer metrics are medians over the traced ones
and the tracing overhead is traced minus untraced run time.

Every repetition's outputs are checked: each run's trace sha256 must be the
same in every repetition, each run must reach the verdict README documents,
every scheduled register, deposit and withdraw must reach its expected
outcome, and runs that must pass must end with the peg balanced.  The last
line of standard output is one JSON object; the exit code is 1 when a check
fails and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
from tracer import LAYERS  # noqa: E402

MIN_REPS = 3
MIN_TRACED_REPS = 2
# No repetition starts after this many seconds, whatever --seconds asks for,
# and a repetition that runs this long is killed.
HARD_STOP_S = 150
CHECK_HASHSEED = "1"
TIMED_HASHSEED = "0"

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "ticks_per_s": "1/s",
    "tick_ms.p99": "ms",
    "peak_rss_mb": "MB",
    "transfer_ticks.p50": "ticks",
    "transfer_ticks.p90": "ticks",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (missing program, worker crash)."""


def repetition(jobs_json: bytes, hashseed: str, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    # Set-up time is measured with the bytecode cache in use, as a user's
    # repeated runs have it; the untimed check repetition writes it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spawned = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(jobs_json, timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError("a repetition ran past the time limit") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    rep = json.loads(out.decode("utf-8").splitlines()[-1])
    rep["setup_s"] = rep["first_tick_at"] - spawned
    return rep


def measure(jobs: list[dict], seconds: float, traced: bool) -> tuple[dict, list, list]:
    """(check repetition, untraced repetitions, traced repetitions)."""
    started = perf_counter()
    hard_stop = started + HARD_STOP_S

    def blob(trace: bool) -> bytes:
        return json.dumps({"jobs": jobs, "trace": trace}).encode("utf-8")

    plain_blob, traced_blob = blob(False), blob(True)
    check = repetition(plain_blob, CHECK_HASHSEED, hard_stop)
    window_end = perf_counter() + seconds
    plain: list[dict] = []
    traced_reps: list[dict] = []
    while True:
        now = perf_counter()
        enough = len(plain) >= MIN_REPS and (not traced or len(traced_reps) >= MIN_TRACED_REPS)
        if enough and (now >= window_end or now >= hard_stop):
            break
        if traced and len(traced_reps) < len(plain):
            traced_reps.append(repetition(traced_blob, TIMED_HASHSEED, hard_stop + 25))
        else:
            plain.append(repetition(plain_blob, TIMED_HASHSEED, hard_stop + 25))
    return check, plain, traced_reps


def check_outputs(jobs: list[dict], reps: list[dict]) -> list[str]:
    """Every failed output check, as a readable line."""
    problems = []
    reference = reps[0]["jobs"]
    for rep in reps[1:]:
        for ref, got in zip(reference, rep["jobs"]):
            if ref != got:
                problems.append(f"{ref['name']}: a repetition's outputs differ "
                                f"(trace {ref['sha256'][:12]} vs {got['sha256'][:12]})")
    for job, out in zip(jobs, reference):
        if out["failed"]:
            verdict = "pass" if job["expect_ok"] else "fail"
            problems.append(f"{out['name']}: {out['failed']} of {out['attempted']} operations "
                            f"missed their expected outcome (expected verdict: {verdict})")
    for rep in reps:
        if rep["tick_tail_per_mille"] is None or rep["tick_tail_per_mille"] < 990:
            problems.append(f"{rep['ticks']} tick samples leave fewer than "
                            f"{metrics.MIN_BEYOND} beyond the 99th percentile")
            break
    return problems


def end_to_end(jobs: list[dict], plain: list[dict], reference: list[dict]) -> dict:
    latencies = [latency
                 for job, out in zip(jobs, reference) if job["expect_ok"]
                 for latency in out["latencies"] if latency is not None]
    median = statistics.median
    values = {
        "setup_s": median(r["setup_s"] for r in plain),
        "run_s": median(r["run_s"] for r in plain),
        "ticks_per_s": median(r["ticks"] / r["run_s"] for r in plain),
        "tick_ms.p99": median(r["tick_ms_p99"] for r in plain),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
        "transfer_ticks.p50": metrics.percentile(latencies, 500),
        "transfer_ticks.p90": metrics.percentile(latencies, 900),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    median = statistics.median
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (traced[0]["calls"][layer], "count")
        out[f"{layer}.self_s"] = (median(r["self_s"][layer] for r in traced), "s")
    counts = traced[0]["counts"]
    for name in ("chain.retained_snapshots", "chain.rejected_txs", "contracts.stale_votes",
                 "witness.resends", "simnet.drops", "simnet.dups"):
        out[name] = (counts[name], "count")
    out["trace.bytes"] = (counts["trace.bytes"], "B")
    out["chain.accept_ratio"] = (
        1 - counts["chain.rejected_txs"] / counts["chain.offered_txs"], "share")
    out["witness.vote_yield"] = (
        counts["witness.included_votes"] / max(1, counts["witness.submitted_votes"]), "share")
    out["tracing.coverage"] = (
        median(sum(r["self_s"].values()) / r["traced_wall_s"] for r in traced), "share")
    out["tracing.overhead_s"] = (
        median(r["run_s"] for r in traced) - median(r["run_s"] for r in plain), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def report(workload: str, seed: int, jobs: list[dict], check: dict, plain: list[dict],
           traced: list[dict], result: dict, problems: list[str]) -> None:
    reference = check["jobs"]
    attempted = sum(j["attempted"] for j in reference)
    failed = sum(j["failed"] for j in reference)
    stalled = sum(j["stalled"] for j in reference)
    print(f"perfbench {workload} seed {seed}: {len(jobs)} run(s) per repetition, "
          f"{check['ticks']} ticks; {len(plain)} untraced + {len(traced)} traced repetitions "
          f"after 1 check repetition under PYTHONHASHSEED={CHECK_HASHSEED}")
    for job in reference:
        print(f"  trace sha256 {job['sha256']}  {job['name']}  ({job['ticks']} ticks"
              f"{', stalled' if job['stalled'] else ''})")
    for name, metric in result["metrics"].items():
        print(f"  {name:<28} {metric['value']:<22} {metric['unit']}")
    print(f"  {'error_rate':<28} {failed / attempted:<22} share  "
          f"({failed} of {attempted} operations missed their expected outcome)")
    print(f"  {'stall_rate':<28} {stalled / len(reference):<22} share  "
          f"({stalled} of {len(reference)} runs hit max_ticks without quiescing)")
    print(f"  tick samples per repetition: {check['ticks']}, "
          f"{metrics.beyond(check['ticks'], 990)} beyond the 99th percentile")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import bridgesim
        import workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if Path(bridgesim.__file__).resolve().parent != ROOT / "src" / "bridgesim":
        print(f"perfbench: bridgesim resolved to {bridgesim.__file__}, "
              f"not to this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    try:
        jobs = workloads.build(args.workload, args.seed, ROOT)
        check, plain, traced = measure(jobs, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    problems = check_outputs(jobs, [check] + plain + traced)
    reference = check["jobs"]
    result = {
        "correct": not problems,
        "attempted": sum(j["attempted"] for j in reference),
        "failed": sum(j["failed"] for j in reference),
        "metrics": per_layer(plain, traced) if args.trace else
        end_to_end(jobs, plain, reference),
    }
    report(args.workload, args.seed, jobs, check, plain, traced, result, problems)
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
