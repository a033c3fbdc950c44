"""Self-tests for the benchmark's metric code: python3 perfbench/selftest.py"""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bridgesim import presets, simnet  # noqa: E402
from bridgesim.scenario import parse_scenario  # noqa: E402

import metrics  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS  # noqa: E402


def run(data: dict, threshold_override: int | None = None):
    sim = simnet.Simulation(parse_scenario(data), threshold_override=threshold_override)
    return sim, sim.run()


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1000))
        self.assertEqual(metrics.percentile(samples, 990), 989)
        self.assertEqual(metrics.beyond(1000, 990), 10)
        self.assertEqual(metrics.percentile(reversed(samples), 500), 499)
        self.assertEqual(metrics.percentile([7], 990), 7)

    def test_highest_percentile_keeps_ten_samples_beyond(self):
        cases = {
            10_000: 999,  # rank 9990, 10 beyond
            9_999: 990,   # the 99.9th leaves 9
            1_000: 990,
            999: 900,     # the 99th leaves 9
            100: 900,
            20: 500,
            19: None,
        }
        for n, expected in cases.items():
            with self.subTest(n=n):
                got = metrics.highest_percentile(n)
                self.assertEqual(got, expected)
                if got is not None:
                    self.assertGreaterEqual(metrics.beyond(n, got), metrics.MIN_BEYOND)


class TransferTicks(unittest.TestCase):
    def test_hand_checked_run_with_a_reorg_moving_a_deposit(self):
        # Deposit at tick 70 lands in token block 14; the depth-2 reorg at
        # tick 77 replaces blocks 14-15 and moves it to height 15.  Read off
        # the trace: the side chain's inbound ConsensusResult listing origin
        # (token, 15, 0) is in the side block of tick 92, the withdraw of
        # tick 130 is unlocked by the bridge head's token block of tick 145,
        # and the deposit of tick 190 is credited in the side block of 212.
        data = presets.registered_with_transfers(
            deposits=[300, 150], withdrawals=[120],
            fault_plan={"reorg_schedule": [
                {"tick": 77, "chain": presets.addr("token-chain"), "depth": 2, "exclude": []},
            ]},
        )
        sim, result = run(data)
        self.assertTrue(result.ok)
        moved = [b for b in sim.chain(sim.token_id).blocks if b.produced_at == 77]
        self.assertEqual([b.height for b in moved], [14, 15])
        self.assertEqual(len(moved[1].transactions), 1)
        self.assertEqual(
            metrics.transfer_ticks(sim, result.trace_lines),
            [(70, "deposit", 22), (130, "withdraw", 15), (190, "deposit", 22)],
        )

    def test_equal_actions_pair_with_occurrences_in_order(self):
        data = presets.registered_with_transfers(deposits=[200, 200], withdrawals=[50, 50])
        sim, result = run(data)
        self.assertEqual(
            metrics.transfer_ticks(sim, result.trace_lines),
            [(70, "deposit", 22), (130, "withdraw", 15),
             (190, "deposit", 22), (250, "withdraw", 15)],
        )

    def test_erased_deposit_never_completes(self):
        sim, result = run(presets.deep_reorg_negative_control())
        latencies = [latency for _, _, latency in metrics.transfer_ticks(sim, result.trace_lines)]
        self.assertEqual(latencies.count(None), 1)


class Outcomes(unittest.TestCase):
    def test_stalled_repro(self):
        # A crash then recovery of one witness leaves it resending a merged
        # outbound batch the others already executed: every transfer lands,
        # every invariant holds, and the run never quiesces.
        data = presets.registered_with_transfers(
            deposits=[100, 101, 102, 103], withdrawals=[50] * 4, spacing=30, first_tick=90,
            fault_plan={"behavior_schedule": [
                {"tick": 150, "witness": "side-1-w3", "behavior": "crashed"},
                {"tick": 300, "witness": "side-1-w3", "behavior": "honest"},
            ]},
        )
        sim, result = run(data)
        transfers = metrics.transfer_ticks(sim, result.trace_lines)
        out = metrics.outcomes(workloads.job("repro", data), result, transfers)
        self.assertEqual(out, {"attempted": 10, "failed": 0, "stalled": 1})
        self.assertFalse(result.quiescent)
        self.assertGreater(result.summary["resends"], 0)

    def test_wrong_verdict_and_missing_transfer_count_as_failed(self):
        data = presets.deep_reorg_negative_control()
        sim, result = run(data)
        transfers = metrics.transfer_ticks(sim, result.trace_lines)
        as_control = metrics.outcomes(workloads.job("control", data, expect_ok=False),
                                      result, transfers)
        self.assertEqual(as_control, {"attempted": 1, "failed": 0, "stalled": 0})
        as_pass = metrics.outcomes(workloads.job("control", data), result, transfers)
        # verdict + register + three transfers; the verdict and the erased
        # deposit miss.
        self.assertEqual(as_pass, {"attempted": 5, "failed": 2, "stalled": 0})

    def test_registration_expectation(self):
        data = presets.misconfigured_quorum()
        sim, result = run(data)
        reverted = workloads.job("safe", data, expect_registered=False)
        self.assertEqual(metrics.outcomes(reverted, result, [])["failed"], 0)
        registered = workloads.job("safe", data)
        self.assertEqual(metrics.outcomes(registered, result, [])["failed"], 1)


class BenchmarkFile(unittest.TestCase):
    def test_names_and_units_match_what_run_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         bench.END_TO_END_UNITS)
        counts = dict.fromkeys(
            ("chain.retained_snapshots", "chain.offered_txs", "chain.rejected_txs",
             "contracts.stale_votes", "witness.submitted_votes", "witness.included_votes",
             "witness.resends", "simnet.drops", "simnet.dups", "trace.bytes"), 1)
        traced = {"calls": dict.fromkeys(LAYERS, 1), "self_s": dict.fromkeys(LAYERS, 0.1),
                  "counts": counts, "traced_wall_s": 2.0, "run_s": 1.1}
        printed = bench.per_layer([{"run_s": 1.0}], [traced])
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         {name: metric["unit"] for name, metric in printed.items()})


if __name__ == "__main__":
    unittest.main()
