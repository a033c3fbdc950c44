"""The benchmark's workloads, generated from ``bridgesim.presets`` and a seed.

A workload is a list of jobs.  Each job is one simulation run: a scenario in
its on-disk JSON shape, an optional threshold override, and the verdict the
run must reach.  The same seed always gives the same jobs.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from bridgesim import presets
from bridgesim.genesis import VARIANT_GASLESS, VARIANT_NATIVE_GAS
from bridgesim.presets import addr
from bridgesim.scenario import is_genesis_file

# Ticks a run may go on after its last scheduled action before it is cut off
# and counted as a stall.
DRAIN_TICKS = 600

DENSE_TRANSFERS = 80
DENSE_SPACING = 20
FAULTY_TRANSFERS = 48
FAULTY_SPACING = 30
FAULT_SEED = 1
SPARSE_TRANSFERS = 17
SPARSE_GAP = 160
# The fixtures run under the same seeds whatever the workload seed is, so
# the sweep's simulated outputs (trace digests, transfer ticks) are the same
# for every seed; the workload seed sets the order the runs go in.  Only
# lossy_network draws on its seed, and its few transfers would otherwise move
# the sweep's 90th-percentile transfer time from seed to seed.
FIXTURE_SEEDS = (1, 2, 3, 4)

# Verdicts README documents for the shipped fixtures that do not simply pass
# with every side chain registered: (threshold override, run passes, side
# chains registered).  Any other fixture must pass with registration done.
FIXTURE_EXPECT = {
    "byzantine_reject_majority": ((None, True, False),),
    "deep_reorg_negative_control": ((None, False, True),),
    "misconfigured_quorum": ((None, True, False), (2, False, True)),
}
DEFAULT_EXPECT = ((None, True, True),)


def job(name: str, scenario: dict, threshold_override: int | None = None,
        expect_ok: bool = True, expect_registered: bool = True) -> dict:
    return {
        "name": name,
        "scenario": scenario,
        "threshold_override": threshold_override,
        "expect_ok": expect_ok,
        "expect_registered": expect_registered,
    }


def _with_drain(scenario: dict) -> dict:
    last_tick = max(action["tick"] for action in scenario["workload"])
    return dict(scenario, max_ticks=last_tick + DRAIN_TICKS)


def _transfer_values(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    deposits = [rng.randint(50, 400) for _ in range(n)]
    withdrawals = [rng.randint(10, 40) for _ in range(n)]
    return deposits, withdrawals


def dense_gasless(seed: int) -> list[dict]:
    rng = random.Random(f"dense_gasless:{seed}")
    deposits, withdrawals = _transfer_values(rng, DENSE_TRANSFERS)
    scenario = presets.registered_with_transfers(
        seed=seed, deposits=deposits, withdrawals=withdrawals, spacing=DENSE_SPACING,
    )
    return [job("dense_gasless", _with_drain(scenario))]


def faulty_gasless(seed: int) -> list[dict]:
    """Faults from one fixed plan and network seed; the seed draws the values.

    Each fault pattern gives its own transfer-time tail (the 90th percentile
    moved by up to half from one fault seed to the next), so the plan is
    fixed and the workload's simulated outputs are the same for every seed.
    """
    deposits, withdrawals = _transfer_values(random.Random(f"faulty_gasless:{seed}"),
                                             FAULTY_TRANSFERS)
    rng = random.Random(f"faulty_gasless:faults:{FAULT_SEED}")
    first_tick = 90
    last_tick = first_tick + (2 * FAULTY_TRANSFERS - 1) * FAULTY_SPACING
    reorgs = []
    tick = 150
    while tick < last_tick:
        # Depth stays within each chain's confirmation window (omega).
        if rng.random() < 0.5:
            reorgs.append({"tick": tick, "chain": addr("token-chain"),
                           "depth": rng.randint(1, presets.OMEGA_TOKEN), "exclude": []})
        else:
            reorgs.append({"tick": tick, "chain": addr("side-1"),
                           "depth": presets.OMEGA_SIDE, "exclude": []})
        tick += rng.randint(80, 120)
    flips = []
    tick = 150
    while tick < last_tick:
        witness = f"side-1-w{rng.randrange(4)}"
        flips.append({"tick": tick, "witness": witness, "behavior": "crashed"})
        flips.append({"tick": tick + rng.randint(100, 200), "witness": witness,
                      "behavior": "honest"})
        tick += 400
    plan = {
        "drop_rate": 0.2,
        "dup_rate": 0.1,
        "max_delay": 3,
        "drop_start_tick": 80,
        "reorg_schedule": reorgs,
        "behavior_schedule": flips,
    }
    scenario = presets.registered_with_transfers(
        seed=FAULT_SEED, deposits=deposits, withdrawals=withdrawals, spacing=FAULTY_SPACING,
        first_tick=first_tick, fault_plan=plan,
    )
    return [job("faulty_gasless", _with_drain(scenario))]


def sparse_multichain(seed: int) -> list[dict]:
    rng = random.Random(f"sparse_multichain:{seed}")
    chains = (
        ("side-1", VARIANT_GASLESS, "creator"),
        ("side-2", VARIANT_GASLESS, "alice"),
        ("side-3", VARIANT_NATIVE_GAS, "bob"),
    )
    workload = [presets.register_action(label, tick=2 + 2 * i, creator=creator)
                for i, (label, _, creator) in enumerate(chains)]
    side_balance = {label: presets.BAL_RESV for label, _, _ in chains}
    users = ("alice", "bob")
    tick = 100
    # One transfer at a time: each chain in turn, three deposits then three
    # withdrawals, so the bridge rests between consecutive transfers.
    for i in range(SPARSE_TRANSFERS):
        label, variant, creator = chains[i % len(chains)]
        side_user = f"{creator}-side"
        if (i // len(chains)) % 2 == 0:
            value = rng.randint(20, 300)
            workload.append({"tick": tick, "action": "deposit", "chain_id": addr(label),
                             "from": addr(rng.choice(users)), "to": addr(side_user),
                             "value": value})
            side_balance[label] += value
        else:
            value = rng.randint(10, side_balance[label] // 3)
            workload.append({"tick": tick, "action": "withdraw", "chain_id": addr(label),
                             "from": addr(side_user), "to": addr(rng.choice(users)),
                             "value": value})
            side_balance[label] -= value
        if variant == VARIANT_NATIVE_GAS:
            value = rng.randint(1, 20)
            workload.append({"tick": tick + SPARSE_GAP // 2, "action": "trade",
                             "chain_id": addr(label), "from": addr(side_user),
                             "to": addr("carol-side"), "value": value})
            side_balance[label] -= value
        tick += SPARSE_GAP
    scenario = presets.scenario(
        seed=seed,
        side_specs=[presets._side_chain(label, variant, 4, 3) for label, variant, _ in chains],
        witnesses=[w for label, _, _ in chains for w in presets._witnesses(label, 4)],
        workload=workload,
    )
    return [job("sparse_multichain", _with_drain(scenario))]


def fixture_sweep(seed: int, root: Path) -> list[dict]:
    fixtures = []
    for path in sorted((root / "scenarios").glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if not is_genesis_file(data):
            fixtures.append((path.stem, data))
    if not fixtures:
        raise FileNotFoundError(f"no scenario fixtures under {root / 'scenarios'}")
    jobs = []
    for run_seed in FIXTURE_SEEDS:
        for name, data in fixtures:
            for override, ok, registered in FIXTURE_EXPECT.get(name, DEFAULT_EXPECT):
                jobs.append(job(f"{name}@{run_seed}", dict(data, seed=run_seed),
                                override, ok, registered))
    random.Random(f"fixture_sweep:{seed}").shuffle(jobs)
    return jobs


WORKLOADS = ("dense_gasless", "faulty_gasless", "sparse_multichain", "fixture_sweep")


def build(workload: str, seed: int, root: Path) -> list[dict]:
    if workload == "fixture_sweep":
        return fixture_sweep(seed, root)
    return {
        "dense_gasless": dense_gasless,
        "faulty_gasless": faulty_gasless,
        "sparse_multichain": sparse_multichain,
    }[workload](seed)
