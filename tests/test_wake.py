"""Sleeping through wake ticks and quiet ticks writes the polling loop's trace.

The scheduler steps a witness only at the first wake tick at which the step
could read, anchor or send (``next_wake``), and an owner daemon only at the
first tick at which it could read; in between they keep their cursors where
they are.  Below its horizon a tick only seals empty blocks.  Each run here
goes three ways: as shipped; as the paper's polling loop, with every witness
stepping at every wake tick and every watching daemon at every tick; and
with the horizon pinned to the next tick, so every tick runs every phase.
The three traces must be the same bytes.

The grid puts a reorg ω+1 and 3ω+1 blocks deep on either chain at ticks
spread across the registration (ticks 2–38) and the transfers (deposits at
70 and 170, a withdrawal at 120; the bridge rests from tick 200), with sleep
periods 5 and 10, with a crash window that opens 12 ticks before the reorg,
after the witness has slept, and closes 25 ticks after it, and with a side
chain whose ω is 0.  A reorg deeper than ω can move an event that was
already read into heights a slept wake tick left behind the cursor, so the
reorg first brings every cursor to where the polling loop has it
(``WitnessNode.catch_up``), and so does a behavior change, for the crashed
stretch it starts or ends.
"""

import itertools
import math
import random

import pytest

from bridgesim import presets, simnet
from bridgesim.chain import InvalidReorg
from bridgesim.scenario import parse_scenario
from bridgesim.witness import Behavior, WitnessNode

TOKEN, SIDE = "token-chain", "side-1"
# A side-chain reorg waits for the side chain's height: it starts producing
# blocks at tick 36, two ticks apart.
TICKS = {TOKEN: (38, 95, 130, 164, 230), SIDE: (45, 95, 130, 164, 230)}


def grid():
    """(chain, depth, tick, sleep, side omega, crash window or None)."""
    for side_omega, chain in itertools.product((1, 0), (TOKEN, SIDE)):
        omega = presets.OMEGA_TOKEN if chain == TOKEN else side_omega
        for depth, tick in itertools.product(sorted({omega + 1, 3 * omega + 1}), TICKS[chain]):
            yield chain, depth, tick, 5, side_omega, None
            if side_omega:
                yield chain, depth, tick, 10, side_omega, None
                yield chain, depth, tick, 10, side_omega, (tick - 12, tick + 25)


GRID = list(grid())


def scenario(chain, depth, tick, sleep, side_omega, crash):
    plan = {"reorg_schedule": [{"tick": tick, "chain": presets.addr(chain), "depth": depth,
                                "exclude": []}]}
    if crash is not None:
        plan["behavior_schedule"] = [
            {"tick": crash[0], "witness": "side-1-w1", "behavior": "crashed"},
            {"tick": crash[1], "witness": "side-1-w1", "behavior": "honest"},
        ]
    data = presets.registered_with_transfers(deposits=[100, 60], withdrawals=[40], spacing=50,
                                             fault_plan=plan, max_ticks=400, sleep=sleep)
    data["side_chains"][0]["omega"] = side_omega
    return parse_scenario(data)


BEHAVIORS = [b.value for b in Behavior]


def random_scenario(seed):
    """A scenario drawn from ``seed``: one or two side chains of either
    variant, any block intervals, ω from 0 (1 on the token chain) to 3, sleep
    and timeout periods, Byzantine and crashed witnesses, transfers, network
    faults, reorgs within and beyond ω, and behavior flips."""
    rng = random.Random(seed)
    variant = rng.choice(["gasless", "native_gas"])
    sides, witnesses, workload = [], [], []
    for k in range(rng.choice([1, 1, 1, 2])):
        label = f"side-{k + 1}"
        kind = variant if k == 0 else rng.choice(["gasless", "native_gas"])
        n = rng.choice([3, 4, 5])
        spec = presets._side_chain(label, kind, n, rng.randint(n // 2 + 1, n),
                                   omega=rng.randint(0, 3),
                                   initial_height=0 if kind == "gasless" else rng.choice([0, 3]))
        spec["block_interval"] = rng.randint(1, 4)
        sides.append(spec)
        witnesses += presets._witnesses(label, n, {j: rng.choice(BEHAVIORS) for j in range(n)
                                                   if rng.random() < 0.15})
        workload.append(presets.register_action(label, tick=2 + 2 * k,
                                                creator="alice" if k else "creator"))
    tick = rng.randint(40, 90)
    for _ in range(rng.randint(0, 4)):
        workload.append(presets.transfer_action("deposit", "side-1", tick, "alice", "creator-side",
                                                rng.randint(10, 300)))
        tick += rng.randint(10, 80)
        if rng.random() < 0.6:
            workload.append(presets.transfer_action("withdraw", "side-1", tick, "creator-side",
                                                    "alice", rng.randint(5, 100)))
            tick += rng.randint(10, 80)
    data = presets.scenario(seed=rng.randint(1, 10**6), side_specs=sides, witnesses=witnesses,
                            workload=sorted(workload, key=lambda a: a["tick"]),
                            max_ticks=rng.randint(300, 900), timeout=rng.randint(5, 60),
                            sleep=rng.randint(1, 12))
    data["token_chain"].update(block_interval=rng.randint(1, 6), omega=rng.randint(1, 3))
    plan = data["fault_plan"]
    if rng.random() < 0.4:
        plan.update(drop_rate=rng.choice([0.1, 0.3]), dup_rate=rng.choice([0, 0.1, 0.3]),
                    max_delay=rng.randint(0, 4), drop_start_tick=rng.randint(0, 200))
    if rng.random() < 0.6:
        chains = [presets.addr(label) for label in ("token-chain", "side-1", "side-2")]
        chains = chains[:1 + len(sides)]
        plan["reorg_schedule"] = [{"tick": rng.randint(20, 400), "chain": rng.choice(chains),
                                   "depth": rng.randint(0, 7), "exclude": []}
                                  for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.5:
        plan["behavior_schedule"] = sorted(
            ({"tick": rng.randint(1, 400), "witness": rng.choice(witnesses)["name"],
              "behavior": rng.choice(BEHAVIORS)} for _ in range(rng.randint(1, 4))),
            key=lambda change: change["tick"])
    return parse_scenario(data)


def polling_wake(witness, earliest):
    """The polling loop's next wake tick."""
    sleep = witness.config.sleep
    return -(-earliest // sleep) * sleep if witness.anchored else earliest


def run(case, monkeypatch, how="shipped"):
    """The run's trace, and how many ticks ran below a horizon, how many
    steps there were and how many catch-ups moved a cursor.  ``how`` is
    "shipped", "polling" or "every tick"; ``case`` is a grid case or a
    random scenario's seed."""
    counts = {"quiet": 0, "steps": 0, "caught_up": 0}
    run_tick, step, catch_up = (simnet.Simulation._run_tick, WitnessNode.step,
                                WitnessNode.catch_up)

    def counted_run_tick(sim):
        counts["quiet"] += sim.tick < sim.horizon
        run_tick(sim)

    def counted_step(witness, view, tick):
        counts["steps"] += 1
        return step(witness, view, tick)

    def counted_catch_up(witness, tick):
        before = [watch.cursor.next_start for watch in witness.watches]
        catch_up(witness, tick)
        counts["caught_up"] += before != [watch.cursor.next_start for watch in witness.watches]

    with monkeypatch.context() as patch:
        patch.setattr(simnet.Simulation, "_run_tick", counted_run_tick)
        patch.setattr(WitnessNode, "step", counted_step)
        patch.setattr(WitnessNode, "catch_up", counted_catch_up)
        if how == "polling":
            patch.setattr(WitnessNode, "next_wake", polling_wake)
            patch.setattr(simnet.OwnerDaemon, "next_wake",
                          lambda daemon, earliest: earliest if daemon.watches else math.inf)
        elif how == "every tick":
            patch.setattr(simnet.Simulation, "_horizon", lambda sim, tick, wake: tick + 1)
        built = random_scenario(case) if isinstance(case, int) else scenario(*case)
        try:
            lines = simnet.run_scenario(built).trace_lines
        except InvalidReorg as exc:  # a reorg deeper than its chain: the same in all three
            lines = [str(exc)]
    return lines, counts


@pytest.mark.parametrize("case", GRID, ids=lambda case: "-".join(map(str, case)))
def test_sleeping_writes_the_polling_loops_trace(case, monkeypatch):
    shipped, counts = run(case, monkeypatch)
    polling, polled = run(case, monkeypatch, "polling")
    every_tick, unskipped = run(case, monkeypatch, "every tick")
    assert shipped == polling == every_tick
    assert counts["quiet"] > 0 and unskipped["quiet"] == 0
    assert counts["steps"] == unskipped["steps"] < polled["steps"]


# A seeded slice of random scenarios.  Seed 6 writes another trace if a new
# event may bring a wake tick no earlier than the block after next.
@pytest.mark.parametrize("seed", range(16))
def test_random_scenarios_write_the_polling_loops_trace(seed, monkeypatch):
    shipped, counts = run(seed, monkeypatch)
    polling, every_tick = (run(seed, monkeypatch, how)[0] for how in ("polling", "every tick"))
    assert shipped == polling == every_tick
    assert counts["quiet"] > 0


def test_the_grid_reaches_a_catch_up_that_the_trace_depends_on(monkeypatch):
    """A deep token-chain reorg just before the second deposit, while the
    bridge rests between transfers: the witnesses have slept since they
    last read, so the reorg catches their cursors up.  Without the catch-up
    this case writes another trace."""
    case = (TOKEN, 3 * presets.OMEGA_TOKEN + 1, 164, 10, 1, None)
    assert case in GRID
    _, counts = run(case, monkeypatch)
    assert counts["caught_up"] > 0
    with monkeypatch.context() as patch:
        patch.setattr(WitnessNode, "catch_up", lambda witness, tick: None)
        uncaught = simnet.run_scenario(scenario(*case)).trace_lines
    assert uncaught != run(case, monkeypatch, "polling")[0]
