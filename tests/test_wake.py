"""A skipped wake tick leaves the trace as the polling loop writes it.

At a wake tick the scheduler steps a witness only when ``can_act`` says the
step could read, anchor or send; otherwise the witness keeps its cursors where
they are.  Each run here goes twice, once as shipped and once with
``can_act`` answering yes at every wake tick, which is the paper's polling
loop, and the two traces must be the same bytes.

The grid puts a reorg ω+1 and 3ω+1 blocks deep on either chain at ticks
spread across the registration (ticks 2–38) and the transfers (deposits at
70 and 170, a withdrawal at 120; the bridge rests from tick 200), with sleep
periods 5 and 10, with a crash window that opens 12 ticks before the reorg,
after the witness has skipped, and closes 25 ticks after it, and with a side
chain whose ω is 0.  A reorg deeper than ω can move an event that was
already read into heights a skipped tick left behind the cursor, so the
reorg first brings every cursor to where the polling loop has it
(``WitnessNode.catch_up``).
"""

import itertools

import pytest

from bridgesim import presets, simnet
from bridgesim.scenario import parse_scenario
from bridgesim.witness import WitnessNode

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


def run(case, monkeypatch, polling):
    """The run's trace, and how many wake ticks it skipped and how many
    catch-ups moved a cursor."""
    counts = {"skips": 0, "caught_up": 0}
    skip, catch_up = WitnessNode.skip, WitnessNode.catch_up

    def counted_skip(witness, tick):
        counts["skips"] += 1
        skip(witness, tick)

    def counted_catch_up(witness):
        before = [watch.cursor.next_start for watch in witness.watches]
        catch_up(witness)
        counts["caught_up"] += before != [watch.cursor.next_start for watch in witness.watches]

    with monkeypatch.context() as patch:
        patch.setattr(WitnessNode, "skip", counted_skip)
        patch.setattr(WitnessNode, "catch_up", counted_catch_up)
        if polling:
            patch.setattr(WitnessNode, "can_act", lambda witness, tick: True)
        lines = simnet.run_scenario(scenario(*case)).trace_lines
    return lines, counts


@pytest.mark.parametrize("case", GRID, ids=lambda case: "-".join(map(str, case)))
def test_skipping_writes_the_polling_loops_trace(case, monkeypatch):
    skipping, counts = run(case, monkeypatch, polling=False)
    polling, polled = run(case, monkeypatch, polling=True)
    assert skipping == polling
    assert counts["skips"] > 0 and polled["skips"] == 0


def test_the_grid_reaches_a_catch_up_that_the_trace_depends_on(monkeypatch):
    """A deep token-chain reorg just before the second deposit, while the
    bridge rests between transfers: the witnesses have skipped since they
    last read, so the reorg catches their cursors up.  Without the catch-up
    this case writes another trace."""
    case = (TOKEN, 3 * presets.OMEGA_TOKEN + 1, 164, 10, 1, None)
    assert case in GRID
    _, counts = run(case, monkeypatch, polling=False)
    assert counts["caught_up"] > 0
    with monkeypatch.context() as patch:
        patch.setattr(WitnessNode, "catch_up", lambda witness: setattr(witness, "ready", None))
        uncaught = simnet.run_scenario(scenario(*case)).trace_lines
    assert uncaught != run(case, monkeypatch, polling=True)[0]
