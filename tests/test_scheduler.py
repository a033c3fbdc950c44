"""The scheduler's kept answers: wake ticks, settledness and deadlines.

``Simulation._run_tick`` derives settledness again only after a tick that
changed something, steps only the witnesses whose wake tick has come, and
pokes a chain's contracts only once its memoised earliest deadline has come.
These tests hold each kept answer to a full recomputation at every tick, and
count what the scheduler skips.
"""

import json
from pathlib import Path

import pytest

from bridgesim import cli, presets, simnet
from bridgesim.chain import Address, Chain
from bridgesim.contracts import Contract
from bridgesim.genesis import VARIANT_GASLESS
from bridgesim.scenario import is_genesis_file, parse_scenario
from bridgesim.witness import Behavior, WitnessNode

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FIXTURES = sorted(
    path.stem for path in SCENARIOS.glob("*.json")
    if not is_genesis_file(json.loads(path.read_text(encoding="utf-8")))
)
# Every pinned (fixture, --override-threshold) run.
PINNED = [(name, None) for name in FIXTURES] + [("misconfigured_quorum", 2)]


def fixture(name):
    return json.loads((SCENARIOS / f"{name}.json").read_text(encoding="utf-8"))


def faulty():
    """Drops, duplicates, delays, reorgs within omega on both chains and a
    crash/recover flip, the recovery off a sleep tick."""
    side = presets.addr("side-1")
    token = presets.addr("token-chain")
    plan = {
        "drop_rate": 0.2,
        "dup_rate": 0.1,
        "max_delay": 3,
        "drop_start_tick": 80,
        "reorg_schedule": [
            {"tick": 150, "chain": token, "depth": presets.OMEGA_TOKEN, "exclude": []},
            {"tick": 245, "chain": side, "depth": presets.OMEGA_SIDE, "exclude": []},
            {"tick": 330, "chain": token, "depth": 1, "exclude": []},
            {"tick": 420, "chain": side, "depth": presets.OMEGA_SIDE, "exclude": []},
        ],
        "behavior_schedule": [
            {"tick": 200, "witness": "side-1-w1", "behavior": "crashed"},
            {"tick": 363, "witness": "side-1-w1", "behavior": "honest"},
        ],
    }
    return presets.registered_with_transfers(
        deposits=[120, 80, 60, 90], withdrawals=[30, 20, 40, 10], spacing=45,
        fault_plan=plan, max_ticks=1200,
    )


RUNS = {f"{name}-{override}": (lambda name=name: fixture(name), override)
        for name, override in PINNED}
RUNS["faulty-preset"] = (faulty, None)


def fresh_deadline(chain):
    deadlines = [lane.deadline for contract in chain.contracts.values()
                 for lane in contract.lanes() if lane.deadline is not None]
    return min(deadlines, default=None)


@pytest.fixture
def every_tick(monkeypatch):
    """Checks each kept answer against a full recomputation after every tick;
    returns the ticks seen."""
    seen = []
    run_tick = simnet.Simulation._run_tick

    def checked(sim):
        run_tick(sim)
        settled, finished = sim._settled()
        assert sim.was_settled == settled, f"tick {sim.tick}: settledness"
        assert (sim.ended_at == sim.tick) == finished, f"tick {sim.tick}: finished"
        for chain_id, host in sim.hosts.items():
            assert host.chain.earliest_deadline() == fresh_deadline(host.chain), \
                f"tick {sim.tick}: earliest deadline of {chain_id}"
        seen.append(sim.tick)

    monkeypatch.setattr(simnet.Simulation, "_run_tick", checked)
    return seen


@pytest.mark.parametrize("case", sorted(RUNS))
def test_kept_answers_match_a_full_recomputation_at_every_tick(case, every_tick):
    build, override = RUNS[case]
    result = simnet.run_scenario(parse_scenario(build()), threshold_override=override)
    assert every_tick == list(range(result.sim.ended_at + 1))


@pytest.mark.parametrize("case", sorted(RUNS))
def test_every_pending_vote_has_been_sent_after_every_step(case, monkeypatch):
    """Why the wake rule reads only ``sleep`` and ``first_time``: an unsent
    vote is due at once, and no step leaves one behind."""
    step = WitnessNode.step
    steps = []

    def checked(witness, view, tick):
        acted = step(witness, view, tick)
        unsent = [key for key, vote in witness.pending.items() if vote.last_submit is None]
        assert not unsent, f"{witness.config.name} at tick {tick}"
        steps.append(acted)
        return acted

    monkeypatch.setattr(WitnessNode, "step", checked)
    build, override = RUNS[case]
    simnet.run_scenario(parse_scenario(build()), threshold_override=override)
    assert any(steps)


def record_steps(monkeypatch):
    """(witness name, tick, a cursor still first_time, live) per step call;
    a witness is live when it is not crashed as the step begins."""
    step = WitnessNode.step
    calls = []

    def recorded(witness, view, tick):
        first = any(watch.cursor.first_time for watch in witness.watches)
        live = witness.config.behavior != Behavior.CRASHED
        calls.append((witness.config.name, tick, first, live))
        return step(witness, view, tick)

    monkeypatch.setattr(WitnessNode, "step", recorded)
    return calls


def test_witnesses_step_only_on_sleep_and_first_time_ticks(monkeypatch):
    """Two transfers far apart leave a long idle stretch between them; each
    witness steps on exactly the sleep ticks and the ticks before its cursors
    anchored their first windows, not on every tick."""
    calls = record_steps(monkeypatch)
    data = presets.registered_with_transfers(deposits=[100], withdrawals=[40], spacing=300)
    result = simnet.run_scenario(parse_scenario(data))
    sim = result.sim
    assert result.quiescent and result.failures == []
    end = sim.ended_at
    for witness in sim.witnesses:
        name = witness.config.name
        ticks = [tick for who, tick, _, _ in calls if who == name]
        anchoring = [tick for who, tick, first, _ in calls if who == name and first]
        expected = sorted(set(anchoring) | set(range(0, end + 1, sim.scenario.sleep)))
        assert ticks == expected
        assert anchoring == list(range(len(anchoring)))
    idle = range(120, 350)  # between the deposit's payout and the withdrawal
    assert not any(r["kind"] == "submit" and r["tick"] in idle
                   for r in map(json.loads, result.trace_lines))
    idle_steps = [tick for _, tick, _, _ in calls if tick in idle]
    assert len(idle_steps) == len(sim.witnesses) * len(range(120, 350, sim.scenario.sleep))


def test_quiet_steps_leave_settledness_alone(monkeypatch):
    """Between the deposit's payout and the withdrawal no step reads an event
    or submits, so no step asks for settledness to be derived again: the
    idle sleep ticks, where every witness steps, derive it not once."""
    step, settled = WitnessNode.step, simnet.Simulation._settled
    acted, derived = [], []

    def stepped(witness, view, tick):
        result = step(witness, view, tick)
        if result:
            acted.append(tick)
        return result

    def counted(sim):
        derived.append(sim.tick)
        return settled(sim)

    monkeypatch.setattr(WitnessNode, "step", stepped)
    monkeypatch.setattr(simnet.Simulation, "_settled", counted)
    data = presets.registered_with_transfers(deposits=[100], withdrawals=[40], spacing=300)
    result = simnet.run_scenario(parse_scenario(data))
    assert result.quiescent and result.failures == []
    idle = range(120, 350)
    assert acted and not any(tick in idle for tick in acted)
    assert derived and not any(tick in idle for tick in derived)


def test_a_recovered_witness_steps_on_its_next_sleep_tick(monkeypatch):
    calls = record_steps(monkeypatch)
    data = faulty()
    recover = data["fault_plan"]["behavior_schedule"][1]["tick"]
    sleep = data["timeouts"]["T"]
    assert recover % sleep, "the recovery must fall between sleep ticks"
    simnet.run_scenario(parse_scenario(data))
    live_after = [tick for name, tick, _, live in calls
                  if name == "side-1-w1" and live and tick >= recover]
    assert live_after[0] == (recover // sleep + 1) * sleep
    crashed = [tick for name, tick, _, live in calls if name == "side-1-w1" and not live]
    assert crashed and all(tick % sleep == 0 for tick in crashed)


def timeouts(result):
    """(tick, chain) of every block in which a poke timed a lane out."""
    return [(rec["tick"], rec["chain"]) for rec in map(json.loads, result.trace_lines)
            if rec["kind"] == "block"
            and any(ev["payload"].get("error") == "timeout" for ev in rec["payload"]["events"])]


@pytest.mark.parametrize("case", ["faulty-preset", "lossy_network-None", "mixed_variants-None"])
def test_pokes_land_where_a_scan_before_every_block_puts_them(case, monkeypatch):
    """The earliest-deadline gate skips the poke scan, never a poke: the trace
    equals that of a run that scans every contract before every block."""
    build, override = RUNS[case]
    gated = simnet.run_scenario(parse_scenario(build()), threshold_override=override)
    monkeypatch.setattr(Chain, "earliest_deadline", lambda chain: 0)
    scanned = simnet.run_scenario(parse_scenario(build()), threshold_override=override)
    assert gated.trace_lines == scanned.trace_lines
    if case == "faulty-preset":
        assert timeouts(gated)


def restored_deadline(reorg_tick=None, exclude=()):
    """A deposit whose inbound lane opens below quorum at tick 92, because
    two of four witnesses are down, and concludes at tick 132 once one of
    them recovers.  With ``reorg_tick``, a side-chain reorg then drops the
    concluding vote's block and the empty block after it, and every witness
    goes down, so nothing but a poke can close the lane again."""
    flips = [(60, "side-1-w2", "crashed"), (60, "side-1-w3", "crashed"),
             (125, "side-1-w2", "honest")]
    plan = {"reorg_schedule": [], "behavior_schedule": []}
    if reorg_tick is not None:
        plan["reorg_schedule"].append({"tick": reorg_tick, "chain": presets.addr("side-1"),
                                       "depth": 2, "exclude": list(exclude)})
        flips += [(reorg_tick, f"side-1-w{i}", "crashed") for i in range(3)]
    plan["behavior_schedule"] = [{"tick": tick, "witness": name, "behavior": behavior}
                                 for tick, name, behavior in flips]
    return presets.registered_with_transfers(deposits=[100], withdrawals=[], fault_plan=plan,
                                             max_ticks=300)


def test_a_deadline_restored_by_a_reorg_is_poked_on_time(monkeypatch):
    side = presets.addr("side-1")
    first = simnet.run_scenario(parse_scenario(restored_deadline()))
    records = [json.loads(line) for line in first.trace_lines]
    (late_vote,) = [r["payload"]["tx"] for r in records if r["kind"] == "submit"
                    and r["payload"].get("witness") == "side-1-w2" and r["tick"] >= 125]
    data = restored_deadline(reorg_tick=135, exclude=[late_vote])
    gated = simnet.run_scenario(parse_scenario(data))
    # The reorg left the concluding vote's block (side height 49) empty.
    assert gated.sim.hosts[Address.from_hex(side)].chain.blocks[49].transactions == ()
    # The restored deadline is 50 ticks after the first votes landed at tick 92.
    assert timeouts(gated) == [(142, side)]
    monkeypatch.setattr(Chain, "earliest_deadline", lambda chain: 0)
    scanned = simnet.run_scenario(parse_scenario(data))
    assert gated.trace_lines == scanned.trace_lines


def test_poke_scans_run_only_once_a_deadline_has_come(monkeypatch):
    sim = simnet.Simulation(parse_scenario(faulty()))
    host_of = {id(contract): host.chain for host in sim.hosts.values()
               for contract in host.chain.contracts.values()}
    next_deadline = Contract.next_deadline
    earliest_deadline = Chain.earliest_deadline
    in_memo = []
    scans = set()

    def memo(chain):
        in_memo.append(chain)
        try:
            return earliest_deadline(chain)
        finally:
            in_memo.pop()

    def counted(contract):
        if not in_memo:  # a poke scan asking, not the chain's memo
            chain = host_of[id(contract)]
            assert fresh_deadline(chain) <= sim.tick
            scans.add((sim.tick, chain.chain_id))
        return next_deadline(contract)

    monkeypatch.setattr(Chain, "earliest_deadline", memo)
    monkeypatch.setattr(Contract, "next_deadline", counted)
    result = sim.run()
    blocks = sum(1 for line in result.trace_lines if json.loads(line)["kind"] == "block")
    assert scans and len(scans) * 10 < blocks


def test_a_reorg_at_rest_is_checked_before_the_run_ends(tmp_path, capsys):
    """Negative control: a reorg deeper than omega that erases a paid deposit
    while the bridge rests.  The run still ends at the reorg's tick, but only
    after a check of the reorganized state."""
    data = presets.registered_with_transfers(deposits=[100], withdrawals=[])
    data["fault_plan"] = {"reorg_schedule": [{
        "tick": 120, "chain": presets.addr("token-chain"), "depth": 10,
        "exclude": [presets.deposit_tx_digest("alice", "creator-side", 100)],
    }]}
    path = tmp_path / "reorg_at_rest.json"
    path.write_text(json.dumps(data))
    trace_path = tmp_path / "reorg_at_rest.trace"
    assert cli.main(["run", str(path), "--trace-out", str(trace_path)]) == 2
    capsys.readouterr()
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    (end,) = [r for r in records if r["kind"] == "end"]
    assert end["tick"] == 120 and end["payload"]["quiescent"]
    failed = {f["name"] for f in end["payload"]["invariant_failures"]}
    assert failed == {"peg_conservation", "relay_matches_canon"}
    last_check = [r for r in records if r["kind"] == "invariant"][-1]
    assert last_check["tick"] == 120 and not last_check["payload"]["final"]


def test_an_owner_submission_on_a_quiet_tick_unsettles_the_bridge():
    """The owner phase marks its tick as changed.  In a run the witnesses
    scan at sleep ticks what the daemon scans every tick, so they are still
    waiting for the payout when the daemon submits; rewinding the daemon's
    cursors while the bridge rests builds the quiet case by hand."""
    sim = simnet.Simulation(parse_scenario(presets.happy_path()))
    daemon = sim.owner_daemons[0]
    watches = daemon.watches  # the daemon drops them when it submits
    # Run past the end of the run, to just after a sleep tick.
    while sim.ended_at is None or sim.tick % sim.scenario.sleep != 1:
        sim._run_tick()
        sim.tick += 1
    assert not daemon.watches and sim.was_settled
    daemon.seen_registry_success = daemon.seen_payout = False
    daemon.watches = watches
    for watch in watches:
        watch.cursor.next_start = 0
    mempool = sim.hosts[daemon.side.chain_id].mempool
    sim._run_tick()
    assert not daemon.watches and mempool
    assert not sim.was_settled


def test_idle_owner_daemons_are_not_stepped(monkeypatch):
    """A daemon that watches nothing leaves the owner phase: the native-gas
    chain's daemon is never stepped, and the gasless chain's daemon steps on
    every tick up to the one on which it submits, and on none after."""
    sim = simnet.Simulation(parse_scenario(fixture("mixed_variants")))
    step = simnet.OwnerDaemon.step
    steps = []

    def counted(daemon):
        steps.append((daemon, sim.tick))
        return step(daemon)

    monkeypatch.setattr(simnet.OwnerDaemon, "step", counted)
    result = sim.run()
    assert result.ok and result.quiescent
    gasless, native = sim.owner_daemons
    assert native.side.genesis.variant != gasless.side.genesis.variant == VARIANT_GASLESS
    assert not gasless.watches and not native.watches
    submits = [r["tick"] for r in map(json.loads, result.trace_lines)
               if r["kind"] == "submit" and "owner" in r["payload"]]
    assert submits and set(submits) == {submits[0]}
    assert steps == [(gasless, tick) for tick in range(submits[0] + 1)]
