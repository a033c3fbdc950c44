"""The scheduler's kept answers: horizons, wake ticks, settledness and deadlines.

``Simulation._run_tick`` runs only the empty seals below its horizon, steps
only the witnesses and owner daemons whose wake tick has come, and pokes a
chain's contracts only once its memoised earliest deadline has come.  At or
past the horizon every tick does something, so settledness is derived again
at each of them.  These tests hold each kept answer to a full recomputation
at every tick, at every tick below a horizon and at every wake tick slept
through, and count what the scheduler skips.
"""

import copy
import json
from pathlib import Path
from typing import NamedTuple

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


def dropped_deposit():
    """A reorg within omega drops a deposit's block, and the deposit with
    it, before the witnesses could read its lock: the wake tick worked out
    for that read is due to be worked out again."""
    plan = {"reorg_schedule": [{
        "tick": 72, "chain": presets.addr("token-chain"), "depth": 1,
        "exclude": [presets.deposit_tx_digest("alice", "creator-side", 100)],
    }]}
    return presets.registered_with_transfers(deposits=[100, 60], withdrawals=[], spacing=40,
                                             fault_plan=plan)


RUNS = {f"{name}-{override}": (lambda name=name: fixture(name), override)
        for name, override in PINNED}
RUNS["faulty-preset"] = (faulty, None)
RUNS["dropped-deposit"] = (dropped_deposit, None)
RUNS["stranded-lane"] = (lambda: restored_deadline(stranded=True), None)


def fresh_deadline(chain):
    deadlines = [lane.deadline for contract in chain.contracts.values()
                 for lane in contract.lanes() if lane.deadline is not None]
    return min(deadlines, default=None)


def poke_due(chain, tick):
    deadline = fresh_deadline(chain)
    return deadline is not None and deadline <= tick


def assert_nothing_to_read(cursor, chain, watched, where):
    """Read window by window, every height of every window ready at the
    head, on a copy of ``cursor``: no window anchors, none is ready when
    ``omega`` is 0 (a step would move the window it reads), and no ready
    window holds an event of a watched contract."""
    probe = copy.copy(cursor)
    while (window := probe.window_if_ready(chain.height)) is not None:
        assert cursor.omega and not cursor.first_time, f"{where}: a window is due at {window}"
        events = [ev for height in range(window[0], window[1] + 1)
                  for ev in chain.events_at(height) if ev.contract in watched]
        assert not events, f"{where}: {len(events)} events in {window}"
        probe.advance(window)


@pytest.fixture
def every_tick(monkeypatch):
    """Checks each kept answer against a full recomputation after every tick.
    Below a horizon it checks from scratch that only empty blocks are due: no
    scheduled event, no queued transaction and no lane deadline at a chain
    that seals a block, and no step.  At or past it, every tick after tick 0
    does something: it dispatches an event, offers a producing chain a queued
    transaction or a poke whose deadline has come, or steps a node.  At every
    polling wake tick at which a live witness does not step, and every tick at
    which a watching owner daemon does not, it checks from scratch that the
    step could not act: nothing to read, and for a witness no vote due and the
    behavior of its last live step.  Every witness step acts, follows a
    behavior change or moves a cursor whose ``omega`` is 0: no wake tick
    comes early.  Returns the ticks seen, those below a horizon, and the
    (name, tick) of each wake tick slept through."""
    seen = {"ticks": [], "quiet": [], "slept": []}
    run_tick, step, daemon_step = (simnet.Simulation._run_tick, WitnessNode.step,
                                   simnet.OwnerDaemon.step)
    live_as, stepped = {}, []

    def checked(sim):
        tick = sim.tick
        quiet = tick < sim.horizon
        if quiet:
            assert not (sim.events and sim.events[0][0] <= tick), f"tick {tick}: an event"
            for chain_id, host in sim.hosts.items():
                if tick % host.chain.interval == 0:
                    assert not host.mempool and not poke_due(host.chain, tick), \
                        f"tick {tick}: a block of {chain_id} is offered a transaction"
            seen["quiet"].append(tick)
        # An event due, or a producing chain offered a transaction or a poke.
        offered = bool(sim.events and sim.events[0][0] <= tick) or any(
            tick % host.chain.interval == 0
            and (host.mempool or host.chain.height and poke_due(host.chain, tick))
            for host in sim.hosts.values())
        stepped.clear()
        run_tick(sim)
        assert not (quiet and stepped), f"tick {tick}: a step below the horizon"
        assert quiet or not tick or offered or stepped, f"tick {tick}: nothing to do"
        settled, finished = sim._settled()
        assert sim.was_settled == settled, f"tick {tick}: settledness"
        assert (sim.ended_at == tick) == finished, f"tick {tick}: finished"
        for chain_id, host in sim.hosts.items():
            assert host.chain.earliest_deadline() == fresh_deadline(host.chain), \
                f"tick {tick}: earliest deadline of {chain_id}"
        # Nothing a witness or a daemon reads changes after its phase.
        for witness in sim.witnesses:
            cfg = witness.config
            if witness in stepped or cfg.behavior == Behavior.CRASHED or \
                    (witness.anchored and tick % cfg.sleep):
                continue
            where = f"{cfg.name} at tick {tick}"
            assert cfg.behavior == live_as.get(cfg.name), where
            assert not [vote for vote in witness.pending.values()
                        if vote.last_submit is None
                        or tick - vote.last_submit >= cfg.timeout], where
            for chain, cursor, watched in witness.watches:
                assert_nothing_to_read(cursor, chain, watched, where)
            seen["slept"].append((cfg.name, tick))
        for daemon in sim.owner_daemons:
            if daemon not in stepped:
                for chain, cursor, watched in daemon.watches:
                    assert_nothing_to_read(cursor, chain, watched, f"owner at tick {tick}")
        seen["ticks"].append(tick)

    def witness_stepped(witness, view, tick):
        stepped.append(witness)
        cfg = witness.config
        changed = cfg.behavior != live_as.get(cfg.name)
        if cfg.behavior != Behavior.CRASHED:
            live_as[cfg.name] = cfg.behavior

        def zero_omega_starts():
            return [cursor.next_start for _, cursor, _ in witness.watches if not cursor.omega]

        before = zero_omega_starts()
        acted = step(witness, view, tick)
        assert acted or changed or zero_omega_starts() != before, \
            f"{cfg.name} at tick {tick}: an idle step"
        return acted

    def daemon_stepped(daemon, view, tick):
        stepped.append(daemon)
        return daemon_step(daemon, view, tick)

    monkeypatch.setattr(simnet.Simulation, "_run_tick", checked)
    monkeypatch.setattr(WitnessNode, "step", witness_stepped)
    monkeypatch.setattr(simnet.OwnerDaemon, "step", daemon_stepped)
    return seen


@pytest.mark.parametrize("case", sorted(RUNS))
def test_kept_answers_match_a_full_recomputation_at_every_tick(case, every_tick):
    build, override = RUNS[case]
    result = simnet.run_scenario(parse_scenario(build()), threshold_override=override)
    assert every_tick["ticks"] == list(range(result.sim.ended_at + 1))
    assert every_tick["quiet"] and every_tick["slept"]


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


class Step(NamedTuple):
    name: str
    tick: int
    first: bool    # a cursor had not yet anchored its first window
    live: bool     # the witness was not crashed
    changed: bool  # its behavior differs from the one at its last live step
    acted: bool    # the step read a batch, anchored a window, or sent or dropped a vote


def record_steps(monkeypatch):
    """One ``Step`` per step call, as the step began and what it returned."""
    step = WitnessNode.step
    calls = []

    def recorded(witness, view, tick):
        cfg = witness.config
        first = any(watch.cursor.first_time for watch in witness.watches)
        live, changed = cfg.behavior != Behavior.CRASHED, cfg.behavior != witness.live_as
        acted = step(witness, view, tick)
        calls.append(Step(cfg.name, tick, first, live, changed, acted))
        return acted

    monkeypatch.setattr(WitnessNode, "step", recorded)
    return calls


def test_witnesses_step_only_on_sleep_and_first_time_ticks(monkeypatch):
    """Two transfers far apart leave a long idle stretch between them.  A
    witness steps only on sleep ticks and on ticks before its cursors
    anchored their first windows, and only when it can act: every step read
    a batch, anchored a window, sent a vote or followed a behavior change
    (each witness's first step does).  In the idle stretch none steps."""
    calls = record_steps(monkeypatch)
    data = presets.registered_with_transfers(deposits=[100], withdrawals=[40], spacing=300)
    result = simnet.run_scenario(parse_scenario(data))
    sim = result.sim
    assert result.quiescent and result.failures == []
    for step in calls:
        assert step.tick % sim.scenario.sleep == 0 or step.first, step
        assert step.acted or step.changed, step
    assert {step.name for step in calls if step.changed} == {w.config.name for w in sim.witnesses}
    idle = range(120, 350)  # between the deposit's payout and the withdrawal
    assert not any(r["kind"] == "submit" and r["tick"] in idle
                   for r in map(json.loads, result.trace_lines))
    assert not [step for step in calls if step.tick in idle]


def test_quiet_steps_leave_settledness_alone(monkeypatch):
    """Between the deposit's payout and the withdrawal nothing is read or
    submitted, so no tick there runs the phases: no witness acts in that
    idle stretch, settledness is derived not once, and every tick there only
    seals its empty blocks."""
    step, settled, run_tick = WitnessNode.step, simnet.Simulation._settled, \
        simnet.Simulation._run_tick
    acted, derived, phased = [], [], []

    def stepped(witness, view, tick):
        result = step(witness, view, tick)
        if result:
            acted.append(tick)
        return result

    def counted(sim):
        derived.append(sim.tick)
        return settled(sim)

    def ran(sim):
        if sim.tick >= sim.horizon:
            phased.append(sim.tick)
        run_tick(sim)

    monkeypatch.setattr(WitnessNode, "step", stepped)
    monkeypatch.setattr(simnet.Simulation, "_settled", counted)
    monkeypatch.setattr(simnet.Simulation, "_run_tick", ran)
    data = presets.registered_with_transfers(deposits=[100], withdrawals=[40], spacing=300)
    result = simnet.run_scenario(parse_scenario(data))
    assert result.quiescent and result.failures == []
    idle = range(120, 350)
    assert acted and not any(tick in idle for tick in acted)
    assert derived and not any(tick in idle for tick in derived)
    assert phased and not any(tick in idle for tick in phased)


def test_a_recovered_witness_steps_on_its_next_sleep_tick(monkeypatch):
    calls = record_steps(monkeypatch)
    data = faulty()
    recover = data["fault_plan"]["behavior_schedule"][1]["tick"]
    sleep = data["timeouts"]["T"]
    assert recover % sleep, "the recovery must fall between sleep ticks"
    simnet.run_scenario(parse_scenario(data))
    live_after = [step.tick for step in calls
                  if step.name == "side-1-w1" and step.live and step.tick >= recover]
    assert live_after[0] == (recover // sleep + 1) * sleep
    # A crashed witness does nothing, so it is not stepped.
    assert [step for step in calls if step.name == "side-1-w1" and not step.live] == []


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


def restored_deadline(reorg_tick=None, exclude=(), depth=2, stranded=False):
    """A deposit whose inbound lane opens below quorum at tick 92, because
    two of four witnesses are down, and concludes at tick 132 once one of
    them recovers.  With ``reorg_tick``, a side-chain reorg then drops the
    concluding vote's block and the blocks after it (``depth`` in all), and
    every witness goes down, so nothing but a poke can close the lane again.
    ``stranded``: the other two witnesses go down at tick 95 instead, and
    nobody recovers, so nothing but a poke ever closes the lane."""
    flips = [(60, "side-1-w2", "crashed"), (60, "side-1-w3", "crashed")]
    if stranded:
        flips += [(95, "side-1-w0", "crashed"), (95, "side-1-w1", "crashed")]
    else:
        flips.append((125, "side-1-w2", "honest"))
    plan = {"reorg_schedule": [], "behavior_schedule": []}
    if reorg_tick is not None:
        plan["reorg_schedule"].append({"tick": reorg_tick, "chain": presets.addr("side-1"),
                                       "depth": depth, "exclude": list(exclude)})
        flips += [(reorg_tick, f"side-1-w{i}", "crashed") for i in range(3)]
    plan["behavior_schedule"] = [{"tick": tick, "witness": name, "behavior": behavior}
                                 for tick, name, behavior in flips]
    return presets.registered_with_transfers(deposits=[100], withdrawals=[], fault_plan=plan,
                                             max_ticks=300)


@pytest.mark.parametrize("reorg_tick, depth", [(135, 2), (141, 6)])
def test_a_deadline_restored_by_a_reorg_is_poked_on_time(reorg_tick, depth, monkeypatch):
    """At tick 141 the deadline the concluded lane no longer had has been
    forgotten by a production at a tick that ran the phases; the reorg
    brings it back a tick before it falls due."""
    side = presets.addr("side-1")
    first = simnet.run_scenario(parse_scenario(restored_deadline()))
    records = [json.loads(line) for line in first.trace_lines]
    (late_vote,) = [r["payload"]["tx"] for r in records if r["kind"] == "submit"
                    and r["payload"].get("witness") == "side-1-w2" and r["tick"] >= 125]
    data = restored_deadline(reorg_tick=reorg_tick, exclude=[late_vote], depth=depth)
    gated = simnet.run_scenario(parse_scenario(data))
    # The reorg left the concluding vote's block (side height 49) empty.
    assert gated.sim.hosts[Address.from_hex(side)].chain.blocks[49].transactions == ()
    # The restored deadline is 50 ticks after the first votes landed at tick 92.
    assert timeouts(gated) == [(142, side)]
    monkeypatch.setattr(Chain, "earliest_deadline", lambda chain: 0)
    scanned = simnet.run_scenario(parse_scenario(data))
    assert gated.trace_lines == scanned.trace_lines


def test_a_stranded_lane_is_poked_on_time(monkeypatch):
    """No wake tick, event or queued transaction comes between the votes
    that open the lane and its deadline: the horizon stops there for the
    poke alone, as the run that scans every contract before every block
    does."""
    data = restored_deadline(stranded=True)
    gated = simnet.run_scenario(parse_scenario(data))
    assert timeouts(gated) == [(142, presets.addr("side-1"))]
    monkeypatch.setattr(Chain, "earliest_deadline", lambda chain: 0)
    assert gated.trace_lines == simnet.run_scenario(parse_scenario(data)).trace_lines


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
    """An owner daemon's approvals unsettle the bridge at the tick it queues
    them, as every tick that steps a node derives settledness again.  In a
    run the witnesses scan at sleep ticks what the daemon scans every tick,
    so they are still waiting for the payout when the daemon submits;
    rewinding the daemon's cursors while the bridge rests, and waking it,
    builds the quiet case by hand."""
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
    daemon.wake = sim.horizon = sim.tick
    mempool = sim.hosts[daemon.side.chain_id].mempool
    sim._run_tick()
    assert not daemon.watches and mempool
    assert not sim.was_settled


def test_idle_owner_daemons_are_not_stepped(monkeypatch):
    """A daemon steps only at the ticks at which it can read: the native-gas
    chain's daemon, which watches nothing, is never stepped, and the gasless
    chain's daemon steps only where it anchors a first window or reads a
    batch, up to the tick on which it submits, and on none after."""
    sim = simnet.Simulation(parse_scenario(fixture("mixed_variants")))
    step = simnet.OwnerDaemon.step
    steps = []

    def counted(daemon, view, tick):
        acted = step(daemon, view, tick)
        steps.append((daemon, tick, acted))
        return acted

    monkeypatch.setattr(simnet.OwnerDaemon, "step", counted)
    result = sim.run()
    assert result.ok and result.quiescent
    gasless, native = sim.owner_daemons
    assert native.side.genesis.variant != gasless.side.genesis.variant == VARIANT_GASLESS
    assert not gasless.watches and not native.watches
    submits = [r["tick"] for r in map(json.loads, result.trace_lines)
               if r["kind"] == "submit" and "owner" in r["payload"]]
    assert submits and set(submits) == {submits[0]}
    assert {daemon for daemon, _, _ in steps} == {gasless}
    assert all(acted for _, _, acted in steps) and steps[-1][1] == submits[0]
