"""Settle-point checks that resume where the previous settle point stopped.

``Simulation.check_invariants`` reads each chain once, on from the height the
previous check read, and each cursor counts for itself the windows that do
not follow on from the one before.  These tests hold the results to a
from-scratch rescan written here, at every settle point, which reads every
chain from genesis and every span a cursor was advanced over; and they count
the blocks a check reads.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from bridgesim import presets, simnet
from bridgesim.chain import (
    Address, Block, Chain, EventTopic, InvalidTransaction, Transaction, UserTransfer,
)
from bridgesim.scenario import is_genesis_file, parse_scenario
from bridgesim.simnet import InvariantResult
from bridgesim.witness import Behavior, RelayCursor

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
FIXTURES = sorted(
    path.stem for path in SCENARIOS.glob("*.json")
    if not is_genesis_file(json.loads(path.read_text(encoding="utf-8")))
)
RESUMED = ("relay_matches_canon", "window_contiguity", "zero_gasprice_rule")


# -- the oracle: every check recomputed from genesis --------------------------


def rescan_relay_worthy(sim, witness):
    cfg = witness.config
    # A gasless witness that cannot fetch the genesis relays no vault payout.
    relays_payout = (cfg.genesis.variant != "gasless"
                     or cfg.name not in sim.scenario.fault_plan.fetch_fail)
    wanted = set()
    for watch in witness.watches:
        chain_id, cursor = watch.chain.chain_id, watch.cursor
        chain = sim.hosts[chain_id].chain
        for height in range(0, min(cursor.next_start - 1, chain.height) + 1):
            for ev in chain.blocks[height].events:
                origin = ev.origin_plain(chain_id)
                if chain_id == sim.token_id:
                    if ev.contract not in cfg.token_watched():
                        continue
                    if ev.topic == EventTopic.CROSS_CHAIN_ARRIVED and \
                            ev.payload.get("kind") == "transfer":
                        wanted.add(origin)
                    elif ev.topic == EventTopic.EXIST_OR_NOT and ev.payload.get("success") \
                            and ev.payload.get("chain_id") == cfg.genesis.chain_id \
                            and relays_payout:
                        wanted.add(origin)
                else:
                    if ev.contract not in cfg.side_watched():
                        continue
                    if ev.topic == EventTopic.ASSETS_LOCKED:
                        wanted.add(origin)
                    elif ev.topic == EventTopic.CROSS_CHAIN_ARRIVED and \
                            ev.contract == cfg.genesis.register_contract:
                        wanted.add(origin)
    return wanted


def rescan(sim, spans):
    """relay_matches_canon, window_contiguity and zero_gasprice_rule, in the
    order ``check_invariants`` reports them, read from height 0 and from
    ``spans(cursor)``, every span the cursor was advanced over."""
    out = []
    changed = {c.witness for c in sim.scenario.fault_plan.behavior_schedule}
    for witness in sim.witnesses:
        cfg = witness.config
        if cfg.behavior != Behavior.HONEST or cfg.name in changed:
            continue
        wanted = rescan_relay_worthy(sim, witness)
        got = set(witness.relayed_origins)
        out.append(InvariantResult(
            "relay_matches_canon", cfg.name, got == wanted,
            "" if got == wanted else
            f"relayed-not-canon {sorted(got - wanted)}, missed {sorted(wanted - got)}",
        ))
    for witness in sim.witnesses:
        ok = True
        for _, cursor, _ in witness.watches:
            prev_end = None
            for start, end in spans(cursor):
                if end < start - 1 or (prev_end is not None and start != prev_end + 1):
                    ok = False
                prev_end = end
        out.append(InvariantResult("window_contiguity", witness.config.name, ok, ""))
    bad = 0
    for host in sim.hosts.values():
        chain = host.chain
        allowed = chain.witness_exempt | set(chain.contracts)
        for blk in chain.blocks:
            bad += sum(1 for tx in blk.transactions
                       if tx.gasprice == 0 and tx.sender not in allowed)
    out.append(InvariantResult("zero_gasprice_rule", "", bad == 0, f"{bad} violations"))
    return out


@pytest.fixture
def checks(monkeypatch):
    """Every ``check_invariants`` call of the runs in a test, each compared
    with the rescan; yields the resumed results, one list per call."""
    seen = []
    log = {}  # id(cursor) -> (cursor, every span its ``advance`` was given)
    advance = RelayCursor.advance

    def logged_advance(cursor, span):
        log.setdefault(id(cursor), (cursor, []))[1].append(span)
        advance(cursor, span)

    def spans(cursor):
        return log.get(id(cursor), (cursor, []))[1]

    original = simnet.Simulation.check_invariants

    def check(sim):
        results = original(sim)
        resumed = [r for r in results if r.name in RESUMED]
        assert resumed == rescan(sim, spans), f"tick {sim.tick}"
        seen.append((sim.tick, resumed))
        return results

    monkeypatch.setattr(RelayCursor, "advance", logged_advance)
    monkeypatch.setattr(simnet.Simulation, "check_invariants", check)
    return seen


def run(data, threshold_override=None):
    return simnet.run_scenario(parse_scenario(data), threshold_override=threshold_override)


def failed(seen, name):
    return [tick for tick, results in seen for r in results if r.name == name and not r.passed]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("fixture", FIXTURES)
def test_fixtures_match_the_rescan_at_every_settle_point(fixture, seed, checks):
    data = json.loads((SCENARIOS / f"{fixture}.json").read_text(encoding="utf-8"))
    data["seed"] = seed
    overrides = [None, 2] if fixture == "misconfigured_quorum" else [None]
    for override in overrides:
        run(data, override)
    assert checks
    if fixture == "deep_reorg_negative_control":
        assert failed(checks, "relay_matches_canon")
    else:
        assert not failed(checks, "relay_matches_canon")


def test_fetch_failure_matches_the_rescan(checks):
    data = presets.registered_with_transfers(deposits=[300], withdrawals=[100])
    data["fault_plan"] = {"fetch_fail": ["side-1-w3"]}
    run(data, None)
    assert checks and not failed(checks, "relay_matches_canon")


def test_reorgs_and_crash_flips_match_the_rescan(checks):
    """Reorgs within omega on both chains and a crash/recover flip, after and
    between settle points, as in the benchmark's faulty workload."""
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
            {"tick": 360, "witness": "side-1-w1", "behavior": "honest"},
        ],
    }
    data = presets.registered_with_transfers(
        deposits=[120, 80, 60, 90], withdrawals=[30, 20, 40, 10], spacing=45,
        fault_plan=plan, max_ticks=1200,
    )
    result = run(data)
    assert result.failures == []
    lines = [json.loads(line) for line in result.trace_lines]
    reorg_ticks = [rec["tick"] for rec in lines if rec["kind"] == "reorg"]
    settle_ticks = [tick for tick, _ in checks]
    assert len(reorg_ticks) == 4
    # Progress saved at a settle point is dropped by a later reorg.
    assert any(settle < reorg for settle in settle_ticks for reorg in reorg_ticks)
    assert any(settle > reorg_ticks[-1] for settle in settle_ticks)


def test_reorg_through_checked_heights_is_read_again(checks):
    """A reorg deeper than omega, after a settle point that read the deposit's
    block, erases the deposit: the next check reads the chain again and finds
    the relayed origin gone from the canonical chain."""
    digest = presets.deposit_tx_digest("alice", "creator-side", 300)
    # The deposit is mined at token height 16 (tick 80) and the bridge rests
    # at tick 110; at tick 115 the head is 23, so depth 8 forks at height 15.
    plan = {"reorg_schedule": [{"tick": 115, "chain": presets.addr("token-chain"),
                                "depth": 8, "exclude": [digest]}]}
    data = presets.registered_with_transfers(
        deposits=[300], withdrawals=[50], spacing=120, first_tick=80, fault_plan=plan,
    )
    run(data)
    before = [results for tick, results in checks if tick < 115]
    assert before and all(r.passed for r in before[-1])
    assert [tick for tick in failed(checks, "relay_matches_canon") if tick > 115]


@pytest.mark.parametrize("shift", [2, -1], ids=["skipped", "doubled"])
def test_resumed_window_check_still_fails(checks, monkeypatch, shift):
    """A witness that skips blocks, or reads one again, after the first
    settle point breaks window contiguity; the check that resumes from that
    point reports it."""
    data = presets.registered_with_transfers(deposits=[120, 80], withdrawals=[30], spacing=45)
    sim = simnet.Simulation(parse_scenario(data))
    cursor = sim.witnesses[0].watches[0].cursor  # the token chain's
    resumed = simnet.Simulation.check_invariants

    def check_then_skip(self):
        results = resumed(self)
        if len(checks) == 1:
            cursor.next_start += shift
        return results

    monkeypatch.setattr(simnet.Simulation, "check_invariants", check_then_skip)
    result = sim.run()
    assert not failed(checks[:1], "window_contiguity")
    assert failed(checks, "window_contiguity")
    assert ("window_contiguity", sim.witnesses[0].config.name) in {
        (f.name, f.chain) for f in result.failures}


def test_forged_zero_gasprice_block_fails_the_rule(checks):
    """Negative control for zero_gasprice_rule.  ``Chain._check_gas`` rejects a
    zero-gasprice transaction from an unexempt sender, so a block holding one
    is appended past ``apply_block``; the check and the next resumed check
    both count it."""
    data = json.loads((SCENARIOS / "happy_path.json").read_text(encoding="utf-8"))
    sim = run(data).sim
    assert not failed(checks, "zero_gasprice_rule")
    token = sim.hosts[sim.token_id].chain
    alice, bob = Address.from_label("alice"), Address.from_label("bob")
    tx = Transaction(sender=alice, to=bob, value=0, gasprice=0, payload=UserTransfer())
    with pytest.raises(InvalidTransaction):
        token._check_gas(tx)
    forged = Block(height=token.height + 1, parent_hash=token.head.hash, transactions=[tx])
    forged.hash = forged.compute_hash()
    token.blocks.append(forged)
    for _ in range(2):
        [rule] = [r for r in sim.check_invariants() if r.name == "zero_gasprice_rule"]
        assert not rule.passed
        assert rule.details == "1 violations"


# -- flat cost: what a check reads --------------------------------------------


class CountingBlocks(list):
    """A chain's block list that counts reads by height while ``on``.

    The head lookup ``blocks[-1]`` behind ``Chain.height`` is not counted; it
    reads no history.
    """

    def __init__(self, blocks, counter):
        super().__init__(blocks)
        self.counter = counter

    def __getitem__(self, index):
        if self.counter["on"]:
            if isinstance(index, slice):
                self.counter["blocks"] += len(range(*index.indices(len(self))))
            elif index >= 0:
                self.counter["blocks"] += 1
        return super().__getitem__(index)

    def __iter__(self):
        if self.counter["on"]:
            self.counter["blocks"] += len(self)
        return super().__iter__()


@pytest.mark.parametrize("n", [4, 32])
def test_settle_point_reads_follow_new_blocks_not_history(n, monkeypatch):
    """A check reads each block produced since the previous check at most
    twice (its transactions, and its events if it holds any), whatever the
    history, and a repeated check reads none."""
    spacing = 40  # long enough for the bridge to rest after every transfer
    data = presets.registered_with_transfers(
        deposits=[100] * n, withdrawals=[10] * n, spacing=spacing,
        max_ticks=800 + 2 * n * spacing,
    )
    sim = simnet.Simulation(parse_scenario(data))
    counter = Counter(on=0)
    for host in sim.hosts.values():
        host.chain.blocks = CountingBlocks(host.chain.blocks, counter)
    events_at = Chain.events_at

    def counted_events_at(chain, height):
        counter["events_at"] += counter["on"]
        return events_at(chain, height)

    monkeypatch.setattr(Chain, "events_at", counted_events_at)
    original = simnet.Simulation.check_invariants
    rows = []
    heights = [0]

    def measured(sim):
        reads = []
        for _ in range(2):
            counter["blocks"] = counter["events_at"] = 0
            counter["on"] = 1
            results = original(sim)
            counter["on"] = 0
            reads.append((counter["blocks"], counter["events_at"]))
        total = sum(host.chain.height for host in sim.hosts.values())
        rows.append((sim.tick, total - heights[-1], *reads))
        heights.append(total)
        return results

    monkeypatch.setattr(simnet.Simulation, "check_invariants", measured)
    result = sim.run()
    assert result.quiescent and result.failures == []
    assert len(rows) >= 2 * n
    for tick, produced, (blocks, events), again in rows:
        assert again == (0, 0), f"tick {tick}: a repeated check read {again}"
        assert events <= produced, f"tick {tick}"
        assert blocks <= 2 * produced, f"tick {tick}"
