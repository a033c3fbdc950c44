"""End-to-end scheduler runs: flows, faults, determinism, invariant reports."""

import json

import pytest

from bridgesim import cli, presets, simnet
from bridgesim.chain import Address, Chain, InvalidReorg
from bridgesim.contracts import QuorumTally, RegistrationVault
from bridgesim.scenario import parse_scenario


def run(data, **kwargs):
    return simnet.run_scenario(parse_scenario(data), **kwargs)


def side_summary(result, label="side-1"):
    return result.summary["side_chains"][presets.addr(label)]


class TestHappyPath:
    def test_registration_reaches_the_narrative_end_state(self):
        result = run(presets.happy_path())
        sim = result.sim
        side_id = Address.from_hex(presets.addr("side-1"))
        head = sim.bridge_heads[side_id]
        side_chain = sim.hosts[side_id].chain

        assert result.quiescent
        assert sim.registry.chain_ids == [side_id]
        assert head.registered
        assert head.locked == presets.ATTACH - presets.FEE
        vault = side_chain.contracts[Address.from_hex(presets.addr("side-1-vault"))]
        assert isinstance(vault, RegistrationVault)
        assert vault.balance == 0
        assert vault.suicided
        creator_side = Address.from_hex(presets.addr("creator-side"))
        assert side_chain.balance(creator_side) == presets.BAL_RESV
        assert result.failures == []

    def test_exist_or_not_event_observed_in_trace(self):
        result = run(presets.happy_path())
        exists = []
        for line in result.trace_lines:
            rec = json.loads(line)
            if rec["kind"] == "block":
                for ev in rec["payload"]["events"]:
                    if ev["topic"] == "ExistOrNot":
                        exists.append(ev["payload"])
        assert exists and exists[0]["success"] is True

    def test_native_gas_happy_path(self):
        result = run(presets.happy_path(variant="native_gas"))
        side = side_summary(result)
        assert result.quiescent
        assert side["registered"]
        assert side["locked"] == presets.ATTACH - presets.FEE
        assert side["trading_sum"] == side["locked"]
        assert result.failures == []

    def test_settled_checks_recorded(self):
        result = run(presets.happy_path())
        assert result.summary["settled_checks"] >= 1


class TestTransfers:
    def test_gasless_round_trip_keeps_the_peg(self):
        result = run(presets.registered_with_transfers(deposits=[250, 120],
                                                       withdrawals=[180]))
        side = side_summary(result)
        assert result.quiescent
        expected = presets.BAL_RESV + 250 + 120 - 180
        assert side["locked"] == expected
        assert side["circulating"] == expected
        assert result.failures == []

    def test_native_round_trip_keeps_the_ledger_equation(self):
        result = run(presets.registered_with_transfers(variant="native_gas",
                                                       deposits=[250, 120],
                                                       withdrawals=[180]))
        side = side_summary(result)
        assert result.quiescent
        assert side["locked"] == side["trading_sum"]
        assert side["escrow"] == 0
        assert result.failures == []

    def test_mixed_variants_with_trades(self):
        result = run(presets.mixed_variants(seed=5))
        assert result.quiescent
        assert result.failures == []
        assert result.summary["settled_checks"] >= 2


class TestByzantine:
    def test_approve_all_minority_cannot_force_a_bad_registration(self):
        result = run(presets.byzantine_registration(n_byzantine=2, corrupt_request=True))
        assert not side_summary(result)["registered"]
        assert result.failures == []

    def test_reject_all_blocking_quorum_reverts_with_refund(self):
        result = run(presets.byzantine_registration(
            behavior="byzantine_reject_all", n_byzantine=2))
        side = side_summary(result)
        assert not side["registered"]
        assert side["locked"] == 0
        creator = Address.from_hex(presets.addr("creator"))
        balance = result.sim.hosts[result.sim.token_id].chain.balance(creator)
        refund = (presets.ATTACH - presets.FEE) - presets.FEE
        assert balance == 20_000 - presets.ATTACH + refund
        assert result.failures == []

    def test_crashed_witnesses_below_quorum_also_revert(self):
        result = run(presets.byzantine_registration(behavior="crashed", n_byzantine=2))
        assert not side_summary(result)["registered"]


class TestFaults:
    def test_lossy_network_still_completes_with_resends(self):
        result = run(presets.lossy_network(seed=3))
        side = side_summary(result)
        assert result.quiescent
        assert result.failures == []
        assert side["locked"] == side["circulating"]
        assert result.summary["resends"] >= 1

    def test_duplicated_messages_change_nothing(self):
        base = presets.registered_with_transfers(deposits=[300], withdrawals=[])
        dup = presets.registered_with_transfers(deposits=[300], withdrawals=[])
        dup["fault_plan"] = {"dup_rate": 0.9}
        clean = run(base)
        doubled = run(dup)
        assert clean.failures == doubled.failures == []
        assert side_summary(clean)["locked"] == side_summary(doubled)["locked"]
        assert side_summary(clean)["circulating"] == side_summary(doubled)["circulating"]

    def test_delayed_messages_converge(self):
        data = presets.registered_with_transfers(deposits=[300], withdrawals=[100])
        data["fault_plan"] = {"max_delay": 6}
        result = run(data)
        assert result.quiescent and result.failures == []

    def test_mid_run_crash_of_a_minority_is_tolerated(self):
        data = presets.registered_with_transfers(deposits=[300], withdrawals=[100],
                                                 spacing=90, first_tick=80)
        data["fault_plan"] = {"behavior_schedule": [
            {"tick": 60, "witness": "side-1-w3", "behavior": "crashed"}]}
        result = run(data)
        assert result.quiescent
        assert [f.name for f in result.failures] == []

    def test_fetch_failure_makes_witness_abstain(self):
        data = presets.happy_path()
        data["fault_plan"] = {"fetch_fail": ["side-1-w3"]}
        result = run(data)
        assert side_summary(result)["registered"]  # 3 of 4 still a quorum
        abstains = [json.loads(l) for l in result.trace_lines
                    if json.loads(l)["kind"] == "abstain"]
        assert abstains and abstains[0]["payload"]["witness"] == "side-1-w3"

    def test_a_witness_that_cannot_fetch_relays_no_payout(self):
        data = presets.happy_path()
        data["fault_plan"] = {"fetch_fail": ["side-1-w3"]}
        result = run(data)
        assert result.quiescent and result.failures == []
        assert side_summary(result)["vault_suicided"]
        submits = [r for r in map(json.loads, result.trace_lines) if r["kind"] == "submit"
                   and r["chain"] == presets.addr("side-1")
                   and r["payload"].get("witness") == "side-1-w3"]
        assert submits == []


class TestReorgs:
    def test_depth_within_window_is_invisible_to_the_peg(self):
        result = run(presets.reorg_scenario(seed=2, depth=2, reorg_tick=95))
        assert result.quiescent
        assert result.failures == []

    def test_depth_zero_is_a_noop(self):
        result = run(presets.reorg_scenario(seed=2, depth=0, reorg_tick=95))
        assert result.failures == []

    def test_double_window_depth_is_detected(self):
        result = run(presets.deep_reorg_negative_control())
        names = {f.name for f in result.failures}
        assert "peg_conservation" in names
        assert "relay_matches_canon" in names

    def test_depth_beyond_the_height_at_its_tick_is_refused(self):
        # The side chain is dormant, at height 0, when the reorg fires.
        data = presets.registered_with_transfers(deposits=[10], withdrawals=[5], spacing=20)
        data["fault_plan"] = {"reorg_schedule": [
            {"tick": 3, "chain": presets.addr("side-1"), "depth": 2}]}
        sim = simnet.Simulation(parse_scenario(data))
        side = sim.hosts[Address.from_hex(presets.addr("side-1"))].chain
        genesis = list(side.blocks)
        with pytest.raises(InvalidReorg, match=(
                rf"reorg at tick 3 on chain {presets.addr('side-1')}: "
                r"depth 2 exceeds the chain's height 0")):
            sim.run()
        assert sim.tick == 3
        assert side.blocks == genesis
        assert not any('"kind":"reorg"' in line for line in sim.trace.lines)

    def test_side_chain_reorg_within_window_is_safe(self):
        data = presets.registered_with_transfers(deposits=[300], withdrawals=[100],
                                                 spacing=90, first_tick=80)
        data["fault_plan"] = {"reorg_schedule": [
            {"tick": 101, "chain": presets.addr("side-1"), "depth": 1}]}
        result = run(data)
        assert result.quiescent
        assert result.failures == []


class TestMisconfiguredQuorum:
    def test_safe_threshold_reverts_the_bad_registration(self):
        result = run(presets.misconfigured_quorum())
        assert not side_summary(result)["registered"]
        assert result.failures == []

    def test_half_threshold_override_breaks_the_peg(self):
        result = run(presets.misconfigured_quorum(), threshold_override=2)
        assert side_summary(result)["registered"]
        names = {f.name for f in result.failures}
        assert "peg_conservation" in names
        assert "quorum_safety" in names

    def test_an_execution_short_of_the_threshold_fails_quorum_safety(self):
        sim = simnet.Simulation(parse_scenario(presets.happy_path()))
        head = sim.bridge_heads[Address.from_hex(presets.addr("side-1"))]
        lane = head.out_stream
        assert lane.threshold == 3 and len(lane.witnesses) == 4
        before = {r.name: r for r in sim.check_invariants()}["quorum_safety"]
        assert before.passed and before.details == ""
        lane.conclude(b"\x01" * 32, QuorumTally(subject=b"\x01" * 32, yes={lane.witnesses[0]}))
        after = {r.name: r for r in sim.check_invariants()}["quorum_safety"]
        assert not after.passed
        assert after.details == "1 executions below a safe quorum"


class TestConservation:
    def test_a_payout_credited_twice_fails_conservation(self, tmp_path, monkeypatch):
        """Negative control: the vault credits its payout twice, so from that
        block on the side chain's ledger sums to the supply plus the payout.
        The run records the block and exits 2."""
        execute = RegistrationVault._execute

        def pay_twice(self, ctx, lane, tally):
            outcome = execute(self, ctx, lane, tally)
            if outcome.get("success"):
                ctx.credit(outcome["to"], outcome["amount"])
            return outcome

        monkeypatch.setattr(RegistrationVault, "_execute", pay_twice)
        data = presets.happy_path()
        result = run(data)
        side = Address.from_hex(presets.addr("side-1"))
        chain = result.sim.hosts[side].chain
        height, total = chain.unbalanced
        payout = data["side_chains"][0]["genesis"]["Bal_Resv"]
        assert total == chain.total_supply + payout
        assert {(f.chain, f.details) for f in result.failures if f.name == "conservation"} == {
            (str(side), f"ledger {total} after height {height}, supply {chain.total_supply}")}
        path = tmp_path / "happy.json"
        path.write_text(json.dumps(data))
        assert cli.main(["run", str(path)]) == 2


class TestDeterminism:
    def test_same_seed_byte_identical_traces(self):
        a = run(presets.mixed_variants(seed=9))
        b = run(presets.mixed_variants(seed=9))
        assert a.trace_lines == b.trace_lines

    def test_different_seeds_diverge_under_faults(self):
        a = run(presets.lossy_network(seed=1))
        b = run(presets.lossy_network(seed=2))
        assert a.trace_lines != b.trace_lines

    def test_vote_subjects_match_batch_digests_in_trace(self):
        # Honest equivocation detection: every submitted relay must carry the
        # digest of exactly the batch it claims.
        result = run(presets.registered_with_transfers(deposits=[120], withdrawals=[]))
        resubmits = [json.loads(l) for l in result.trace_lines
                     if json.loads(l)["kind"] == "submit"]
        assert resubmits  # smoke: submissions made it into the trace


class TestScenarioRejection:
    def test_invalid_scenario_raises_before_any_run(self):
        data = presets.happy_path()
        data["side_chains"][0]["genesis"]["Bal_Bank"] += 3
        from bridgesim.scenario import ScenarioInvalid

        with pytest.raises(ScenarioInvalid):
            parse_scenario(data)


class TestVariantDetails:
    def test_native_chain_registers_from_nonzero_height(self):
        # A native-gas side chain may already be live when it registers.
        result = run(presets.happy_path(variant="native_gas", initial_height=5))
        side = side_summary(result)
        assert side["registered"]
        assert side["height"] >= 5
        assert side["trading_sum"] == side["locked"]
        assert result.failures == []

    def test_side_chain_records_do_not_disturb_the_peg(self):
        data = presets.registered_with_transfers(deposits=[200], withdrawals=[80])
        data["workload"].extend(
            {"tick": t, "action": "record", "chain_id": presets.addr("side-1"),
             "from": presets.addr("creator-side"), "to": presets.addr("creator-side"),
             "data": f"sensor reading {t}"}
            for t in (100, 140, 180)
        )
        data["workload"].sort(key=lambda a: a["tick"])
        result = run(data)
        assert result.quiescent
        assert result.failures == []
        side = side_summary(result)
        assert side["locked"] == side["circulating"] == presets.BAL_RESV + 120

    def test_equivocating_witness_never_pools_with_honest_votes(self):
        data = presets.registered_with_transfers(deposits=[150], withdrawals=[])
        data["witnesses"][3]["behavior"] = "equivocating"
        result = run(data)
        # three honest witnesses still carry every quorum; the equivocator's
        # lies tally separately and never execute
        assert result.quiescent
        assert result.failures == []
        side = side_summary(result)
        assert side["locked"] == side["circulating"] == presets.BAL_RESV + 150

    def test_empty_workload_is_vacuously_clean(self):
        data = presets.happy_path()
        data["workload"] = []
        result = run(data)
        assert result.quiescent
        assert result.failures == []
        assert not side_summary(result)["registered"]

    def test_witnesses_end_idle(self):
        result = run(presets.happy_path())
        assert result.quiescent
        assert all(witness.idle() for witness in result.sim.witnesses)


def test_a_rejection_after_a_debit_rolls_back_within_the_block(tmp_path, monkeypatch):
    """A deposit at tick 1, before the side chain is registered, is debited
    and then refused by the bridge head inside the token block of tick 5.
    The block restores its start state and replays the accepted prefix; the
    run stays correct, every chain matches a replay from genesis, and the
    trace replays identically."""
    data = presets.registered_with_transfers(deposits=[100], withdrawals=[40])
    data["workload"].append(
        presets.transfer_action("deposit", "side-1", 1, "alice", "creator-side", 50))
    restore, restores = Chain._restore, []

    def counted(chain, *args):
        restores.append((str(chain.chain_id), chain.height))
        return restore(chain, *args)

    monkeypatch.setattr(Chain, "_restore", counted)
    result = run(data)
    monkeypatch.undo()
    token_id = presets.addr("token-chain")
    blocks = [json.loads(line) for line in result.trace_lines]
    blocks = [r for r in blocks if r["kind"] == "block" and r["tick"] == 5
              and r["chain"] == token_id]
    assert [(len(b["payload"]["txs"]), [x["reason"] for x in b["payload"]["rejected"]])
            for b in blocks] == [(3, ["NotRegistered: side chain is not registered yet"])]
    assert restores == [(token_id, 0)]  # sealing the token chain's first block
    assert result.ok and result.quiescent
    for host in result.sim.hosts.values():
        assert host.chain.state_digest() == host.chain.replay_from_genesis().state_digest()
    trace = tmp_path / "rollback.trace"
    result.write_trace(str(trace))
    assert cli.main(["replay", str(trace)]) == 0
