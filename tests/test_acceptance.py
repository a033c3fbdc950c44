"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Scenario runs are recorded in a module-level registry so the final
determinism/replay criterion re-executes every scenario the earlier criteria
used.
"""

import itertools
import json
import random

from bridgesim import cli, presets, simnet
from bridgesim.chain import Address
from bridgesim.contracts import INBOUND
from bridgesim.genesis import GASLESS_FIELDS, NATIVE_GAS_FIELDS
from bridgesim.scenario import parse_scenario, validate_scenario
from bridgesim.witness import registration_conditions

# name -> (scenario dict, threshold_override, RunResult)
RUNS: dict[str, tuple[dict, int | None, simnet.RunResult]] = {}


def run_and_record(name: str, data: dict, threshold_override: int | None = None):
    if name not in RUNS:
        result = simnet.run_scenario(parse_scenario(data),
                                     threshold_override=threshold_override)
        RUNS[name] = (data, threshold_override, result)
    return RUNS[name][2]


def side_summary(result, label="side-1"):
    return result.summary["side_chains"][presets.addr(label)]


def _ok(n, text):
    print(f"[acceptance {n}] PASS: {text}")


# -- criterion 1 -------------------------------------------------------------


class TestCriterion1RegistrationOracle:
    """All 64 combinations of the six validation conditions, zero tolerance."""

    def test_exhaustive_condition_grid(self):
        from test_witness import TestRegistrationValidation

        builder = TestRegistrationValidation()
        accepted = 0
        for mask in itertools.product([True, False], repeat=6):
            kw = builder.build_case(mask)
            assert registration_conditions(**kw) == list(mask)
            verdict = all(registration_conditions(**kw))
            assert verdict is all(mask)
            accepted += verdict
        assert accepted == 1
        _ok(1, "validation equals the six-condition conjunction on all 64 cases")


# -- criterion 2 -------------------------------------------------------------


def genesis_mutations():
    """Exactly 100 (scenario, expect_valid, note) fixtures."""
    out = []

    def gasless_case(mutate, note, valid=False):
        data = presets.happy_path()
        mutate(data["side_chains"][0]["genesis"])
        out.append((data, valid, note))

    def native_case(mutate, note, valid=False):
        data = presets.happy_path(variant="native_gas")
        mutate(data["side_chains"][0]["genesis"])
        out.append((data, valid, note))

    for field in GASLESS_FIELDS:
        gasless_case(lambda g, f=field: g.pop(f), f"gasless missing {field}")
    for field in NATIVE_GAS_FIELDS:
        native_case(lambda g, f=field: g.pop(f), f"native missing {field}")

    def bump(field, delta):
        def mutate(g):
            g[field] += delta
        return mutate

    for field, delta in (("Bal_Resv", 1), ("Bal_Resv", -1), ("Bal_Bank", 1),
                         ("Bal_Bank", -1), ("Bal_Bank", 12345), ("Bal_Resv", 999),
                         ("Bal_Bank", -999)):
        gasless_case(bump(field, delta), f"gasless {field} off by {delta}")

    for extra in ("Extra", "Bal_Extra", "SC_Side", "Note", "comment"):
        gasless_case(lambda g, e=extra: g.__setitem__(e, 1), f"unknown field {extra}")
        native_case(lambda g, e=extra: g.__setitem__(e, 1), f"native unknown {extra}")

    bad_addresses = ["0X12", "1234", "0x12345", "0x" + "A" * 40, 17, None,
                     "0x" + "0" * 38]
    for i, bad in enumerate(bad_addresses):
        field = ["Chain_ID", "SC_Register", "SC_Inter", "SC_Bank", "Chain_ID",
                 "SC_Register", "SC_Bank"][i]
        gasless_case(lambda g, f=field, b=bad: g.__setitem__(f, b),
                     f"bad address in {field}: {bad!r}")

    bad_amounts = ["many", 1.5, True, -1, -990, None, [990]]
    for i, bad in enumerate(bad_amounts):
        field = "Bal_Resv" if i % 2 else "Bal_Bank"
        gasless_case(lambda g, f=field, b=bad: g.__setitem__(f, b),
                     f"bad amount in {field}: {bad!r}")

    gasless_case(lambda g: g.__setitem__("Wit_Addr_List", []), "empty witness list")
    gasless_case(lambda g: g.__setitem__(
        "Wit_Addr_List", [g["Wit_Addr_List"][0]] * 4), "duplicate witnesses")
    gasless_case(lambda g: g.__setitem__(
        "Wit_Addr_List", g["Wit_Addr_List"] + [g["SC_Bank"]]),
        "witness colliding with a contract")
    gasless_case(lambda g: g.__setitem__("Wit_Addr_List", "w1"),
                 "witness list not a list")
    gasless_case(lambda g: g.__setitem__("SC_Bank", g["SC_Register"]),
                 "contract address collision")
    native_case(lambda g: g.__setitem__("SC_Trading", g["SC_Register"]),
                "native contract collision")
    native_case(lambda g: g.__setitem__("Wit_Addr_List", []), "native empty witnesses")

    # scenario-level inconsistencies around an intact genesis
    def roster_case(note):
        data = presets.happy_path()
        data["witnesses"][0]["side_address"] = presets.addr("stranger")
        out.append((data, False, note))

    roster_case("witness roster does not match the genesis list")

    def token_id_case():
        data = presets.happy_path()
        data["side_chains"][0]["genesis"]["Chain_ID"] = data["token_chain"]["chain_id"]
        out.append((data, False, "side chain id equals token chain id"))

    token_id_case()

    # valid controls: the base fixtures plus harmless variations
    out.append((presets.happy_path(), True, "reference gasless"))
    out.append((presets.happy_path(variant="native_gas"), True, "reference native"))
    out.append((presets.registered_with_transfers(), True, "gasless with transfers"))
    out.append((presets.mixed_variants(seed=3), True, "mixed variants"))

    def resplit(data, resv):
        g = data["side_chains"][0]["genesis"]
        total = g["Bal_Resv"] + g["Bal_Bank"]
        g["Bal_Resv"] = resv
        g["Bal_Bank"] = total - resv
        return data

    for resv in (1, 500, 5000, 999_999):
        out.append((resplit(presets.happy_path(), resv), True,
                    f"reserve split {resv}"))

    rng = random.Random(2)
    while len(out) < 100:
        delta = rng.randint(1, 10_000)
        field = rng.choice(["Bal_Resv", "Bal_Bank"])
        sign = rng.choice([1, -1])
        gasless_case(bump(field, sign * delta), f"random {field} {sign * delta}")
    return out[:100]


class TestCriterion2GenesisValidation:
    def test_hundred_mutated_fixtures(self):
        fixtures = genesis_mutations()
        assert len(fixtures) == 100
        false_accepts, false_rejects = [], []
        for data, expect_valid, note in fixtures:
            errors = [d for d in validate_scenario(data) if d.level == "error"]
            if expect_valid and errors:
                false_rejects.append((note, errors[:2]))
            if not expect_valid and not errors:
                false_accepts.append(note)
        assert not false_accepts, f"accepted invalid fixtures: {false_accepts}"
        assert not false_rejects, f"rejected valid fixtures: {false_rejects}"
        _ok(2, "100 mutated genesis fixtures: zero false accepts or rejects")


# -- criterion 3 -------------------------------------------------------------


class TestCriterion3RegistrationHappyPath:
    def test_exact_end_state(self):
        result = run_and_record("happy_gasless", presets.happy_path())
        sim = result.sim
        side_id = Address.from_hex(presets.addr("side-1"))
        head = sim.bridge_heads[side_id]
        side_chain = sim.hosts[side_id].chain
        vault = side_chain.contracts[Address.from_hex(presets.addr("side-1-vault"))]

        assert result.quiescent
        assert sim.registry.chain_ids == [side_id]
        exist_events = [
            ev for line in result.trace_lines
            for rec in [json.loads(line)] if rec["kind"] == "block"
            for ev in rec["payload"]["events"] if ev["topic"] == "ExistOrNot"
        ]
        assert exist_events and exist_events[0]["payload"]["success"] is True
        assert vault.balance == 0
        assert vault.suicided
        creator_side = Address.from_hex(presets.addr("creator-side"))
        assert side_chain.balance(creator_side) == presets.BAL_RESV
        assert head.locked == presets.ATTACH - presets.FEE
        assert result.failures == []
        _ok(3, "registration narrative end state matched exactly")


# -- criterion 4 -------------------------------------------------------------


def random_transfer_scenario(seed: int) -> dict:
    variant = "gasless" if seed % 2 == 0 else "native_gas"
    rng = random.Random(f"acceptance4:{seed}")
    deposits, withdrawals = [], []
    available = presets.BAL_RESV
    for _ in range(rng.randint(1, 3)):
        value = rng.randint(25, 450)
        deposits.append(value)
        available += value
        if rng.random() < 0.7:
            out = rng.randint(10, max(11, available - 60))
            withdrawals.append(out)
            available -= out
    return presets.registered_with_transfers(
        seed=seed, variant=variant, deposits=deposits, withdrawals=withdrawals,
        spacing=rng.choice((55, 60, 70)), first_tick=rng.choice((70, 75)),
        max_ticks=1_200,
    )


class TestCriterion4PegConservation:
    def test_hundred_seeded_workloads(self):
        for seed in range(100):
            data = random_transfer_scenario(seed)
            result = run_and_record(f"peg_{seed}", data)
            assert result.quiescent, f"seed {seed} never settled"
            assert result.summary["settled_checks"] >= 1
            assert result.failures == [], (
                f"seed {seed}: {[f.canonical() for f in result.failures][:2]}"
            )
            side = side_summary(result)
            if side["variant"] == "gasless":
                assert side["locked"] == side["circulating"]
            else:
                assert side["locked"] == side["trading_sum"]
                assert side["escrow"] == 0
        _ok(4, "peg held at every quiescent point over 100 seeded workloads")


# -- criterion 5 -------------------------------------------------------------


class TestCriterion5QuorumSafety:
    def test_fifty_byzantine_seeds(self):
        for seed in range(25):
            data = presets.byzantine_registration(
                seed=seed, n_byzantine=2, behavior="byzantine_approve_all",
                corrupt_request=True)
            result = run_and_record(f"byz_approve_{seed}", data)
            assert not side_summary(result)["registered"], f"seed {seed}"
            assert result.failures == [], f"seed {seed}"
        for seed in range(25):
            data = presets.byzantine_registration(
                seed=seed, n_byzantine=2, behavior="byzantine_reject_all")
            result = run_and_record(f"byz_reject_{seed}", data)
            side = side_summary(result)
            assert not side["registered"], f"seed {seed}"
            assert side["locked"] == 0
            creator = Address.from_hex(presets.addr("creator"))
            balance = result.sim.hosts[result.sim.token_id].chain.balance(creator)
            locked_at_request = presets.ATTACH - presets.FEE
            refund = locked_at_request - presets.FEE
            assert balance == 20_000 - presets.ATTACH + refund, f"seed {seed}"
            assert result.failures == [], f"seed {seed}"
        _ok(5, "no sub-quorum registration; blocked quorums revert with "
               "locked-minus-fee refunds (50 seeds)")


# -- criterion 6 -------------------------------------------------------------


class TestCriterion6ReorgImmunity:
    def test_fifty_shallow_reorgs_are_invisible(self):
        for seed in range(50):
            rng = random.Random(f"acceptance6:{seed}")
            schedule = []
            for _ in range(rng.randint(1, 2)):
                chain = rng.choice(["token-chain", "side-1"])
                omega = presets.OMEGA_TOKEN if chain == "token-chain" else presets.OMEGA_SIDE
                schedule.append({
                    "tick": rng.randint(80, 240),
                    "chain": presets.addr(chain),
                    "depth": rng.randint(0, omega),
                })
            data = presets.registered_with_transfers(
                seed=seed, deposits=[300, 150], withdrawals=[120],
                fault_plan={"reorg_schedule": schedule}, max_ticks=1_200)
            result = run_and_record(f"reorg_{seed}", data)
            assert result.quiescent, f"seed {seed}"
            assert result.failures == [], f"seed {seed}: {result.failures[:2]}"
            side = side_summary(result)
            assert side["locked"] == side["circulating"] == presets.BAL_RESV + 330
        _ok(6, "reorgs within the window never lost or doubled a transfer "
               "(50 seeds)")

    def test_fifty_double_window_reorgs_are_detected(self):
        for seed in range(50):
            data = presets.deep_reorg_negative_control(seed=seed)
            data["fault_plan"]["reorg_schedule"][0]["tick"] = 86 + seed % 4
            result = run_and_record(f"deep_reorg_{seed}", data)
            names = {f.name for f in result.failures}
            assert "peg_conservation" in names, f"seed {seed}"
            assert "relay_matches_canon" in names, f"seed {seed}"
        _ok(6, "depth-2w reorgs always flagged as violations (50 seeds)")


# -- criterion 7 -------------------------------------------------------------


class TestCriterion7ResendConvergence:
    def test_twentyfive_lossy_seeds(self):
        total_resends = 0
        for seed in range(25):
            data = presets.lossy_network(seed=seed, drop_rate=0.3, transfers=2)
            result = run_and_record(f"lossy_{seed}", data)
            assert result.quiescent, f"seed {seed} did not converge"
            assert result.failures == [], f"seed {seed}"
            side = side_summary(result)
            expected = presets.BAL_RESV + 200 + 210 - 90
            assert side["locked"] == side["circulating"] == expected, f"seed {seed}"
            total_resends += result.summary["resends"]
        assert total_resends >= 1, "drop rate 0.3 never forced a resend"
        _ok(7, f"all transfers completed under 30% loss; {total_resends} resends "
               "exercised the window gate (25 seeds)")


# -- criterion 8 -------------------------------------------------------------


class TestCriterion8RoundDiscipline:
    def test_adversarial_vote_schedules(self):
        from test_contracts import (
            BAL_BANK, RELAY_ADDR, WIT_S, entry, make_side, relay_tx,
        )

        rng = random.Random("acceptance8")
        for trial in range(60):
            chain, _, relay, bank = make_side()
            to = Address.from_label(f"user-{trial}")
            value = rng.randint(1, 500)
            entries = [entry(to, value, height=4 + trial)]
            votes = []
            honest_current = set()
            for _ in range(rng.randint(3, 20)):
                i = rng.randint(0, 3)
                round_no = 0 if rng.random() < 0.6 else rng.randint(1, 4)
                duplicate = rng.random() < 0.4
                votes.append(relay_tx(WIT_S[i], RELAY_ADDR, INBOUND, entries,
                                      round_no=round_no))
                if duplicate:
                    votes.append(relay_tx(WIT_S[i], RELAY_ADDR, INBOUND, entries,
                                          round_no=round_no))
                if round_no == 0:
                    honest_current.add(i)
            chain.apply_block(votes)
            should_fire = len(honest_current) >= 3
            fired = chain.balance(to) == value
            assert fired == should_fire, (
                f"trial {trial}: fired={fired} expected={should_fire}"
            )
            assert chain.balance(to) in (0, value)  # never double-paid
            assert bank.balance == BAL_BANK - (value if fired else 0)
        _ok(8, "stale-round and duplicate votes never altered a tally outcome")


# -- criterion 9 -------------------------------------------------------------


class TestCriterion9DeterminismReplay:
    def _ensure_full_registry(self):
        """Materialize every scenario the earlier criteria run, so this
        criterion covers them even when invoked in isolation."""
        run_and_record("happy_gasless", presets.happy_path())
        for seed in range(100):
            run_and_record(f"peg_{seed}", random_transfer_scenario(seed))
        for seed in range(25):
            run_and_record(f"byz_approve_{seed}", presets.byzantine_registration(
                seed=seed, n_byzantine=2, behavior="byzantine_approve_all",
                corrupt_request=True))
            run_and_record(f"byz_reject_{seed}", presets.byzantine_registration(
                seed=seed, n_byzantine=2, behavior="byzantine_reject_all"))
            run_and_record(f"lossy_{seed}", presets.lossy_network(
                seed=seed, drop_rate=0.3, transfers=2))

    def test_every_scenario_replays_byte_identically(self, tmp_path):
        self._ensure_full_registry()
        assert len(RUNS) >= 150
        checked = 0
        for name, (data, override, result) in sorted(RUNS.items()):
            trace_path = tmp_path / f"{name}.trace"
            result.write_trace(str(trace_path))
            code = cli.main(["replay", str(trace_path)])
            assert code == 0, f"{name}: replay diverged"
            checked += 1
        _ok(9, f"{checked} recorded scenarios replayed byte-identically "
               "(cmd_replay exit 0)")
