"""Ready-made scenario builders.

These produce plain scenario dicts (the on-disk JSON shape) so the same
topology can be written to a fixture file, validated, or run directly.  All
addresses are derived deterministically from human-readable labels; the
``labels`` section of the emitted scenario records the mapping for readers.
"""

from __future__ import annotations

import random
from typing import Any

from .chain import Address
from .genesis import VARIANT_GASLESS, VARIANT_NATIVE_GAS
from .scenario import parse_scenario

TOTAL_SUPPLY = 1_000_000
ATTACH = 1_000
FEE = 10
ENTRANCE_MIN = 100
BAL_RESV = ATTACH - FEE  # the locked amount equals the vault payout

TOKEN_INTERVAL = 5
SIDE_INTERVAL = 2
OMEGA_TOKEN = 2
OMEGA_SIDE = 1
TIMEOUT_T = 50
SLEEP_T = 10


def addr(label: str) -> str:
    return str(Address.from_label(label))


def _witnesses(chain_label: str, n: int, behaviors: dict[int, str] | None = None) -> list[dict]:
    out = []
    for j in range(n):
        entry = {
            "name": f"{chain_label}-w{j}",
            "chain_id": addr(chain_label),
            "token_address": addr(f"{chain_label}-w{j}-token"),
            "side_address": addr(f"{chain_label}-w{j}-side"),
        }
        if behaviors and j in behaviors:
            entry["behavior"] = behaviors[j]
        out.append(entry)
    return out


def _side_chain(
    chain_label: str,
    variant: str,
    n_witnesses: int,
    threshold: int,
    total_supply: int = TOTAL_SUPPLY,
    bal_resv: int = BAL_RESV,
    omega: int = OMEGA_SIDE,
    initial_height: int = 0,
) -> dict:
    wit_addrs = [addr(f"{chain_label}-w{j}-side") for j in range(n_witnesses)]
    if variant == VARIANT_GASLESS:
        genesis = {
            "Chain_ID": addr(chain_label),
            "SC_Register": addr(f"{chain_label}-vault"),
            "Bal_Resv": bal_resv,
            "SC_Inter": addr(f"{chain_label}-relay"),
            "SC_Bank": addr(f"{chain_label}-bank"),
            "Bal_Bank": total_supply - bal_resv,
            "Wit_Addr_List": wit_addrs,
        }
        owners = {"owners": {
            "vault": [addr(f"{chain_label}-owner-1"), addr(f"{chain_label}-owner-2")],
            "required": 2,
        }}
    else:
        genesis = {
            "Chain_ID": addr(chain_label),
            "SC_Register": addr(f"{chain_label}-gateway"),
            "SC_Trading": addr(f"{chain_label}-trading"),
            "Wit_Addr_List": wit_addrs,
        }
        owners = {}  # a native-gas chain has no vault, so no owners
    return {
        "variant": variant,
        "block_interval": SIDE_INTERVAL,
        "omega": omega,
        "genesis": genesis,
        "bridge_head": {
            "address": addr(f"{chain_label}-bridge-head"),
            "threshold": threshold,
            "compensation_fee": FEE,
            "entrance_fee_minimum": ENTRANCE_MIN,
        },
        **owners,
        "initial_height": initial_height,
    }


def register_action(chain_label: str, tick: int = 2, attach: int = ATTACH,
                    creator: str = "creator", **overrides: Any) -> dict:
    action = {
        "tick": tick,
        "action": "register",
        "chain_id": addr(chain_label),
        "creator": addr(creator),
        "side_creator": addr(f"{creator}-side"),
        "attach": attach,
    }
    action.update(overrides)
    return action


def transfer_action(kind: str, chain_label: str, tick: int, sender: str, recipient: str,
                    value: int) -> dict:
    """A ``deposit``, ``withdraw`` or ``trade`` action between labelled accounts."""
    return {"tick": tick, "action": kind, "chain_id": addr(chain_label),
            "from": addr(sender), "to": addr(recipient), "value": value}


def scenario(
    *,
    seed: int = 1,
    side_specs: list[dict] | None = None,
    witnesses: list[dict] | None = None,
    workload: list[dict] | None = None,
    fault_plan: dict | None = None,
    max_ticks: int = 400,
    mode: str = "conservation",
    timeout: int = TIMEOUT_T,
    sleep: int = SLEEP_T,
    accounts: dict[str, int] | None = None,
) -> dict:
    """Assemble a full scenario dict around the standard topology."""
    side_specs = side_specs if side_specs is not None else [
        _side_chain("side-1", VARIANT_GASLESS, 4, 3)
    ]
    witnesses = witnesses if witnesses is not None else _witnesses("side-1", 4)
    accounts = accounts or {}
    base_accounts = {
        addr("creator"): 20_000,
        addr("alice"): 50_000,
        addr("bob"): 30_000,
    }
    base_accounts.update({addr(k) if not k.startswith("0x") else k: v
                          for k, v in accounts.items()})
    treasury = TOTAL_SUPPLY - sum(base_accounts.values())
    base_accounts[addr("treasury")] = treasury
    data = {
        "token_chain": {
            "chain_id": addr("token-chain"),
            "total_supply": TOTAL_SUPPLY,
            "block_interval": TOKEN_INTERVAL,
            "omega": OMEGA_TOKEN,
        },
        "accounts": base_accounts,
        "registry": {
            "address": addr("registry"),
            "owners": [addr("registry-owner-1"), addr("registry-owner-2")],
            "required": 2,
        },
        "side_chains": side_specs,
        "witnesses": witnesses,
        "timeouts": {"t": timeout, "T": sleep},
        "workload": workload if workload is not None else [register_action("side-1")],
        "fault_plan": fault_plan or {},
        "seed": seed,
        "max_ticks": max_ticks,
        "mode": mode,
        "labels": {
            addr(label): label
            for label in ("token-chain", "registry", "creator", "creator-side",
                          "alice", "bob", "treasury")
        },
    }
    return data


def happy_path(seed: int = 1, variant: str = VARIANT_GASLESS, n_witnesses: int = 4,
               threshold: int = 3, mode: str = "conservation",
               initial_height: int = 0) -> dict:
    return scenario(
        seed=seed,
        side_specs=[_side_chain("side-1", variant, n_witnesses, threshold,
                                initial_height=initial_height)],
        witnesses=_witnesses("side-1", n_witnesses),
        workload=[register_action("side-1")],
        mode=mode,
    )


def registered_with_transfers(
    seed: int = 1,
    variant: str = VARIANT_GASLESS,
    deposits: list[int] | None = None,
    withdrawals: list[int] | None = None,
    spacing: int = 60,
    first_tick: int = 70,
    mode: str = "conservation",
    fault_plan: dict | None = None,
    max_ticks: int = 900,
    sleep: int = SLEEP_T,
) -> dict:
    """Registration followed by alternating in/out transfers."""
    deposits = [250, 120] if deposits is None else deposits
    withdrawals = [180] if withdrawals is None else withdrawals
    workload = [register_action("side-1")]
    tick = first_tick
    for i, value in enumerate(deposits):
        workload.append(transfer_action("deposit", "side-1", tick, "alice", "creator-side", value))
        tick += spacing
        if i < len(withdrawals):
            workload.append(transfer_action("withdraw", "side-1", tick, "creator-side", "alice",
                                            withdrawals[i]))
            tick += spacing
    return scenario(
        seed=seed,
        side_specs=[_side_chain("side-1", variant, 4, 3)],
        witnesses=_witnesses("side-1", 4),
        workload=workload,
        mode=mode,
        fault_plan=fault_plan,
        max_ticks=max_ticks,
        sleep=sleep,
    )


def mixed_variants(seed: int = 1, rng: random.Random | None = None,
                   transfers_per_chain: int = 2, max_ticks: int = 1600) -> dict:
    """One gasless and one native-gas side chain with a seeded random workload."""
    rng = rng or random.Random(f"workload:{seed}")
    side_specs = [
        _side_chain("side-1", VARIANT_GASLESS, 4, 3),
        _side_chain("side-2", VARIANT_NATIVE_GAS, 4, 3),
    ]
    witnesses = _witnesses("side-1", 4) + _witnesses("side-2", 4)
    workload = [
        register_action("side-1", tick=2),
        register_action("side-2", tick=4, creator="alice"),
    ]
    tick = 80
    for label, user, side_user in (("side-1", "bob", "creator-side"),
                                   ("side-2", "bob", "alice-side")):
        available = BAL_RESV
        for _ in range(transfers_per_chain):
            value = rng.randint(20, 400)
            workload.append(transfer_action("deposit", label, tick, user, side_user, value))
            available += value
            tick += rng.choice((55, 65, 75))
            out_value = rng.randint(10, max(11, available - 50))
            workload.append(transfer_action("withdraw", label, tick, side_user, user, out_value))
            available -= out_value
            tick += rng.choice((55, 65, 75))
        if label == "side-2":
            workload.append(transfer_action("trade", label, tick, side_user, "bob-side",
                                            rng.randint(1, max(2, available // 4))))
            tick += 30
    return scenario(
        seed=seed,
        side_specs=side_specs,
        witnesses=witnesses,
        workload=sorted(workload, key=lambda a: a["tick"]),
        max_ticks=max_ticks,
    )


def byzantine_registration(
    seed: int = 1,
    n_witnesses: int = 4,
    threshold: int = 3,
    behavior: str = "byzantine_approve_all",
    n_byzantine: int = 2,
    corrupt_request: bool = False,
) -> dict:
    """Registration under Byzantine witnesses.

    With ``corrupt_request`` the creator lies about the reserved balance, so
    honest witnesses reject; approval then hinges on the Byzantine votes.
    """
    behaviors = {j: behavior for j in range(n_byzantine)}
    action = register_action("side-1")
    if corrupt_request:
        action["balance"] = TOTAL_SUPPLY + 1
    return scenario(
        seed=seed,
        side_specs=[_side_chain("side-1", VARIANT_GASLESS, n_witnesses, threshold)],
        witnesses=_witnesses("side-1", n_witnesses, behaviors),
        workload=[action],
        max_ticks=700,
    )


def reorg_scenario(
    seed: int = 1,
    depth: int = OMEGA_TOKEN,
    reorg_tick: int = 95,
    exclude: list[str] | None = None,
    extra_reorgs: list[dict] | None = None,
    max_ticks: int = 900,
    sleep: int = SLEEP_T,
) -> dict:
    """A deposit in flight while the token chain reorganizes."""
    plan = {
        "reorg_schedule": [
            {"tick": reorg_tick, "chain": addr("token-chain"), "depth": depth,
             "exclude": exclude or []},
        ] + (extra_reorgs or []),
    }
    return registered_with_transfers(
        seed=seed,
        deposits=[300, 150],
        withdrawals=[120],
        fault_plan=plan,
        max_ticks=max_ticks,
        sleep=sleep,
    )


def deposit_tx_digest(from_label: str, to_label: str, value: int,
                      chain_label: str = "side-1") -> str:
    """Digest of the transaction a deposit action submits, as scenario parsing
    builds it; usable in a reorg exclusion list."""
    data = scenario(
        side_specs=[_side_chain(chain_label, VARIANT_GASLESS, 4, 3)],
        witnesses=_witnesses(chain_label, 4),
        workload=[transfer_action("deposit", chain_label, 1, from_label, to_label, value)],
        accounts={from_label: value},
    )
    return "0x" + parse_scenario(data).workload[0].tx.digest().hex()


def deep_reorg_negative_control(seed: int = 1) -> dict:
    """Reorg twice the unconfirmation window deep, erasing a deposit the
    witnesses have already relayed: the detectable failure case."""
    digest = deposit_tx_digest("alice", "creator-side", 300)
    # With a 5-tick poll the deposit (mined at height 14, tick 70) is relayed
    # at tick 85 when the head is 17; a depth-4 = 2*omega reorg at tick 87
    # then reaches back through the already-relayed lock.
    return reorg_scenario(
        seed=seed,
        depth=2 * OMEGA_TOKEN,
        reorg_tick=87,
        exclude=[digest],
        sleep=5,
    )


def misconfigured_quorum(seed: int = 1) -> dict:
    """Byzantine minority plus an under-funded, falsely-claimed registration.

    With the threshold forced down to exactly N/2 the two approve-all votes
    carry the registration and the peg breaks; at the safe threshold the same
    scenario reverts harmlessly.
    """
    behaviors = {0: "byzantine_approve_all", 1: "byzantine_approve_all"}
    action = register_action("side-1", attach=900)
    action["balance"] = TOTAL_SUPPLY + 7
    return scenario(
        seed=seed,
        side_specs=[_side_chain("side-1", VARIANT_GASLESS, 4, 3)],
        witnesses=_witnesses("side-1", 4, behaviors),
        workload=[action],
        max_ticks=700,
    )


def lossy_network(seed: int = 1, drop_rate: float = 0.3, transfers: int = 2) -> dict:
    """Honest quorum under heavy message loss; drops start after registration."""
    deposits = [200 + 10 * i for i in range(transfers)]
    withdrawals = [90] * max(0, transfers - 1)
    return registered_with_transfers(
        seed=seed,
        deposits=deposits,
        withdrawals=withdrawals,
        spacing=110,
        first_tick=90,
        fault_plan={
            "drop_rate": drop_rate,
            "drop_start_tick": 80,
            "max_consecutive_drops": 3,
        },
        max_ticks=2_500,
    )
