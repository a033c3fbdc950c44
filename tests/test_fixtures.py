"""Golden fixtures: every shipped scenario validates, exits with the code
README documents, and writes a trace whose sha256 is pinned below.

A run is a pure function of (scenario, seed), so a digest change means the
program's behaviour changed.  Regenerate ``TRACE_SHA256`` only for a change
that is meant to alter traces, and say so in CHANGES.md.
"""

import hashlib
import json
import os
import subprocess
import sys
from enum import Enum
from pathlib import Path

import pytest

import plain_json
from bridgesim import cli, presets
from bridgesim.record import frozen_guard
from bridgesim.scenario import load_file, parse_scenario
from bridgesim.simnet import Simulation, run_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
SEEDS = (1, 2, 3, 4)

# (fixture, --override-threshold) -> exit code README documents.
EXIT_CODES = {
    ("byzantine_reject_majority", None): 0,
    ("deep_reorg_negative_control", None): 2,
    ("happy_path", None): 0,
    ("happy_path_native_gas", None): 0,
    ("lossy_network", None): 0,
    ("misconfigured_quorum", None): 0,
    ("misconfigured_quorum", 2): 2,
    ("mixed_variants", None): 0,
    ("reorg_within_window", None): 0,
    ("transfers_gasless", None): 0,
}

# (fixture, --override-threshold, seed) -> sha256 of the written trace file.
TRACE_SHA256 = {
    ("byzantine_reject_majority", None, 1): "6169200a0ffecc97a730d2e6fe90f6ec19dadf419a8868adf8eb148b804d6027",
    ("byzantine_reject_majority", None, 2): "714348ec2f81a0931aacdfebeb0703eef186df849adb2d4fe0fec267df2b2f8e",
    ("byzantine_reject_majority", None, 3): "5818c14e163440720c56e7c78763512d8a4c54a82230a94cedc218071e22e714",
    ("byzantine_reject_majority", None, 4): "b20e85152a5f77534414555a06d26851e5e3b1236801fa6fb2c74f36095c4f0e",
    ("deep_reorg_negative_control", None, 1): "f0617d1f847590994298f3f199ed03d3f4e3edc98fd9acab04727b84ea1281e9",
    ("deep_reorg_negative_control", None, 2): "b85443cd5d56f72ba5cee81709670a33997bcda8fa9c7fa27207508b9df8f70f",
    ("deep_reorg_negative_control", None, 3): "61b9f7ed632b979a2b5f3ecee6a4364aa44e7fd2f3692fc88901d48c59c4e77f",
    ("deep_reorg_negative_control", None, 4): "c0db947cf39d51431b3c3daf3798e53e13eeaa65e60cb9af8c9a2128f1c34c8c",
    ("happy_path", None, 1): "6556aaa0d597599b0c4748cefaa8a91353eec43f05c7dcfb2030b969223513d4",
    ("happy_path", None, 2): "668ac1a3967d55a39a0dcd1b57b24fec0359639b37a56d4a2d4a5a43ab10eada",
    ("happy_path", None, 3): "75bc0569c782959d248d8ee15ff866d58a0c1ca0cf0670c7ed5a8afb0d1520f0",
    ("happy_path", None, 4): "f0df8e54d6fd2a6425573c0a4ddfe4aa23874812746f7889240b61baa55521c0",
    ("happy_path_native_gas", None, 1): "42a71ed0cde2679c45b228d6943f96f5f885387f5c618dc546cda23f32731c02",
    ("happy_path_native_gas", None, 2): "88048fc91a6794fa3367f3a00b4c9505d4f5aae8327a55a97f59e861298eba34",
    ("happy_path_native_gas", None, 3): "d0334cbc5fbf2a689adcac59b46364e0218398dd0b4d8c530a703b358969f4a6",
    ("happy_path_native_gas", None, 4): "354fff344aef11704d25029bce97369d738f31f6ba248f634a6ed0d0cd13184e",
    ("lossy_network", None, 1): "81740d0de745e1db34826f364aedf6135d432b5e867e85e3bac97be608b83a50",
    ("lossy_network", None, 2): "40f72e29e778013e4d49ae877e0efa890e3e7eb43122864569cd4454504513cc",
    ("lossy_network", None, 3): "d644e28ad6dfd0aeba5fbe1bf4bd832fd3cdc0c49daf71d3ba43b8b6da1a6bd3",
    ("lossy_network", None, 4): "2a3421622fe7f1cc30341bc712cc082ee0f5c4e74a583488975559061caf127e",
    ("misconfigured_quorum", None, 1): "a5dca3f47a5883c09933233a1897cdb429c48cd91269169dc512d22113b40614",
    ("misconfigured_quorum", None, 2): "4fdf66017552a8f485cbf680b82d2bd4220a0c4ff7c5f6146d848eae939d96ef",
    ("misconfigured_quorum", None, 3): "0e137c6732a76831e02b96c494e648f4d792b3d34ff28adb628f1c7a7d01c62a",
    ("misconfigured_quorum", None, 4): "9b63378d19297198a4253dc683bca70e9d0c32e1b63cb4787197f29487c9e549",
    ("misconfigured_quorum", 2, 1): "bc501f5cd97592f424e64eccb226e3830d51617e3d9c5654a91db810937175a2",
    ("misconfigured_quorum", 2, 2): "75327c1ec6bf9fa3c6afde43275cf1b0f875543edf75651ac0e19dc568447bcb",
    ("misconfigured_quorum", 2, 3): "937d11e0ef4d0666390e637928b03183dcac987dddb45fe9670988cb4f88329d",
    ("misconfigured_quorum", 2, 4): "e37cac576a32f3187bc3db730be3d35fd02f85c1234c22e4db1ebb29dd169d42",
    ("mixed_variants", None, 1): "ac89867d4415aaa4a898e196c86f4d73b1e649b3e43ee896f2edbd2cbb420245",
    ("mixed_variants", None, 2): "73a8e2a71104248459b60814aa78e19e33373fe545c1c88b1d86bee9f48ffa5d",
    ("mixed_variants", None, 3): "e012903f94198a9bf48700aed273e5078a2704e0b82a24fc54b638715c941ecc",
    ("mixed_variants", None, 4): "1f07a798aa1f005230500ea72d3cf10be9600569c718a8f075c7c33780848187",
    ("reorg_within_window", None, 1): "9b1b33b13fe86bd002eea9ef4842ca7b8714975fb5e4dd6410733ac47c00c483",
    ("reorg_within_window", None, 2): "ce1ae2da429de4bdeb8135e81ff2da6a8b65f2b51473a5f5fb67746ed8cad175",
    ("reorg_within_window", None, 3): "6922be0f1e432a280968feea2018b4a6587b898a5fc10832093df73fee0d6dac",
    ("reorg_within_window", None, 4): "193721d963c8d583c77125ee2f72519722a9ed58179dbef000cad4df5784a63b",
    ("transfers_gasless", None, 1): "842b60fba2963f22e948ae299866813a6fa117f8aa453a1536cd0119a6db82a3",
    ("transfers_gasless", None, 2): "b56e83fa1c5c7c8236e57bcd74b63ef85b9cb3c8fa68a2586c252eb7407acb20",
    ("transfers_gasless", None, 3): "3fcc0a289ec5ecb05259b61b1e2ecc9bef0c6f7fdcc0c7ce434f74ae9f3428f7",
    ("transfers_gasless", None, 4): "c4ddb5a1e4aea41579b2d71be6d8178c966ce1deb69413101a34421690fb8f08",
}

RUNS = sorted(TRACE_SHA256, key=str)

# Preset-built runs that reach witness paths no fixture does: an equivocating
# witness, and a reject-all witness with relay batches pending, each under
# loss, duplicates and delays.  name -> (witness behaviors, drop start tick,
# resend records, sha256 of the written trace).
BYZANTINE_RUNS = {
    "equivocating": ({0: "equivocating"}, 0, 116,
                     "86420c494af511aa2d95a22f1b0a2b8f077e817636a64366de3717334ba06f38"),
    "reject_all": ({2: "byzantine_reject_all"}, 80, 84,
                   "b2962aa63ed96ec977f059f908b09711a08d4d1bc1cfacbd8e7b88a64972c698"),
}


def cli_args(tmp_path, name, override, seed):
    """``bridgesim run`` arguments for one pinned run, and its trace path."""
    trace_path = tmp_path / f"{name}-{override}-{seed}.trace"
    argv = ["run", str(SCENARIOS / f"{name}.json"), "--seed", str(seed),
            "--trace-out", str(trace_path)]
    if override is not None:
        argv += ["--override-threshold", str(override)]
    return argv, trace_path


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("path", sorted(SCENARIOS.glob("*.json")), ids=lambda p: p.stem)
def test_every_fixture_validates(path, capsys):
    assert cli.main(["validate", str(path)]) == 0
    capsys.readouterr()


def test_every_runnable_fixture_is_pinned():
    runnable = {p.stem for p in SCENARIOS.glob("*.json")} - {"genesis_gasless"}
    assert {name for name, _ in EXIT_CODES} == runnable
    assert set(TRACE_SHA256) == {(name, override, seed)
                                 for name, override in EXIT_CODES for seed in SEEDS}


@pytest.mark.parametrize("name,override,seed", RUNS)
def test_exit_code_and_trace_digest(tmp_path, capsys, name, override, seed):
    argv, trace_path = cli_args(tmp_path, name, override, seed)
    code = cli.main(argv)
    capsys.readouterr()
    assert code == EXIT_CODES[(name, override)]
    assert sha256_of(trace_path) == TRACE_SHA256[(name, override, seed)]


@pytest.mark.parametrize("name", sorted(BYZANTINE_RUNS))
def test_byzantine_witness_run_digest(name):
    behaviors, drop_start, resends, pin = BYZANTINE_RUNS[name]
    data = presets.registered_with_transfers(
        seed=5, deposits=[250, 120, 90], withdrawals=[60, 30], max_ticks=3000,
        fault_plan={"drop_rate": 0.4, "dup_rate": 0.2, "max_delay": 3,
                    "max_consecutive_drops": 3, "drop_start_tick": drop_start})
    data["witnesses"] = presets._witnesses("side-1", 4, behaviors)
    result = run_scenario(parse_scenario(data))
    [side] = result.summary["side_chains"].values()
    assert result.ok and result.quiescent
    assert side["registered"] and side["locked"] == side["circulating"]
    assert result.summary["resends"] == resends
    text = "".join(line + "\n" for line in result.trace_lines)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pin


# Runs each argument list it reads from stdin through ``bridgesim run``, then
# prints the exit codes as the last line.
RUN_ALL = """
import json, sys
from bridgesim import cli
codes = [cli.main(argv) for argv in json.load(sys.stdin)]
print(json.dumps(codes))
"""


def test_digests_hold_in_a_process_with_another_hash_seed(tmp_path):
    # One process, under a hash seed fixed apart from this one's, runs every
    # pinned fixture at seed 1 and must write the pinned traces.
    pairs = sorted(EXIT_CODES, key=str)
    runs = [cli_args(tmp_path, name, override, 1) for name, override in pairs]
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_ALL], input=json.dumps([argv for argv, _ in runs]),
        env=env, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [EXIT_CODES[pair] for pair in pairs]
    for (name, override), (_, trace_path) in zip(pairs, runs):
        assert sha256_of(trace_path) == TRACE_SHA256[(name, override, 1)], (name, override)


@pytest.mark.parametrize("name,override", sorted(EXIT_CODES, key=str))
def test_events_are_not_changed_after_their_block_is_traced(name, override):
    # Event payloads hold the contract's own typed values, so a contract that
    # changed a value after emitting it would rewrite history.  Each final
    # canonical block's events must still encode as its last block record
    # did, except at heights a reorg replaced without a block record.
    data = dict(load_file(str(SCENARIOS / f"{name}.json")), seed=1)
    result = run_scenario(parse_scenario(data), threshold_override=override)
    traced, replaced = {}, set()
    for line in result.trace_lines:
        record = json.loads(line)
        payload = record["payload"]
        if record["kind"] == "block":
            traced[(record["chain"], payload["height"])] = payload["events"]
        elif record["kind"] == "reorg" and payload["depth"]:
            fork = payload["fork_height"]
            replaced.update((record["chain"], height)
                            for height in range(fork + 1, fork + payload["depth"] + 1))
    checked = 0
    for chain_id, host in result.sim.hosts.items():
        for block in host.chain.blocks[1:]:
            key = (str(chain_id), block.height)
            if key in replaced:
                continue
            if key not in traced:
                # A native-gas chain's pre-built history, applied before the
                # run starts.
                assert not block.events
                continue
            assert plain_json.dumps(block.events) == plain_json.dumps(traced[key]), key
            checked += len(block.events)
    assert checked


def _mutable_parts(obj, found: dict[int, object]) -> None:
    """Every mutable object reachable from ``obj``, by id."""
    if isinstance(obj, (str, bytes, int, float, type(None), Enum)) or id(obj) in found:
        return
    frozen = isinstance(obj, (tuple, frozenset)) or type(obj).__setattr__ is frozen_guard
    if not frozen:
        found[id(obj)] = obj
    if isinstance(obj, dict):
        parts = [*obj.keys(), *obj.values()]
    elif isinstance(obj, (tuple, frozenset, list, set)):
        parts = list(obj)
    else:
        parts = list(vars(obj).values())
    for part in parts:
        _mutable_parts(part, found)


@pytest.mark.parametrize("name", sorted({name for name, _ in EXIT_CODES}))
def test_no_contracts_share_mutable_state_at_genesis(name):
    # A chain journals each contract's pre-image on its own, which is sound
    # only while no two contracts reach the same mutable object.
    sim = Simulation(parse_scenario(load_file(str(SCENARIOS / f"{name}.json"))))
    owner: dict[int, str] = {}
    for host in sim.hosts.values():
        for addr, contract in host.chain.contracts.items():
            found: dict[int, object] = {}
            _mutable_parts(contract, found)
            for key, part in found.items():
                assert owner.setdefault(key, str(addr)) == str(addr), \
                    f"{type(part).__name__} shared by {owner[key]} and {addr}"
