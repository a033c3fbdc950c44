"""Golden fixtures: every shipped scenario validates, exits with the code
README documents, and writes a trace whose sha256 is pinned below.

A run is a pure function of (scenario, seed), so a digest change means the
program's behaviour changed.  Regenerate ``TRACE_SHA256`` only for a change
that is meant to alter traces, and say so in CHANGES.md.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from enum import Enum
from pathlib import Path

import pytest

from bridgesim import cli, trace
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
    ("byzantine_reject_majority", None, 1): "fe5d0c0631370176518d111db77e2b64aba21c80c34e8e56cd1269ff12efa4b7",
    ("byzantine_reject_majority", None, 2): "0f3310343c3d450d2b8128ce24ba20e4fe6d465169a512eb90dfb81cbe95fdbe",
    ("byzantine_reject_majority", None, 3): "b3abd0be10e7b6379ca7f8ec3d82eb584a139ae04f945dcdd9e3c179c4508060",
    ("byzantine_reject_majority", None, 4): "6ca0688a95ba891f59326d93987116a76ac9c989275b159dfa8ceea9f5c7c744",
    ("deep_reorg_negative_control", None, 1): "af3df224931d45548ea112d1480d517cc8fb4887a48b1fed5e4b8088a000f44f",
    ("deep_reorg_negative_control", None, 2): "7f8da0ff6c3ced041c26311489758b8fe5edffc5d3d70276d64108c0dd567637",
    ("deep_reorg_negative_control", None, 3): "965c2d80f23d894ef7561f9bd8dca527ef0c4abc9ba9a1e836cca35eb3a85576",
    ("deep_reorg_negative_control", None, 4): "422d2bd7fa0be8cbe5c4c2bdbd4217194071b27c37d9e4051d29534e5d16d2a6",
    ("happy_path", None, 1): "966550e032d3255460f9539922621044c8083148d59cd441aa7b15fa62213e93",
    ("happy_path", None, 2): "52986b3070f3d30c5e704dbffc5cfccb1c1d3ad8b4e4b56ca757237095fea265",
    ("happy_path", None, 3): "12219dbdee27efd8379abb53cecf698056ac5d04be22752f7095cc880477a9de",
    ("happy_path", None, 4): "df4729d0e485109ac91649df50c4cb98003fe76b33a50144174257ff3782aa1d",
    ("happy_path_native_gas", None, 1): "233939349052d2aa3607fb2f35ecad1280c23ea187625c2bbaf939b211605de7",
    ("happy_path_native_gas", None, 2): "cbd237b17a8e01d3c78e67b839eada8ad58cec046d276a13b3a489dc0e845a1d",
    ("happy_path_native_gas", None, 3): "949491ef719c313243d84c2990f82f37c9e08a5a6ba3c6dc23613c62b8528d5a",
    ("happy_path_native_gas", None, 4): "16c47048a748b1db7884a03eb2acd7754f780cbcaa2c18bf6aa4e12d067c258b",
    ("lossy_network", None, 1): "538abf3ea5a5ac785f200dd99b67e6811d53facaf260cf2244fa724f7937aabd",
    ("lossy_network", None, 2): "e774847023c12745985f4e81489b27094e452ec10dff200d8195cae45cf45d7c",
    ("lossy_network", None, 3): "2cfa6e4a146ee97b4c928b39a74a26537fa492b6a28c595c651f66325689a0de",
    ("lossy_network", None, 4): "93de698ba5555daab45a33c0c697d796273a88d57495154f9064f002be81c177",
    ("misconfigured_quorum", None, 1): "91176055b23b69ff99c9b8458ef68b12ed2062f846e672f48a415ad6d1c64f5c",
    ("misconfigured_quorum", None, 2): "864d0e6c2b019a2eba5ffde92e49ba623eacd8c8dd9ada21e744e4aea47053b5",
    ("misconfigured_quorum", None, 3): "5b2da644d290a3581e51d0e40ba849338274d83a1c55d07f25910398c0b23c7d",
    ("misconfigured_quorum", None, 4): "3c770510d766b3a49e9d2dbf3ba26401897d893a246aa046b7df7cc0d040743e",
    ("misconfigured_quorum", 2, 1): "f576449f64bb01df644550b247381422560b0126cf9d8e6518319d00442f8d58",
    ("misconfigured_quorum", 2, 2): "43806e6ae9743079ec29bf4e3f2630bd3bb8911d9beb687d3900b5691b08d3d8",
    ("misconfigured_quorum", 2, 3): "73a6a068d91b086caef2fa3c6b66b79eecc5b3e4cdada245c12379fa403ea10f",
    ("misconfigured_quorum", 2, 4): "cf05a653a1fbaf4b9c6053a2f68773ac093a3cc9dee6263fdef3c89852a35cb7",
    ("mixed_variants", None, 1): "f2d58193848dab75ec2b05c4295a126e0498f2704e6997cea32094da9ea9f3eb",
    ("mixed_variants", None, 2): "6af9e1dd0fb9d9ed6194a1563f8cc94a29428a5383a3217aa9bf04181ab79ce9",
    ("mixed_variants", None, 3): "978fa78ecdeb37f1f0ff9f5b451ff5b130683bb752cfb1c43e780974739d7cc7",
    ("mixed_variants", None, 4): "d64c0d98e788abdae87a95ddfd88d7cff207421565c921c8e31828932eb1f510",
    ("reorg_within_window", None, 1): "ee0e5ef335edf6544e47f63fff7da4ad2b7fc20f7c3cfff15faa6ad76c1e31ce",
    ("reorg_within_window", None, 2): "6f82393bd5da103c4a59ee3c44f8dd71f65ba7f5b476df73c09b90b618b2b26b",
    ("reorg_within_window", None, 3): "caea36336f98fcbfd5c6318f412247df1b9f05514826b52f6e2ffc2bcf46fbbc",
    ("reorg_within_window", None, 4): "756d3c68fb14b18f3e621edad6e7b5ba17acda00846caa32a2504ee85ace364c",
    ("transfers_gasless", None, 1): "60d6ea7990be524071c3adc1818e015979b99ec93095145327811e011a7d602c",
    ("transfers_gasless", None, 2): "c37088d3e34929c06eed4149f1b969ca2fd16cf2a51512ee19d43e8dba25211f",
    ("transfers_gasless", None, 3): "5a569dea51b483c0ddaf568d3e4fb288d4e26d51c1d64b9949df73da8919c10b",
    ("transfers_gasless", None, 4): "18b2e44b1b1950456f4602ccbe7bc675c232569e7f2333ea6bbe89a1bd5fc35b",
}

RUNS = sorted(TRACE_SHA256, key=str)


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
            assert trace.dumps(block.events) == trace.dumps(traced[key]), key
            checked += len(block.events)
    assert checked


def _mutable_parts(obj, found: dict[int, object]) -> None:
    """Every mutable object reachable from ``obj``, by id."""
    if isinstance(obj, (str, bytes, int, float, type(None), Enum)) or id(obj) in found:
        return
    frozen = isinstance(obj, (tuple, frozenset)) or (
        dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen)
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
