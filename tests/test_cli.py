"""Command-line contract: validate/run/replay and the exit-code protocol."""

import hashlib
import json
from pathlib import Path

import pytest

from bridgesim import cli, presets
from bridgesim.contracts import BridgeHead
from bridgesim.trace import first_divergence

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# sha256 of the summary JSON line `run` prints for scenarios/happy_path.json.
HAPPY_PATH_SUMMARY_SHA256 = "05be97022d3d74b5a734c073499c2094e40ce0a5df9253cffd7676b7f51d0f39"


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestValidate:
    def test_reference_scenario_passes(self, tmp_path, capsys):
        path = write(tmp_path, "ok.json", presets.happy_path())
        assert cli.main(["validate", path]) == 0
        assert "ok" in capsys.readouterr().out

    def test_broken_genesis_names_the_field(self, tmp_path, capsys):
        data = presets.happy_path()
        del data["side_chains"][0]["genesis"]["Wit_Addr_List"]
        path = write(tmp_path, "missing.json", data)
        assert cli.main(["validate", path]) == 1
        assert "Wit_Addr_List" in capsys.readouterr().err

    def test_reserve_sum_off_by_one_names_the_rule(self, tmp_path, capsys):
        data = presets.happy_path()
        data["side_chains"][0]["genesis"]["Bal_Bank"] += 1
        path = write(tmp_path, "sum.json", data)
        assert cli.main(["validate", path]) == 1
        err = capsys.readouterr().err
        assert "Bal_Resv + Bal_Bank" in err

    def test_bare_genesis_file(self, tmp_path, capsys):
        genesis = presets.happy_path()["side_chains"][0]["genesis"]
        path = write(tmp_path, "genesis.json", genesis)
        assert cli.main(["validate", path]) == 0
        del genesis["SC_Inter"]
        path = write(tmp_path, "genesis-broken.json", genesis)
        assert cli.main(["validate", path]) == 1
        assert "SC_Inter" in capsys.readouterr().err

    def test_unreadable_file(self, tmp_path):
        assert cli.main(["validate", str(tmp_path / "absent.json")]) == 1

    def test_validate_never_writes_or_runs(self, tmp_path):
        path = write(tmp_path, "ok.json", presets.happy_path())
        before = sorted(p.name for p in tmp_path.iterdir())
        cli.main(["validate", path])
        assert sorted(p.name for p in tmp_path.iterdir()) == before


class TestRun:
    def test_happy_path_exits_zero_and_writes_artifacts(self, tmp_path, capsys):
        path = write(tmp_path, "ok.json", presets.happy_path())
        trace = tmp_path / "run.trace"
        assert cli.main(["run", path, "--trace-out", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "all invariants held" in out
        assert "== summary (json) ==" in out
        assert trace.exists() and trace.read_text().count("\n") > 5

    def test_invalid_input_exits_one(self, tmp_path):
        data = presets.happy_path()
        data["mode"] = "nonsense"
        path = write(tmp_path, "bad.json", data)
        assert cli.main(["run", path]) == 1

    def test_bad_genesis_hash_is_invalid_input(self, tmp_path, capsys):
        data = presets.happy_path()
        data["workload"][0]["genesis_hash"] = "0xzz"
        path = write(tmp_path, "badhash.json", data)
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err
        assert any(line.startswith("error: workload[0].genesis_hash: ")
                   for line in err.splitlines())
        assert "Traceback" not in err

    def test_reorg_deeper_than_the_chain_is_invalid_input(self, tmp_path, capsys):
        # Passes validation: the side chain is still dormant (height 0) at tick 3.
        data = presets.registered_with_transfers(
            deposits=[10], withdrawals=[5], spacing=20,
            fault_plan={"reorg_schedule": [
                {"tick": 3, "chain": presets.addr("side-1"), "depth": 2}]},
        )
        path = write(tmp_path, "deep.json", data)
        assert cli.main(["validate", path]) == 0
        capsys.readouterr()
        assert cli.main(["run", path]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: reorg at tick 3 on chain ")
        assert "depth 2 exceeds the chain's height 0" in err[0]

    def test_summary_json_is_byte_stable(self, capsys):
        assert cli.main(["run", str(SCENARIOS / "happy_path.json")]) == 0
        out = capsys.readouterr().out.splitlines()
        summary = out[out.index("== summary (json) ==") + 1]
        assert json.loads(summary)["quiescent"] is True
        assert hashlib.sha256(summary.encode()).hexdigest() == HAPPY_PATH_SUMMARY_SHA256

    def test_invariant_failure_exits_two(self, tmp_path):
        path = write(tmp_path, "deep.json", presets.deep_reorg_negative_control())
        assert cli.main(["run", path]) == 2

    def test_byzantine_revert_is_a_correct_outcome(self, tmp_path, capsys):
        data = presets.byzantine_registration(behavior="byzantine_reject_all",
                                              n_byzantine=2)
        path = write(tmp_path, "byz.json", data)
        assert cli.main(["run", path]) == 0
        out = capsys.readouterr().out
        assert "registered: False" in out

    def test_threshold_override_demonstrates_the_bound(self, tmp_path):
        path = write(tmp_path, "mis.json", presets.misconfigured_quorum())
        assert cli.main(["run", path]) == 0
        assert cli.main(["run", path, "--override-threshold", "2"]) == 2

    def test_threshold_override_zero_is_applied(self, tmp_path, capsys):
        """A zero override is an override: every quorum fires with no votes,
        so the run fails quorum safety, and its trace replays."""
        path = write(tmp_path, "ok.json", presets.happy_path())
        trace = tmp_path / "zero.trace"
        assert cli.main(["run", path, "--override-threshold", "0",
                         "--trace-out", str(trace)]) == 2
        assert "quorum_safety" in capsys.readouterr().out
        assert json.loads(trace.read_text().splitlines()[0])[
            "payload"]["threshold_override"] == 0
        assert cli.main(["replay", str(trace)]) == 0

    def test_negative_threshold_override_is_invalid_input(self, tmp_path, capsys):
        path = write(tmp_path, "ok.json", presets.happy_path())
        trace = tmp_path / "negative.trace"
        assert cli.main(["run", path, "--override-threshold", "-1",
                         "--trace-out", str(trace)]) == 1
        assert capsys.readouterr().err == "error: --override-threshold: must be >= 0\n"
        assert not trace.exists()

    @pytest.mark.parametrize("text", ["[1, 2]", '"abc"', "[]"])
    def test_input_that_is_not_an_object_is_invalid(self, tmp_path, capsys, text):
        path = tmp_path / "not-object.json"
        path.write_text(text)
        assert cli.main(["run", str(path), "--seed", "3", "--mode", "strict"]) == 1
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: <root>: expected an object"]

    def test_seed_flag_overrides_file(self, tmp_path, capsys):
        path = write(tmp_path, "ok.json", presets.lossy_network(seed=1))
        t1 = tmp_path / "a.trace"
        t2 = tmp_path / "b.trace"
        assert cli.main(["run", path, "--seed", "5", "--trace-out", str(t1)]) == 0
        assert cli.main(["run", path, "--seed", "6", "--trace-out", str(t2)]) == 0
        assert t1.read_text() != t2.read_text()


class TestReplay:
    def record(self, tmp_path, data, name="fixture"):
        scenario_path = write(tmp_path, f"{name}.json", data)
        trace_path = tmp_path / f"{name}.trace"
        code = cli.main(["run", scenario_path, "--trace-out", str(trace_path)])
        assert code in (0, 2)
        return trace_path

    def test_fresh_trace_replays_identically(self, tmp_path):
        trace = self.record(tmp_path, presets.happy_path())
        assert cli.main(["replay", str(trace)]) == 0

    def test_flipped_byte_diverges(self, tmp_path, capsys):
        trace = self.record(tmp_path, presets.happy_path())
        text = trace.read_text()
        assert '"amount":990' in text
        trace.write_text(text.replace('"amount":990', '"amount":991', 1))
        assert cli.main(["replay", str(trace)]) == 3
        err = capsys.readouterr().err
        assert "DIVERGED" in err
        assert "  record: block  field: payload.events.0.payload.amount\n" in err

    def test_mode_difference_fixture_diverges(self, tmp_path):
        # Record under the conservation gate, then claim the strict gate in
        # the header: semantics differ on the second drawdown, so replay must
        # surface the divergence.
        data = presets.registered_with_transfers(deposits=[200, 150], withdrawals=[])
        trace = self.record(tmp_path, data)
        lines = trace.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["payload"]["scenario"]["mode"] == "conservation"
        header["payload"]["scenario"]["mode"] = "strict"
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        trace.write_text("\n".join(lines) + "\n")
        assert cli.main(["replay", str(trace)]) == 3

    def test_empty_trace_is_invalid_input(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_text("")
        assert cli.main(["replay", str(path)]) == 1

    @pytest.mark.parametrize("header, message", [
        ("[1, 2]", "first trace line is not a header record"),
        ('{"kind": "header", "payload": [1, 2]}', "trace header payload is not an object"),
    ])
    def test_header_that_is_not_an_object_is_invalid_input(self, tmp_path, capsys,
                                                           header, message):
        path = tmp_path / "bad.trace"
        path.write_text(header + "\n")
        assert cli.main(["replay", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("override, message", [
        ("x", "expected integer, got 'x'"),
        (-1, "must be >= 0"),
        (True, "expected integer, got True"),
        (1.5, "expected integer, got 1.5"),
    ], ids=["string", "negative", "bool", "float"])
    def test_bad_threshold_override_in_the_header_is_invalid_input(
            self, tmp_path, capsys, override, message):
        trace = self.record(tmp_path, presets.happy_path())
        lines = trace.read_text().splitlines()
        header = json.loads(lines[0])
        header["payload"]["threshold_override"] = override
        lines[0] = json.dumps(header, sort_keys=True, separators=(",", ":"))
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert cli.main(["replay", str(trace)]) == 1
        assert capsys.readouterr().err == (
            f"error: trace header does not replay: threshold_override: {message}\n")


def test_a_model_fault_exits_four(tmp_path, capsys, monkeypatch):
    """A contract bug (``KeyError`` in a bridge head's ``handle``) makes both
    ``run`` and ``replay`` print the model fault and exit 4, not 0."""
    path = write(tmp_path, "ok.json", presets.happy_path())
    trace = tmp_path / "ok.trace"
    assert cli.main(["run", path, "--trace-out", str(trace)]) == 0

    def broken(self, chain, tx):
        raise KeyError("lane")

    monkeypatch.setattr(BridgeHead, "handle", broken)
    capsys.readouterr()
    assert cli.main(["run", path]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: model fault: tick ") and err.endswith("KeyError: 'lane'\n")
    assert cli.main(["replay", str(trace)]) == 4
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("command", ["validate", "run", "replay"])
def test_a_file_that_is_not_utf8_is_invalid_input(tmp_path, capsys, command):
    """Input files are UTF-8: a file that is not is unreadable input, exit 1
    with one ``error:`` line, not an uncaught ``UnicodeDecodeError``."""
    path = tmp_path / "not-utf8.json"
    path.write_bytes(b"\xff" + json.dumps(presets.happy_path()).encode())
    assert cli.main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ") and err.count("\n") == 1
    assert "Traceback" not in err


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["run", str(SCENARIOS / "happy_path.json"), "--seed", "abc"],
        ["run", str(SCENARIOS / "happy_path.json"), "--mode", "lax"],
        ["run"],
        ["frobnicate"],
    ])
    def test_usage_error_exits_one(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 1
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["run", "--help"])
        assert exit_.value.code == 0
        assert "--override-threshold" in capsys.readouterr().out


class TestFirstDivergence:
    def test_names_the_kind_and_the_first_differing_field(self):
        recorded = ['{"kind":"block","payload":{"events":[{"v":1},{"v":2}],"height":3}}']
        regenerated = ['{"kind":"block","payload":{"events":[{"v":1},{"v":3}],"height":4}}']
        got = first_divergence(recorded, regenerated)
        assert (got["line"], got["kind"], got["path"]) == (1, "block", "payload.events.1.v")

    def test_a_missing_key_or_item_ends_the_path(self):
        got = first_divergence(['{"a":{"b":1},"kind":"x"}'], ['{"a":{},"kind":"x"}'])
        assert got["path"] == "a.b"
        got = first_divergence(['{"a":[1,2],"kind":"x"}'], ['{"a":[1],"kind":"x"}'])
        assert got["path"] == "a.1"

    def test_true_and_one_differ(self):
        got = first_divergence(['{"a":[true],"kind":"x"}'], ['{"a":[1],"kind":"x"}'])
        assert got["path"] == "a.0"

    def test_equal_values_in_another_encoding_have_an_empty_path(self):
        got = first_divergence(['{"a":1,"kind":"x"}'], ['{"kind":"x", "a":1}'])
        assert (got["kind"], got["path"]) == ("x", "")

    def test_a_line_that_is_not_json_is_reported_by_line_only(self):
        assert first_divergence(["{}", "{}"], ["{}", "not json"]) == \
            {"line": 2, "recorded": "{}", "regenerated": "not json"}
        assert first_divergence(["{}"], ["{}", '{"kind":"end"}']) == \
            {"line": 2, "recorded": "<absent>", "regenerated": '{"kind":"end"}'}
        assert first_divergence(["[1]"], ["[2]"]) == {"line": 1, "recorded": "[1]",
                                                      "regenerated": "[2]"}

    def test_identical_traces_have_no_divergence(self):
        assert first_divergence(['{"kind":"end"}'], ['{"kind":"end"}']) is None
