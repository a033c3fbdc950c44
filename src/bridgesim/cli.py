"""Command-line entry point.

Exit codes are a contract: 0 all checks pass, 1 invalid input, 2 invariant
failure during the run, 3 replay divergence, 4 a fault of the model itself
(``chain.ModelError``: an exception that is not a refusal while a block was
applied) during ``run`` or ``replay``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import simnet, trace as trace_mod
from .chain import InvalidReorg, ModelError
from .reader import Collector, uint
from .scenario import (
    ScenarioInvalid,
    is_genesis_file,
    load_file,
    parse_scenario,
    validate_genesis_data,
    validate_scenario,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_INVARIANT = 2
EXIT_DIVERGENCE = 3
EXIT_MODEL = 4


def _load(path: str) -> dict | None:
    try:
        return load_file(path)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None


def cmd_validate(args: argparse.Namespace) -> int:
    data = _load(args.file)
    if data is None:
        return EXIT_INVALID
    if is_genesis_file(data):
        diags = validate_genesis_data(data)
        kind = "genesis"
    else:
        diags = validate_scenario(data)
        kind = "scenario"
    errors = [d for d in diags if d.level == "error"]
    for diag in diags:
        stream = sys.stderr if diag.level == "error" else sys.stdout
        print(f"{diag.level}: {diag}", file=stream)
    if errors:
        print(f"{kind} file {args.file}: INVALID ({len(errors)} errors)", file=sys.stderr)
        return EXIT_INVALID
    print(f"{kind} file {args.file}: ok")
    return EXIT_OK


def _threshold_override(raw: object, at: str) -> int | None:
    """A threshold override (None: none), read as a scenario reads a count;
    raises ScenarioInvalid naming ``at`` when ``raw`` is not one."""
    if raw is None:
        return None
    col = Collector()
    value = uint()(col, raw, at)
    if value is None:
        raise ScenarioInvalid(col.diags)
    return value


def _print_report(result: simnet.RunResult) -> None:
    summary = result.summary
    print("== bridge simulation report ==")
    print(f"quiescent: {summary['quiescent']}  ended_at_tick: {summary['ended_at']}")
    print(f"token chain height: {summary['token_height']}")
    print(f"registered chain ids: {summary['registry'] or '(none)'}")
    for chain_id, entry in summary["side_chains"].items():
        print(f"side chain {chain_id} ({entry['variant']}):")
        print(f"  bridge-head locked: {entry['locked']}  fee reserve: {entry['fee_reserve']}")
        if entry["variant"] == "gasless":
            print(f"  circulating: {entry['circulating']}  bank: {entry['bank_balance']}"
                  f"  vault: {entry['vault_balance']} (suicided: {entry['vault_suicided']})")
        else:
            print(f"  trading ledger sum: {entry['trading_sum']}  escrow: {entry['escrow']}")
        print(f"  registered: {entry['registered']}  height: {entry['height']}")
    print(f"settled invariant checks: {summary['settled_checks']}  resends: {summary['resends']}")
    if result.failures:
        print("invariant FAILURES:")
        for failure in result.failures:
            print(f"  - {failure.name} [{failure.chain}] {failure.details}")
    else:
        print("all invariants held")
    print("== summary (json) ==")
    print(json.dumps(summary, sort_keys=True))


def cmd_run(args: argparse.Namespace) -> int:
    data = _load(args.file)
    if data is None:
        return EXIT_INVALID
    if isinstance(data, dict):  # anything else fails to parse as an object
        overrides = {"seed": args.seed, "max_ticks": args.max_ticks, "mode": args.mode}
        data = dict(data, **{k: v for k, v in overrides.items() if v is not None})
    try:
        scenario = parse_scenario(data)
        override = _threshold_override(args.override_threshold, "--override-threshold")
    except ScenarioInvalid as exc:
        for diag in exc.diagnostics:
            print(f"{diag.level}: {diag}", file=sys.stderr)
        return EXIT_INVALID
    for diag in scenario.warnings:
        print(f"warning: {diag}")
    try:
        result = simnet.run_scenario(scenario, threshold_override=override)
    except InvalidReorg as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ModelError as exc:
        print(f"error: model fault: {exc}", file=sys.stderr)
        return EXIT_MODEL
    if args.trace_out:
        result.write_trace(args.trace_out)
        print(f"trace written to {args.trace_out}")
    _print_report(result)
    return EXIT_OK if result.ok else EXIT_INVARIANT


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        recorded = trace_mod.read_trace(args.trace)
        header = trace_mod.header_of(recorded)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.trace}: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except trace_mod.TraceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        scenario = parse_scenario(header["scenario"])
        override = _threshold_override(header.get("threshold_override"), "threshold_override")
    except (KeyError, ScenarioInvalid) as exc:
        print(f"error: trace header does not replay: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        result = simnet.run_scenario(scenario, threshold_override=override)
    except ModelError as exc:
        print(f"error: model fault: {exc}", file=sys.stderr)
        return EXIT_MODEL
    divergence = trace_mod.first_divergence(recorded, result.trace_lines)
    if divergence is None:
        print(f"replay of {args.trace}: identical ({len(recorded)} records)")
        return EXIT_OK
    print(f"replay DIVERGED at line {divergence['line']}:", file=sys.stderr)
    if "kind" in divergence:
        print(f"  record: {divergence['kind']}  field: {divergence['path'] or '(encoding only)'}",
              file=sys.stderr)
    print(f"  recorded:    {divergence['recorded'][:200]}", file=sys.stderr)
    print(f"  regenerated: {divergence['regenerated'][:200]}", file=sys.stderr)
    return EXIT_DIVERGENCE


class _Parser(argparse.ArgumentParser):
    """Exits on a usage error with the invalid-input code, not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bridgesim",
        description="Deterministic notary-quorum cross-chain bridge simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="statically check a scenario or genesis file")
    p_validate.add_argument("file")
    p_validate.set_defaults(func=cmd_validate)

    p_run = sub.add_parser("run", help="run a scenario and report invariants")
    p_run.add_argument("file")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--max-ticks", type=int, default=None)
    p_run.add_argument("--trace-out", default=None)
    p_run.add_argument("--mode", choices=("conservation", "strict"), default=None)
    p_run.add_argument(
        "--override-threshold",
        type=int,
        default=None,
        help="UNSAFE: force every quorum threshold (bypasses the >N/2 rule) "
        "to demonstrate why the bound matters",
    )
    p_run.set_defaults(func=cmd_run)

    p_replay = sub.add_parser("replay", help="re-execute a trace and compare byte for byte")
    p_replay.add_argument("trace")
    p_replay.set_defaults(func=cmd_replay)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
