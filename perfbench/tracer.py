"""Per-layer spans, recorded by wrapping the program's calls from outside.

``Tracer.install`` replaces the methods named in ``SPANS`` with wrappers that
time each call; the program's source is not touched.  A span's self time is
its duration minus the time of the spans nested in it, so the self times of
all layers add up to the traced wall time they cover.  Spans are aggregated
per name as they close (count and summed self time) rather than kept one by
one, which keeps memory flat on runs with millions of digest calls.

A method the program no longer has is skipped and its layer reads zero, so
the benchmark keeps working when a later change removes a private step.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter

# (layer, module, attribute path) for every wrapped call.  Every ``handle``
# of a contract class in ``bridgesim.contracts`` is added as
# ``contracts.handle`` by ``Tracer.install``.
SPANS = (
    ("scenario.parse", "bridgesim.scenario", "parse_scenario"),
    ("simnet.build", "bridgesim.simnet", "Simulation._build"),
    ("simnet.dispatch", "bridgesim.simnet", "Simulation._dispatch"),
    ("simnet.produce", "bridgesim.simnet", "Simulation._produce"),
    ("simnet.owner", "bridgesim.simnet", "OwnerDaemon.step"),
    ("simnet.settled", "bridgesim.simnet", "Simulation._settled"),
    ("simnet.invariants", "bridgesim.simnet", "Simulation.check_invariants"),
    ("witness.step", "bridgesim.witness", "WitnessNode.step"),
    ("chain.apply_block", "bridgesim.chain", "Chain.apply_block"),
    ("chain.reorg", "bridgesim.chain", "Chain.reorg"),
    ("chain.snapshot", "bridgesim.chain", "Chain._snapshot"),
    ("chain.block_hash", "bridgesim.chain", "Block.compute_hash"),
    ("chain.state_digest", "bridgesim.chain", "Chain.state_digest"),
    ("chain.tx_digest", "bridgesim.chain", "Transaction.digest"),
    ("codec.digest", "bridgesim.codec", "digest"),
    ("trace.record", "bridgesim.trace", "TraceWriter.record"),
)
CONTRACT_HANDLE = "contracts.handle"
# A state restore outside a reorg undoes a rejected transaction; inside a
# reorg it is part of the reorg's own undo.
ROLLBACK = "chain.rollback"
RESTORE = ("bridgesim.chain", "Chain._restore")

LAYERS = tuple(name for name, _, _ in SPANS) + (CONTRACT_HANDLE, ROLLBACK)


class Tracer:
    def __init__(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        # One [layer, child seconds] frame per open span.
        self._open: list[list] = []

    def _wrap(self, layer: str, fn):
        calls, self_s, open_spans = self.calls, self.self_s, self._open

        def span(*args, **kwargs):
            frame = [layer, 0.0]
            open_spans.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                open_spans.pop()
                calls[layer] += 1
                self_s[layer] += elapsed - frame[1]
                if open_spans:
                    open_spans[-1][1] += elapsed

        return span

    def _wrap_restore(self, fn):
        rollback = self._wrap(ROLLBACK, fn)
        open_spans = self._open

        def restore(*args, **kwargs):
            if open_spans and open_spans[-1][0] == "chain.reorg":
                return fn(*args, **kwargs)
            return rollback(*args, **kwargs)

        return restore

    def install(self) -> None:
        targets = [(layer, module, path) for layer, module, path in SPANS]
        contracts = importlib.import_module("bridgesim.contracts")
        for name, value in sorted(vars(contracts).items()):
            if isinstance(value, type) and value.__module__ == contracts.__name__ \
                    and "handle" in vars(value):
                targets.append((CONTRACT_HANDLE, contracts.__name__, f"{name}.handle"))
        for layer, module, path in targets:
            owner, attr = _resolve(module, path)
            if owner is not None:
                setattr(owner, attr, self._wrap(layer, getattr(owner, attr)))
        owner, attr = _resolve(*RESTORE)
        if owner is not None:
            setattr(owner, attr, self._wrap_restore(getattr(owner, attr)))

    @contextmanager
    def paused(self):
        """Leave the calls made inside the block out of every layer."""
        calls, self_s = dict(self.calls), dict(self.self_s)
        try:
            yield
        finally:
            self.calls.update(calls)
            self.self_s.update(self_s)


def _resolve(module: str, path: str):
    """(object holding the attribute, attribute name), or (None, None)."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None, None
    if not hasattr(owner, attr):
        return None, None
    return owner, attr
