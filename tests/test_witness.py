"""Witness behavior: registration validation, window scanning, relay votes."""

import itertools
import math
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from bridgesim import witness as witness_mod
from bridgesim.chain import (
    Address, Chain, ChainKind, Event, EventTopic, IoTRecord, Transaction, TransferEntry,
    Transferring,
)
from bridgesim.contracts import INBOUND, OUTBOUND, REGISTRATION, Contract, entries_subject
from bridgesim.genesis import genesis_hash, parse_genesis
from bridgesim.scenario import BridgeHeadConfig, SideChainConfig
from bridgesim.simnet import OwnerDaemon
from bridgesim.witness import (
    Behavior,
    PendingVote,
    RelayCursor,
    WitnessConfig,
    WitnessNode,
    registration_conditions,
    scan_ready,
    validate_registration_nativegas,
)

TOKEN_ID = Address.from_label("token")
OTHER_ID = Address.from_label("another-chain")


def gasless_genesis(chain_label="side", bal_resv=990, bal_bank=999010, n_wit=4):
    return parse_genesis({
        "Chain_ID": str(Address.from_label(chain_label)),
        "SC_Register": str(Address.from_label(f"{chain_label}-vault")),
        "Bal_Resv": bal_resv,
        "SC_Inter": str(Address.from_label(f"{chain_label}-relay")),
        "SC_Bank": str(Address.from_label(f"{chain_label}-bank")),
        "Bal_Bank": bal_bank,
        "Wit_Addr_List": [str(Address.from_label(f"{chain_label}-w{i}"))
                          for i in range(n_wit)],
    })


class TestRegistrationValidation:
    def inputs(self):
        genesis = gasless_genesis()
        return {
            "genesis": genesis,
            "side_height": 0,
            "claimed_hash": genesis_hash(genesis),
            "claimed_balance": genesis.total_reserved(),
            "claimed_chain_id": genesis.chain_id,
            "registered_ids": set(),
            "token_chain_id": TOKEN_ID,
        }

    def test_all_conditions_met_accepts(self):
        assert all(registration_conditions(**self.inputs())) is True

    def test_nonzero_height_rejects(self):
        kw = self.inputs()
        kw["side_height"] = 3
        assert all(registration_conditions(**kw)) is False

    def test_chain_id_equal_to_token_chain_rejects(self):
        genesis = gasless_genesis()
        object.__setattr__(genesis, "chain_id", TOKEN_ID)  # forged file
        assert all(registration_conditions(
            genesis, 0, genesis_hash(genesis), genesis.total_reserved(),
            TOKEN_ID, set(), TOKEN_ID,
        )) is False

    def test_registered_id_rejects(self):
        kw = self.inputs()
        kw["registered_ids"] = {kw["claimed_chain_id"]}
        assert all(registration_conditions(**kw)) is False

    def test_hash_mismatch_rejects(self):
        kw = self.inputs()
        kw["claimed_hash"] = b"\x00" * 32
        assert all(registration_conditions(**kw)) is False

    def test_balance_mismatch_rejects(self):
        kw = self.inputs()
        kw["claimed_balance"] += 1
        assert all(registration_conditions(**kw)) is False

    def build_case(self, mask):
        """Construct inputs where condition i holds iff mask[i] is True.

        Conditions: hash, height, balance, id==file, id!=token, id not taken.
        """
        want_hash, want_height, want_balance, want_match, want_not_token, want_free = mask
        if want_not_token:
            claimed = Address.from_label("side")
        else:
            claimed = TOKEN_ID
        if want_match:
            file_id = claimed
        else:
            file_id = OTHER_ID
        genesis = gasless_genesis()
        object.__setattr__(genesis, "chain_id", file_id)
        claimed_hash = genesis_hash(genesis) if want_hash else b"\xab" * 32
        side_height = 0 if want_height else 2
        claimed_balance = genesis.total_reserved() + (0 if want_balance else 5)
        registered = set() if want_free else {claimed}
        return dict(
            genesis=genesis,
            side_height=side_height,
            claimed_hash=claimed_hash,
            claimed_balance=claimed_balance,
            claimed_chain_id=claimed,
            registered_ids=registered,
            token_chain_id=TOKEN_ID,
        )

    def test_exhaustive_condition_toggle_matches_conjunction(self):
        for mask in itertools.product([True, False], repeat=6):
            kw = self.build_case(mask)
            conditions = registration_conditions(**kw)
            assert conditions == list(mask), f"toggles not independent for {mask}"
            assert all(registration_conditions(**kw)) is all(mask)


class TestNativeGasValidation:
    def test_existing_tall_chain_is_fine(self):
        cid = Address.from_label("native")
        assert validate_registration_nativegas(cid, 7, set(), TOKEN_ID) is True

    def test_duplicate_chain_id_rejects(self):
        cid = Address.from_label("native")
        assert validate_registration_nativegas(cid, 7, {cid}, TOKEN_ID) is False

    def test_token_chain_id_rejects(self):
        assert validate_registration_nativegas(TOKEN_ID, 7, set(), TOKEN_ID) is False

    def test_unreachable_chain_rejects(self):
        cid = Address.from_label("native")
        assert validate_registration_nativegas(cid, None, set(), TOKEN_ID) is False


def chain_of_height(height, chain_id=TOKEN_ID):
    chain = Chain(chain_id, ChainKind.TOKEN, {"Chain_ID": chain_id}, 100,
                  {Address.from_label("x"): 100})
    chain.seal_genesis()
    for _ in range(height):
        chain.apply_block([])
    return chain


def logged_cursor(omega):
    """A cursor, and the list of every span its ``advance`` is given."""
    cursor, spans = RelayCursor(omega=omega), []

    def advance(span):
        spans.append(span)
        RelayCursor.advance(cursor, span)

    cursor.advance = advance
    return cursor, spans


class TestScanReady:
    def test_first_window_is_anchored_two_windows_behind_head(self):
        chain = chain_of_height(25)
        cursor, spans = logged_cursor(omega=6)
        scan_ready(cursor, chain, set())
        assert spans == [(14, 19)]

    def test_first_window_waits_for_depth(self):
        chain = chain_of_height(10)
        cursor, spans = logged_cursor(omega=6)
        assert scan_ready(cursor, chain, set()) == []
        assert cursor.first_time and spans == []

    def test_next_window_gated_on_head_advancing_a_full_window(self):
        chain = chain_of_height(25)
        cursor, spans = logged_cursor(omega=6)
        scan_ready(cursor, chain, set())  # consumes [14, 19]
        while chain.height < 30:
            chain.apply_block([])
        scan_ready(cursor, chain, set())
        assert spans == [(14, 19)]  # 30 < 25 + 6
        chain.apply_block([])  # head 31
        scan_ready(cursor, chain, set())
        assert spans[-1] == (20, 25)

    def test_windows_are_contiguous_and_disjoint(self):
        chain = chain_of_height(0)
        cursor, spans = logged_cursor(omega=3)
        for _ in range(60):
            chain.apply_block([])
            scan_ready(cursor, chain, set())
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert s2 == e1 + 1
        assert spans[0][0] >= 0
        assert cursor.gaps == 0

    def test_omega_zero_scans_to_head_immediately(self):
        chain = chain_of_height(5)
        cursor, spans = logged_cursor(omega=0)
        scan_ready(cursor, chain, set())
        assert spans == [(0, 5)]
        assert scan_ready(cursor, chain, set()) == []
        assert spans == [(0, 5)]
        chain.apply_block([])
        scan_ready(cursor, chain, set())
        assert spans[-1] == (6, 6)

    def test_advance_counts_spans_that_do_not_follow_on(self):
        cursor = RelayCursor(omega=3)
        # Skipped heights 10, a doubled 13, a span ending before it starts;
        # an empty span (end = start - 1) follows on.
        for span in [(4, 6), (7, 9), (11, 13), (13, 15), (16, 14), (15, 14)]:
            cursor.advance(span)
        assert (cursor.gaps, cursor.last_end, cursor.next_start) == (3, 14, 15)

    def test_events_filtered_to_watched_contracts(self):
        from bridgesim.contracts import ChainIdRegistry

        chain = Chain(TOKEN_ID, ChainKind.TOKEN, {"Chain_ID": TOKEN_ID}, 100,
                      {Address.from_label("x"): 100})
        registry = ChainIdRegistry(Address.from_label("reg"),
                                   (Address.from_label("o1"),), 1)
        registry.authorized.add(Address.from_label("caller"))
        chain.register_contract(Address.from_label("reg"), registry)
        chain.seal_genesis()
        for _ in range(8):
            chain.apply_block([])
        cursor_watching = RelayCursor(omega=2)
        assert scan_ready(cursor_watching, chain, {Address.from_label("reg")}) == []


def form_batch(cursor, chain, watched):
    """The reference: the next confirmed window of watched events, one window
    per call, as the witness read them before windows were read together."""
    window = cursor.window_if_ready(chain.height)
    if window is None:
        return None
    events = []
    for height in range(window[0], window[1] + 1):
        for ev in chain.events_at(height):
            if ev.contract in watched:
                events.append(ev)
    cursor.advance(window)
    return events, window


class Emitter(Contract):
    """Emits one event per transaction it is sent."""

    def __init__(self, address):
        self.address = address

    def state_view(self):
        return {}

    def transact(self, ctx, tx):
        ctx.emit(self.address, EventTopic.ASSETS_LOCKED, {})


EMITTERS = [Address.from_label(f"emitter-{i}") for i in range(3)]
SENDER = Address.from_label("x")
# Per block, the emitters sent a transaction (so each emits an event there).
BLOCK = st.lists(st.sampled_from(range(len(EMITTERS))), max_size=3)
# Blocks to add before a scan, a run of that many empty blocks (which leaves
# every event below the next ready window), or a reorg (depth, replacement
# blocks).
MOVE = st.one_of(
    st.lists(BLOCK, max_size=9),
    st.integers(1, 12),
    st.tuples(st.integers(0, 4), st.lists(BLOCK, max_size=5)),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(omega=st.integers(0, 4), watched=st.sets(st.sampled_from(range(len(EMITTERS)))),
       moves=st.lists(MOVE, max_size=12), eventless=st.booleans())
def test_scan_reads_what_the_reference_loop_reads(omega, watched, moves, eventless):
    """One scan reads the batches and windows a ``form_batch`` loop reads,
    leaves the cursor where the loop leaves it, and records one span that
    tiles the loop's windows.  On an ``eventless`` chain the transactions
    go to no contract, so no block holds an event."""
    chain = Chain(TOKEN_ID, ChainKind.TOKEN, {"Chain_ID": TOKEN_ID}, 100, {SENDER: 100})
    for addr in EMITTERS:
        chain.register_contract(addr, Emitter(addr))
    chain.seal_genesis()
    watched = {EMITTERS[i] for i in watched}
    (cursor, spans), reference = logged_cursor(omega), RelayCursor(omega=omega)

    def block(picks):
        return [Transaction(SENDER, SENDER if eventless else EMITTERS[i], 0, 1, IoTRecord(""))
                for i in picks]

    for move in moves:
        if isinstance(move, tuple):
            depth, replacement = move
            chain.reorg(min(depth, chain.height), [block(b) for b in replacement], now=0)
        elif isinstance(move, int):
            for _ in range(move):
                chain.apply_block([])
        else:
            for picks in move:
                chain.apply_block(block(picks))
        expected = list(iter(lambda: form_batch(reference, chain, watched), None))
        read = len(spans)
        assert scan_ready(cursor, chain, watched) == [(ev, w) for ev, w in expected if ev]
        assert (cursor.next_start, cursor.first_time) == \
            (reference.next_start, reference.first_time)
        windows = [w for _, w in expected]
        assert spans[read:] == ([(windows[0][0], windows[-1][1])] if windows else [])
        assert all(b[0] == a[1] + 1 for a, b in zip(windows, windows[1:]))


def emitter_chain(events, chain_id=TOKEN_ID, height=0):
    """A chain whose block at each height in ``events`` holds one event of
    each emitter index listed there; ``height`` blocks high at least."""
    chain = Chain(chain_id, ChainKind.TOKEN, {"Chain_ID": chain_id}, 100, {SENDER: 100})
    for addr in EMITTERS:
        chain.register_contract(addr, Emitter(addr))
    chain.seal_genesis()
    for at in range(1, max([height, *events]) + 1):
        chain.apply_block([Transaction(SENDER, EMITTERS[i], 0, 1, IoTRecord(""))
                           for i in events.get(at, ())])
    return chain


def anchored(omega, next_start):
    return RelayCursor(omega=omega, next_start=next_start, first_time=False,
                       last_end=next_start - 1)


class TestReadyHeight:
    """The least head at which a scan could anchor the first window or read
    an event of a watched contract."""

    WATCHED = frozenset({EMITTERS[0]})

    def test_an_unanchored_cursor_is_ready_two_windows_deep(self):
        chain = emitter_chain({}, height=30)
        cursor = RelayCursor(omega=3)
        assert cursor.ready_height(chain, self.WATCHED) == 5
        assert scan_ready(cursor, chain, self.WATCHED, head=4) == [] and cursor.first_time
        scan_ready(cursor, chain, self.WATCHED, head=5)
        assert not cursor.first_time and cursor.next_start == 3

    def test_with_omega_zero_every_new_block_is_ready(self):
        cursor = anchored(omega=0, next_start=6)
        assert cursor.ready_height(emitter_chain({}, height=30), self.WATCHED) == 6
        assert cursor.ready_height(emitter_chain({20: [0]}), self.WATCHED) == 6

    def test_an_event_is_ready_omega_past_the_end_of_its_window(self):
        # Windows [10, 12], [13, 15], ...: an event at a window's first or
        # last height is ready once the head is omega past that window's end.
        cursor = anchored(omega=3, next_start=10)
        for height, ready in [(10, 15), (12, 15), (13, 18), (15, 18), (16, 21)]:
            chain = emitter_chain({height: [0]}, height=30)
            assert cursor.ready_height(chain, self.WATCHED) == ready, height
            probe = anchored(omega=3, next_start=10)
            assert scan_ready(probe, chain, self.WATCHED, head=ready - 1) == []
            assert scan_ready(anchored(omega=3, next_start=10), chain, self.WATCHED, head=ready)

    def test_events_below_the_cursor_and_of_unwatched_contracts_do_not_count(self):
        cursor = anchored(omega=3, next_start=10)
        assert cursor.ready_height(emitter_chain({9: [0], 11: [1, 2]}, height=30),
                                   self.WATCHED) == math.inf
        assert cursor.ready_height(emitter_chain({11: [1], 14: [0]}, height=30),
                                   self.WATCHED) == 18

    def test_with_no_event_nothing_is_ever_ready(self):
        assert anchored(omega=3, next_start=10).ready_height(
            emitter_chain({}, height=30), self.WATCHED) == math.inf


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(omega=st.integers(0, 4), watched=st.sets(st.sampled_from(range(len(EMITTERS)))),
       events=st.dictionaries(st.integers(1, 24), BLOCK, max_size=6),
       start=st.one_of(st.none(), st.integers(0, 24)))
def test_a_scan_acts_from_the_ready_height_on(omega, watched, events, start):
    """At every head below the ready height a scan neither anchors nor reads
    a batch, and when ``omega`` is 0 it does not move; at every head from
    there on it does.  ``start`` None is an unanchored cursor."""
    chain = emitter_chain(events, height=28)
    watched = frozenset(EMITTERS[i] for i in watched)
    cursor = RelayCursor(omega=omega) if start is None else anchored(omega, start)
    ready = cursor.ready_height(chain, watched)
    for head in range(chain.height + 1):
        probe = RelayCursor(omega, cursor.next_start, cursor.first_time, cursor.last_end)
        batches = scan_ready(probe, chain, watched, head)
        anchors = cursor.first_time and not probe.first_time
        moves = probe.next_start != cursor.next_start
        assert (bool(batches) or anchors or (not omega and moves)) == (head >= ready), head


def test_a_catch_up_leaves_the_cursors_where_polling_steps_leave_them():
    """Two witnesses over the same chains, whose blocks hold events of
    contracts they do not watch: one steps at every wake tick, as the
    polling loop does, the other only at the wake tick ``next_wake`` gives,
    worked out again on every tick as new events come.  The second lags
    behind by the windows it slept through, and a catch-up brings its
    cursors exactly where the first one's are."""
    config = witness_config()
    events = {at: [at % 3] for at in range(3, 200, 7)}
    token = emitter_chain(events)
    side = emitter_chain(events, chain_id=config.genesis.chain_id)
    polling = WitnessNode(config, token, side, seed=1)
    sleeping = WitnessNode(witness_config(), token, side, seed=1)
    view = RecordingView()
    steps = {polling: 0, sleeping: 0}
    for tick in range(1, 120):
        for chain in (token, side):
            chain.apply_block([Transaction(SENDER, EMITTERS[i], 0, 1, IoTRecord(""))
                               for i in events.get(chain.height + 1, ())], now=tick)
        sleeping.wake = sleeping.next_wake(tick)
        for node in (polling, sleeping):
            if node.wake <= tick:
                node.step(view, tick)
                steps[node] += 1
        polling.wake = (tick // config.sleep + 1) * config.sleep if polling.anchored else tick + 1

    def state(node):
        return [(w.cursor.next_start, w.cursor.first_time, w.cursor.last_end, w.cursor.gaps)
                for w in node.watches]

    assert view.sent == [] and 0 < steps[sleeping] < steps[polling]
    lags = [s[0] - p[0] for s, p in zip(state(sleeping), state(polling))]
    assert all(lag < 0 for lag in lags)
    sleeping.catch_up(120)
    assert state(sleeping) == state(polling) and sleeping.caught_up_to == 119


def test_an_owner_catch_up_leaves_the_cursors_where_polling_steps_leave_them():
    """Two owner daemons over the same chains, whose blocks hold events of
    contracts they do not watch: one steps at every tick, as its polling
    loop does, the other only at the tick ``next_wake`` gives.  The second
    lags behind by the windows it slept through, and a catch-up brings its
    cursors exactly where the first one's are.  Neither queues an approval."""
    genesis = gasless_genesis()
    side_config = SideChainConfig(
        block_interval=1, omega=1, genesis=genesis,
        bridge_head=BridgeHeadConfig(Address.from_label("bridge-head"), 3, 0, 0))
    events = {at: [at % 3] for at in range(3, 200, 7)}
    token = emitter_chain(events)
    side = emitter_chain(events, chain_id=genesis.chain_id)
    polling, sleeping = (OwnerDaemon(side_config, Address.from_label("registry"), token, side,
                                     omega_token=2) for _ in range(2))
    queued = []
    view = SimpleNamespace(queue=lambda daemon, tx: queued.append(tx))
    steps = {polling: 0, sleeping: 0}
    for tick in range(1, 120):
        for chain in (token, side):
            chain.apply_block([Transaction(SENDER, EMITTERS[i], 0, 1, IoTRecord(""))
                               for i in events.get(chain.height + 1, ())], now=tick)
        sleeping.wake = sleeping.next_wake(tick)
        for node in (polling, sleeping):
            if node is polling or node.wake <= tick:
                node.step(view, tick)
                steps[node] += 1

    def state(node):
        return [(w.cursor.next_start, w.cursor.first_time, w.cursor.last_end, w.cursor.gaps)
                for w in node.watches]

    assert queued == [] and 0 < steps[sleeping] < steps[polling]
    lags = [s[0] - p[0] for s, p in zip(state(sleeping), state(polling))]
    assert len(lags) == 2 and all(lag < 0 for lag in lags)
    sleeping.catch_up(120)
    assert state(sleeping) == state(polling)


def test_a_crashed_stretch_is_not_caught_up():
    """The polling loop's crashed witness reads nothing, so a catch-up at
    the end of a crash moves no cursor, and one at its start moves them to
    the last wake tick before it.  A crashed witness never wakes."""
    config = witness_config()
    token, side = emitter_chain({}, height=25), emitter_chain({}, config.genesis.chain_id, 25)
    node = WitnessNode(config, token, side, seed=1)
    node.step(RecordingView(), 1)  # anchors both cursors
    starts = [w.cursor.next_start for w in node.watches]
    for tick in range(2, 61):
        for chain in (token, side):
            chain.seal_empty(tick)
    node.catch_up(45)  # the crash begins at tick 45
    config.behavior = Behavior.CRASHED
    assert node.next_wake(45) == math.inf
    caught_up = [w.cursor.next_start for w in node.watches]
    assert caught_up != starts and node.caught_up_to == 44
    # Past the windows ready at height 64, the heads of tick 40, the last
    # wake tick before the crash: token windows [24, 25] to [60, 61], side
    # windows [25, 25] to [63, 63].
    assert starts == [24, 25] and caught_up == [62, 64]
    node.catch_up(60)  # the crash ends at tick 60
    config.behavior = Behavior.HONEST
    assert [w.cursor.next_start for w in node.watches] == caught_up
    assert node.caught_up_to == 59


def test_a_wake_tick_worked_out_after_a_reorg_reads_a_moved_event_on_time():
    """A reorg can move a watched event without changing how many blocks
    hold events.  Worked out again after it, the wake tick is the one at
    which the event's new window is ready."""
    config = witness_config()
    token = Chain(TOKEN_ID, ChainKind.TOKEN, {"Chain_ID": TOKEN_ID}, 100, {SENDER: 100})
    token.register_contract(config.bridge_head, Emitter(config.bridge_head))
    token.seal_genesis()
    node = WitnessNode(config, token, emitter_chain({}, config.genesis.chain_id, 25), seed=1)
    view = RecordingView()
    for _ in range(25):
        token.apply_block([])
    node.step(view, 1)  # anchors the token cursor at next_start 24, windows [24, 25], ...
    lock = Transaction(SENDER, config.bridge_head, 0, 1, IoTRecord(""))
    for tick, txs in zip((18, 19, 20), ([lock], [], [])):  # one block per tick
        token.apply_block(txs, now=tick)
    # The event at height 26 is ready at head 29, at tick 21.
    assert node.next_wake(20) == 30
    token.reorg(5, [[lock], [], [], [], []], now=20)  # the event moves to 24
    assert len(token.event_heights) == 1
    assert node.next_wake(20) == 20


def witness_node(behavior=Behavior.HONEST, height=0):
    """A witness over a token chain and its side chain, each ``height`` blocks high."""
    config = witness_config(behavior)
    return WitnessNode(config, chain_of_height(height),
                       chain_of_height(height, config.genesis.chain_id), seed=1)


def witness_config(behavior=Behavior.HONEST):
    return WitnessConfig(
        name="w0",
        token_address=Address.from_label("w0-token"),
        side_address=Address.from_label("w0-side"),
        genesis=gasless_genesis(),
        bridge_head=Address.from_label("bridge-head"),
        registry=Address.from_label("registry"),
        omega_token=2,
        omega_side=1,
        timeout=50,
        sleep=10,
        behavior=behavior,
    )


def sample_entries():
    return (
        TransferEntry(
            origin_chain=TOKEN_ID, origin_height=5, origin_seq=0,
            to=Address.from_label("dest"), value=70,
        ),
    )


def inbound_vote(node, subject=None):
    """A pending inbound relay of ``sample_entries`` to the node's SC_Inter,
    bound to ``subject`` when given."""
    genesis = node.config.genesis
    if subject is None:
        return PendingVote.relay(genesis.chain_id, genesis.inter_contract, INBOUND,
                                 sample_entries())
    return PendingVote(genesis.chain_id, genesis.inter_contract, INBOUND,
                       Transferring(INBOUND, subject, sample_entries()))


class TestRelayAndVote:
    """The transaction ``_vote_tx`` builds for a pending relay batch under
    each behavior."""

    def test_honest_witness_builds_one_bound_transaction(self):
        node = witness_node()
        tx = node._vote_tx(inbound_vote(node), 0)
        assert isinstance(tx, Transaction)
        assert tx.round == 0
        assert tx.gasprice == 0
        assert tx.payload.subject == entries_subject(INBOUND, tx.payload.entries)
        assert tx.payload.entries[0].value == 70
        assert tx.sender == node.config.side_address

    def test_token_chain_targets_use_token_address(self):
        node = witness_node()
        vote = PendingVote.relay(node.token_chain_id, node.config.bridge_head, OUTBOUND,
                                 sample_entries())
        tx = node._vote_tx(vote, 0)
        assert tx.sender == node.config.token_address

    def test_crashed_witness_submits_nothing(self):
        """A crashed witness with due votes steps without submitting or
        acting; its votes stay pending and unsent."""
        node = witness_node(Behavior.CRASHED)
        genesis = node.config.genesis
        node._queue_entry(genesis.chain_id, genesis.inter_contract, INBOUND, sample_entries()[0])
        view = RecordingView()
        assert not node.step(view, 10)
        assert view.sent == [] and view.resends == []
        assert [vote.last_submit for vote in node.pending.values()] == [None]

    def test_reject_all_witness_never_relays(self):
        node = witness_node(Behavior.BYZANTINE_REJECT_ALL)
        assert node._vote_tx(inbound_vote(node), 0) is None

    def test_equivocator_corrupts_content_consistently(self):
        node = witness_node(Behavior.EQUIVOCATING)
        vote = inbound_vote(node)
        tx1 = node._vote_tx(vote, 0)
        tx2 = node._vote_tx(vote, 0)
        honest_subject = entries_subject(INBOUND, sample_entries())
        # each submission lies, the lie is internally consistent, and two
        # submissions do not pool with each other or with honest votes
        for tx in (tx1, tx2):
            assert tx.payload.subject == entries_subject(INBOUND, tx.payload.entries)
            assert tx.payload.subject != honest_subject
        assert tx1.payload.subject != tx2.payload.subject

    def test_a_bound_subject_is_reused_unless_an_entry_is_altered(self, monkeypatch):
        bound = entries_subject(INBOUND, sample_entries())
        hashed = []

        def counted(direction, entries):
            hashed.append(entries)
            return entries_subject(direction, entries)

        monkeypatch.setattr(witness_mod, "entries_subject", counted)
        honest = witness_node()
        tx = honest._vote_tx(inbound_vote(honest, bound), 0)
        assert tx.payload.subject == bound and hashed == []
        liar = witness_node(Behavior.EQUIVOCATING)
        tx = liar._vote_tx(inbound_vote(liar, bound), 0)
        assert hashed == [tx.payload.entries]
        assert tx.payload.subject == entries_subject(INBOUND, tx.payload.entries) != bound


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from(["token", "side"]), st.integers(0, 4),
                          st.integers(0, 2), st.integers(1, 9)), min_size=1, max_size=12))
def test_queued_entries_stay_in_origin_order(queued):
    """Each queued entry goes in at its origin's place, replacing an entry
    with the same origin; the pending vote is rebuilt, unsent, bound to the
    merged entries."""
    node = witness_node()
    target = node.config.genesis.inter_contract
    expected = {}
    for label, height, seq, value in queued:
        entry = TransferEntry(origin_chain=Address.from_label(label), origin_height=height,
                              origin_seq=seq, to=Address.from_label("dest"), value=value)
        node._queue_entry(TOKEN_ID, target, INBOUND, entry)
        expected[entry.origin_plain()] = entry
        vote = node.pending[target, INBOUND]
        assert vote.payload.entries == tuple(expected[k] for k in sorted(expected))
        assert vote.payload.subject == entries_subject(INBOUND, vote.payload.entries)
        assert vote.last_submit is None
        vote.last_submit = 3  # sent; the next merge makes it due again


class TestApproveAllVerdict:
    def test_approve_all_confirms_an_invalid_registration(self):
        node = witness_node(Behavior.BYZANTINE_APPROVE_ALL)

        class View:
            def registry_ids(self):
                return set()

        payload = {
            "chain_id": Address.from_label("side"),
            "genesis_hash": b"\x00" * 32,
            "balance": 1,  # nonsense claim
        }
        assert node._decide_registration(View(), payload, None) is True

    def test_reject_all_refuses_a_valid_registration(self):
        node = witness_node(Behavior.BYZANTINE_REJECT_ALL)

        class View:
            def registry_ids(self):
                return set()

        genesis = gasless_genesis()
        payload = {
            "chain_id": genesis.chain_id,
            "genesis_hash": genesis_hash(genesis),
            "balance": genesis.total_reserved(),
        }
        assert node._decide_registration(View(), payload, None) is False


class RecordingView(witness_mod.WorldView):
    """Records submissions and resend logs."""

    def __init__(self):
        self.sent = []      # (tick, chain id, transaction)
        self.resends = []   # (tick, round)
        self.tick = 0

    def submit(self, witness, chain_id, tx):
        self.sent.append((self.tick, chain_id, tx))

    def log_resend(self, witness, vote, round_no):
        self.resends.append((self.tick, round_no))


def registration_request(genesis):
    """The bridge head's event announcing a registration of ``genesis``."""
    return Event(Address.from_label("bridge-head"), EventTopic.CROSS_CHAIN_ARRIVED, {
        "kind": "registration", "chain_id": genesis.chain_id, "amount": 1,
        "balance": genesis.total_reserved(), "genesis_hash": genesis_hash(genesis),
        "side_creator": Address.from_label("creator-side"), "round": 0, "subject": b"s",
    }, height=5, tx_index=0, seq=0)


class TestRegistrationRequest:
    def test_the_genesis_is_fetched_once_per_request(self):
        genesis = gasless_genesis()

        class View(RecordingView):
            fetches = 0

            def fetch_genesis(self, witness, chain_id):
                View.fetches += 1
                return genesis

            def registry_ids(self):
                return set()

            def side_height(self, chain_id):
                return 0

        node = witness_node()
        node._handle_token_event(View(), registration_request(genesis))
        assert View.fetches == 1
        assert node.observed_registration.payout == genesis.bal_resv
        assert next(iter(node.pending.values())).payload.verdict is True

    def test_a_chain_the_witness_cannot_see_is_refused_not_abstained_on(self):
        """A fetched genesis whose chain has no height fails the brand-new
        chain check: the witness confirms with verdict False."""
        genesis = gasless_genesis()

        class View(RecordingView):
            abstains = []

            def fetch_genesis(self, witness, chain_id):
                return genesis

            def registry_ids(self):
                return set()

            def side_height(self, chain_id):
                return None

            def log_abstain(self, witness, reason):
                self.abstains.append(reason)

        node = witness_node()
        view = View()
        node._handle_token_event(view, registration_request(genesis))
        assert view.abstains == []
        assert node.pending[node.config.bridge_head, REGISTRATION].payload.verdict is False

    def test_a_failed_fetch_abstains_and_observes_nothing(self):
        class View(RecordingView):
            abstains = []

            def fetch_genesis(self, witness, chain_id):
                raise witness_mod.FetchFailure("unreachable")

            def registry_ids(self):
                return set()

            def log_abstain(self, witness, reason):
                self.abstains.append(reason)

        node = witness_node()
        view = View()
        node._handle_token_event(view, registration_request(gasless_genesis()))
        assert view.abstains == ["genesis fetch failed"]
        assert node.observed_registration is None and node.pending == {}


class TestStepActed:
    def test_anchoring_a_first_window_counts_as_acting(self):
        """Anchoring passes over the heights below the first window unread,
        so events there stop counting as unscanned: the step acted, though
        the window holds no event and nothing is sent.  The next step, with
        nothing new confirmed, did not."""
        node = witness_node(height=25)
        view = RecordingView()
        assert node.step(view, 1)
        assert not any(watch.cursor.first_time for watch in node.watches)
        assert view.sent == [] and node.pending == {}
        assert not node.step(view, node.wake)


class TestDueRule:
    """A pending vote goes out on the first step after it is queued or its
    round moves, and again only once ``timeout`` has passed since it went."""

    def step(self, node, view, ticks):
        """The ticks at which ``step`` reports that it acted."""
        acted = []
        for tick in ticks:
            view.tick = tick
            if node.step(view, tick):
                acted.append(tick)
        return acted

    def test_a_vote_is_resent_at_timeout_and_sent_at_once_in_an_adopted_round(self):
        node = witness_node()
        genesis = gasless_genesis()
        view = RecordingView()
        deposit = Event(node.config.bridge_head, EventTopic.CROSS_CHAIN_ARRIVED,
                        {"kind": "transfer", "to": Address.from_label("dest"), "value": 70},
                        height=5, tx_index=0, seq=0)
        node._handle_token_event(view, deposit)
        assert self.step(node, view, [10]) == [10]
        [(tick, chain_id, tx)] = view.sent
        # Inbound relays go to the gasless chain's SC_Inter.
        assert (tick, chain_id, tx.to, tx.round) == (10, genesis.chain_id,
                                                     genesis.inter_contract, 0)
        assert view.resends == []

        # Before the timeout of 50 a step has nothing to send: it does nothing.
        assert self.step(node, view, range(11, 60)) == []
        assert len(view.sent) == 1 and view.resends == []
        assert self.step(node, view, [60]) == [60]
        assert [(t, tx.round) for t, _, tx in view.sent[1:]] == [(60, 0)]
        assert view.resends == [(60, 0)]

        timeout = Event(genesis.inter_contract, EventTopic.CONSENSUS_RESULT,
                        {"stream": INBOUND, "origins": [], "duplicate": False, "round": 0,
                         "next_round": 3, "subject": b"", "success": False,
                         "error": "timeout"},
                        height=9, tx_index=0, seq=0)
        node._handle_side_event(view, timeout)
        self.step(node, view, [61])
        assert [(t, tx.round) for t, _, tx in view.sent[2:]] == [(61, 3)]
        assert view.resends == [(60, 0)]
        self.step(node, view, range(62, 111))
        assert len(view.sent) == 3
        self.step(node, view, [111])
        assert [(t, tx.round) for t, _, tx in view.sent[3:]] == [(111, 3)]
        assert view.resends == [(60, 0), (111, 3)]


class TestSubmissionOrder:
    def test_the_confirm_goes_first_then_relays_by_target_text_and_lane(self):
        """One step sends every due vote: the confirm first, then the relay
        batches by their target's text and then by lane, whatever order they
        were queued in."""
        node = witness_node()
        cfg, genesis = node.config, node.config.genesis

        class View(RecordingView):
            def fetch_genesis(self, witness, chain_id):
                return genesis

            def registry_ids(self):
                return set()

            def side_height(self, chain_id):
                return 0

        view = View()
        transfer = {"to": Address.from_label("dest"), "value": 70}
        for handle, ev in [
            (node._handle_side_event, Event(genesis.bank_contract, EventTopic.ASSETS_LOCKED,
                                            transfer, height=3, tx_index=0, seq=0)),
            (node._handle_side_event, Event(genesis.inter_contract,
                                            EventTopic.CROSS_CHAIN_ARRIVED,
                                            transfer, height=4, tx_index=0, seq=0)),
            (node._handle_token_event, Event(cfg.bridge_head, EventTopic.CROSS_CHAIN_ARRIVED,
                                             {"kind": "transfer", **transfer},
                                             height=4, tx_index=0, seq=0)),
            (node._handle_token_event, registration_request(genesis)),
            (node._handle_token_event, Event(cfg.registry, EventTopic.EXIST_OR_NOT,
                                             {"chain_id": genesis.chain_id, "success": True},
                                             height=6, tx_index=0, seq=0)),
        ]:
            handle(view, ev)
        assert node.step(view, 10)
        relays = sorted([(cfg.bridge_head, OUTBOUND), (genesis.inter_contract, OUTBOUND),
                         (genesis.inter_contract, INBOUND),
                         (genesis.register_contract, REGISTRATION)],
                        key=lambda lane: (str(lane[0]), lane[1]))
        # The confirm is first by its kind, not by its target's text.
        assert relays[-1] == (cfg.bridge_head, OUTBOUND)
        assert [(tx.to, getattr(tx.payload, "direction", "confirm")) for _, _, tx in view.sent] \
            == [(cfg.bridge_head, "confirm")] + relays
        assert [chain_id for _, chain_id, _ in view.sent] == [
            node.token_chain_id if to == cfg.bridge_head else genesis.chain_id
            for to, _ in [(cfg.bridge_head, "confirm")] + relays]
