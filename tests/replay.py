"""The full-replay oracle, written apart from the chain's undo journal.

A chain keeps no image of its genesis, so a test rebuilds the genesis with
its own builder and applies the surviving blocks to it.  The rebuilt state
must equal the state that rollbacks and reorgs left in place.
"""


def replay(fresh, chain):
    """``fresh``, built as ``chain`` was, after applying ``chain``'s blocks
    above ``fresh``'s height with their ticks; returns ``fresh``."""
    for block in chain.blocks[fresh.height + 1:]:
        fresh.apply_block(block.transactions, now=block.produced_at)
    return fresh
