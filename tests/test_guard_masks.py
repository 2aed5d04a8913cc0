"""A guarded issue's lanes through the guard memo are the direct algebra.

``repro.sim.core.guard_masks`` remembers, per (active lanes, guard
predicate row of every column, polarity), the per-column execution
mask, column 0's, whether it has a lane, a branch's fall-through lanes
and whether they have one.  Hypothesis generates active lanes, a guard
row for one or three columns and the polarity; each case is asked on a
cold memo and again on the warm one, beside the same lanes under the
other polarity and with the other columns changed -- everything the
key must hold.  A divergent branch issued on those lanes pushes stack
entries that own their masks: the injector flips bits in them in
place, and the memo must not see it.
"""

import numpy as np
from hypothesis import example, given, strategies as st

from repro.isa.assembler import assemble
from repro.sim.core import _GUARDS, IssuePlan, guard_masks
from repro.sim.gpu import GPU
from repro.sim.warp import StackEntry, Warp
from tests.conftest import generated, tiny_config

FULL = (1 << 32) - 1
#: ``@P0 BRA`` and ``@!P0 BRA`` around an if / else
BRANCHES = {negate: IssuePlan(assemble(f"""
@{'!P0' if negate else 'P0'} BRA other
    MOV R1, 1
    BRA done
other:
    MOV R1, 2
done:
    EXIT
""")[0]) for negate in (False, True)}


def bits(value: int) -> np.ndarray:
    return np.array([value >> lane & 1 for lane in range(32)], dtype=bool)


def direct(active, guard, negate):
    """What an issue computed before the memo."""
    taken = ~guard if negate else guard
    exec_mask = active & taken
    fall = active & ~taken[0]
    return (exec_mask, exec_mask[0], bool(exec_mask[0].any()), fall,
            bool(fall.any()))


def assert_masks(got, want):
    assert len(got) == len(want)
    for value, expected in zip(got, want):
        if isinstance(expected, bool):
            assert value is expected
        else:
            assert value.shape == expected.shape
            assert np.array_equal(value, expected)
            assert not value.flags.writeable, "a shared mask is writeable"


def issue_branch(active, guard, negate):
    """Issue the guarded branch on a warp with these lanes; returns
    the warp."""
    gpu = GPU(tiny_config())
    gpu.stats.begin_launch("branch", 0, 1)
    warp = Warp(0, 32, 8, 0, cta=None, age=0, ncols=len(guard))
    warp.preds[0] = guard
    warp.stack = [StackEntry(0, active.copy(), -1)]
    gpu.cores[0]._issue(warp, BRANCHES[negate], 0)
    return warp


lanes = st.sampled_from([FULL, 0, 0xFFFF, 0xAAAAAAAA, 1 << 31]) \
    | st.integers(0, FULL)


@given(active_bits=lanes, rows=st.lists(lanes, min_size=3, max_size=3),
       ncols=st.sampled_from([1, 3]), negate=st.booleans())
@generated(40)
# every lane active: the polarity decides every lane
@example(active_bits=FULL, rows=[0xFFFF, 0, FULL], ncols=1, negate=False)
# the columns past 0 differ from the changed ones on every lane
@example(active_bits=FULL, rows=[0xFFFF, 0, FULL], ncols=3, negate=True)
def test_guard_masks_are_the_direct_algebra(active_bits, rows, ncols,
                                            negate):
    active = bits(active_bits)
    guard = np.array([bits(row) for row in rows[:ncols]])
    other = guard.copy()
    other[1:] = ~other[1:]  # column 0 the same, the others changed
    cases = [(guard, negate), (guard, not negate), (other, negate)]
    _GUARDS.clear()
    for _ in ("cold", "warm"):
        for row, polarity in cases:
            assert_masks(guard_masks(active, row, polarity),
                         direct(active, row, polarity))
    _, exec0, any0, fall, any_fall = guard_masks(active, guard, negate)
    if not (any0 and any_fall):
        return
    warp = issue_branch(active, guard, negate)
    taken, fallen = warp.stack[-1], warp.stack[-2]
    assert np.array_equal(taken.mask, exec0)
    assert np.array_equal(fallen.mask, fall)
    for entry in (taken, fallen):
        lane = int(np.argmax(entry.mask))
        entry.mask[lane] ^= True  # as the injector flips a stack bit
    assert_masks(guard_masks(active, guard, negate),
                 direct(active, guard, negate))
