"""Immediate post-dominators: repro.isa.cfg against networkx.

``repro.isa.cfg`` computes dominators itself (Cooper-Harvey-Kennedy)
so that importing the package does not import networkx; networkx
stays the independent reference here.
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import BENCHMARK_CLASSES
from repro.isa import assemble
from repro.isa.cfg import EXIT_NODE, build_cfg, immediate_post_dominators


def reference(successors):
    graph = nx.DiGraph()
    graph.add_nodes_from(successors)
    graph.add_edges_from((node, target)
                         for node, targets in successors.items()
                         for target in targets)
    idom = nx.immediate_dominators(graph.reverse(), EXIT_NODE)
    return {node: dom for node, dom in idom.items() if node != EXIT_NODE}


@pytest.mark.parametrize("cls", BENCHMARK_CLASSES, ids=lambda c: c.name)
def test_every_benchmark_kernel(cls):
    for kernel in cls().kernels():
        ends, successors = build_cfg(kernel.instructions)
        assert set(ends) == set(successors) - {EXIT_NODE}
        assert immediate_post_dominators(successors) == \
            reference(successors), kernel.name


@st.composite
def cfgs(draw):
    """Successor lists over up to 12 blocks: any block may flow to any
    other, to itself or to the exit, so blocks nothing reaches,
    blocks that cannot reach the exit and loops without a way out all
    occur."""
    blocks = list(range(draw(st.integers(1, 12))))
    targets = st.lists(st.sampled_from(blocks + [EXIT_NODE]),
                       max_size=3, unique=True)
    successors = {block: draw(targets) for block in blocks}
    successors[EXIT_NODE] = []
    return successors


@given(cfgs())
@settings(max_examples=300, deadline=None)
def test_generated_graphs(successors):
    assert immediate_post_dominators(successors) == reference(successors)


def test_blocks_that_cannot_reach_the_exit_are_absent():
    # 0 -> 1 -> exit, 0 -> 2 <-> 3 (a loop with no way out)
    successors = {0: [1, 2], 1: [EXIT_NODE], 2: [3], 3: [2], EXIT_NODE: []}
    assert immediate_post_dominators(successors) == {0: 1, 1: EXIT_NODE}


def test_reconvergence_of_a_diamond_and_an_exitless_loop():
    diamond = assemble("""
        S2R R0, SR_TID_X
        ISETP.GE.AND P0, PT, R0, 4, PT
    @P0 BRA other
        MOV R1, 1
        BRA join
    other:
        MOV R1, 2
    join:
        MOV R2, R1
        EXIT
    """)
    assert [i.reconv_pc for i in diamond if i.may_diverge] == [6]
    loop = assemble("""
    top:
        S2R R0, SR_TID_X
        ISETP.GE.AND P0, PT, R0, 4, PT
    @P0 BRA top
        BRA top
        EXIT
    """)
    # the loop never reaches the exit: reconverge at the sentinel
    assert [i.reconv_pc for i in loop if i.may_diverge] == [len(loop)]
