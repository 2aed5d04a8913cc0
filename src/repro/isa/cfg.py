"""Control-flow analysis for assembled kernels.

The SIMT front-end needs a reconvergence point for every branch that can
split a warp.  Like GPGPU-Sim's PDOM mechanism, we reconverge at the
*immediate post-dominator* of the branch's basic block: the earliest
instruction through which every diverged path must pass again.

The assembler calls :func:`attach_reconvergence` after resolving branch
targets; it builds the CFG over basic blocks, computes immediate
post-dominators (dominators of the reversed graph, by the iterative
algorithm of Cooper, Harvey and Kennedy -- kernels have a few dozen
blocks) and writes ``reconv_pc`` into each potentially-divergent branch.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.isa.instruction import Instruction

#: Virtual CFG node representing "after the last instruction".
EXIT_NODE = -1


def basic_block_starts(instructions: Sequence[Instruction]) -> List[int]:
    """Return the sorted PCs at which basic blocks begin.

    A block begins at PC 0, at every branch target, and after every
    branch or EXIT instruction.
    """
    starts = {0}
    for inst in instructions:
        if inst.is_branch:
            starts.add(inst.target_pc)
            if inst.pc + 1 < len(instructions):
                starts.add(inst.pc + 1)
        elif inst.is_exit and inst.pc + 1 < len(instructions):
            starts.add(inst.pc + 1)
    return sorted(starts)


def build_cfg(instructions: Sequence[Instruction]
              ) -> Tuple[Dict[int, int], Dict[int, List[int]]]:
    """Build the basic-block CFG of a kernel.

    Returns ``(ends, successors)``, both keyed by block-start PC:
    ``ends`` gives each block's last PC (inclusive), ``successors`` the
    blocks control can flow to.  Edges follow fallthrough and
    branch-target flow; an unguarded EXIT (or falling off the end)
    flows to the virtual :data:`EXIT_NODE`, which is a key of
    ``successors`` (with none of its own) but not of ``ends``.
    """
    starts = basic_block_starts(instructions)
    n = len(instructions)
    ends: Dict[int, int] = {}
    successors: Dict[int, List[int]] = {EXIT_NODE: []}
    for i, start in enumerate(starts):
        end = (starts[i + 1] - 1) if i + 1 < len(starts) else n - 1
        ends[start] = end
        last = instructions[end]
        fall = starts[i + 1] if i + 1 < len(starts) else EXIT_NODE
        if last.is_branch:
            flow = [last.target_pc]
            if last.may_diverge:
                flow.append(fall)
        elif last.is_exit:
            flow = [EXIT_NODE]
            if last.guard is not None and fall != EXIT_NODE:
                flow.append(fall)
        else:
            flow = [fall]
        successors[start] = list(dict.fromkeys(flow))
    return ends, successors


def immediate_post_dominators(successors: Dict[int, List[int]]
                              ) -> Dict[int, int]:
    """Map each block-start PC to the start PC of its immediate post-dominator.

    Computed as immediate dominators of the reversed CFG rooted at the
    virtual exit node.  Blocks that cannot reach the exit (e.g. a
    deliberate infinite loop) are absent from the result.
    """
    predecessors: Dict[int, List[int]] = {node: [] for node in successors}
    for node, targets in successors.items():
        for target in targets:
            predecessors[target].append(node)
    # postorder of the reversed graph from the exit: the blocks that
    # can reach it, the exit last
    postorder: List[int] = []
    seen = {EXIT_NODE}
    stack = [(EXIT_NODE, iter(predecessors[EXIT_NODE]))]
    while stack:
        node, pending = stack[-1]
        for nxt in pending:
            if nxt not in seen:
                seen.add(nxt)
                stack.append((nxt, iter(predecessors[nxt])))
                break
        else:
            stack.pop()
            postorder.append(node)
    number = {node: index for index, node in enumerate(postorder)}
    idom = {EXIT_NODE: EXIT_NODE}

    def intersect(a: int, b: int) -> int:
        while a != b:
            while number[a] < number[b]:
                a = idom[a]
            while number[b] < number[a]:
                b = idom[b]
        return a

    changed = True
    while changed:
        changed = False
        for node in reversed(postorder[:-1]):
            # a block's predecessors in the reversed graph are its
            # successors; those that cannot reach the exit never enter
            new = None
            for succ in successors[node]:
                if succ in idom:
                    new = succ if new is None else intersect(succ, new)
            if idom.get(node) != new:
                idom[node] = new
                changed = True
    del idom[EXIT_NODE]
    return idom


def attach_reconvergence(instructions: Sequence[Instruction]) -> None:
    """Annotate every potentially-divergent branch with its reconvergence PC.

    ``reconv_pc`` is the first instruction of the branch block's
    immediate post-dominator, or ``len(instructions)`` (a sentinel PC
    one past the end, never executed) when the paths only rejoin at
    thread exit.
    """
    if not instructions:
        return
    ends, successors = build_cfg(instructions)
    ipdom = immediate_post_dominators(successors)
    sentinel = len(instructions)
    block_of_pc = {}
    for start, end in ends.items():
        for pc in range(start, end + 1):
            block_of_pc[pc] = start
    for inst in instructions:
        if not inst.is_branch or not inst.may_diverge:
            continue
        block = block_of_pc[inst.pc]
        dom = ipdom.get(block, EXIT_NODE)
        inst.reconv_pc = sentinel if dom == EXIT_NODE else dom
