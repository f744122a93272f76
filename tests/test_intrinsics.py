"""Runtime-helper intrinsics (``repro.msp430.intrinsics``).

The ``__udivmod`` and ``__mulhi`` loop blocks run as native models
instead of generated code.  Pinned here:

* the byte table matches the assembled runtime, and each entry's cycle
  and instruction constants match the loop block the superblock
  compiler builds from those bytes;
* each model equals the generic generated loop on boundary operands
  and on 100 k random register states per helper — including budgets
  that end the loop early and entry in the middle of the loop;
* whole helper calls equal step mode, and the models really run in
  block mode;
* trace hooks and memory observers turn them off, as they turn off
  every superblock.
"""

import random

import pytest

from repro.asm.assembler import assemble
from repro.asm.linker import Linker, LinkScript
from repro.cc.runtime import runtime_asm
from repro.fuzz.generator import FuzzProgram, Item
from repro.fuzz.harness import FuzzMachine, build_image, run_differential
from repro.msp430.cpu import Cpu, _codegen
from repro.msp430.intrinsics import INTRINSICS, intrinsic_for, \
    is_intrinsic
from repro.msp430.memory import Memory
from repro.ports import DONE_PORT

BASE = 0x4400
#: loop label -> helper, for both modeled loops
LOOPS = {".div_loop": "__udivmod", ".mul_loop": "__mulhi"}
BOUNDARY = (0, 1, 2, 0x7FFF, 0x8000, 0x8001, 0xFFFE, 0xFFFF)


def _loop_block(label):
    """Compile the loop block at ``label`` of the runtime linked at
    :data:`BASE`."""
    obj = assemble(runtime_asm(), name="runtime")
    script = LinkScript()
    script.region("code", BASE, 0xFF7F)
    script.place_rule("*", "code")
    image = Linker(script).place([obj]).resolve()
    memory = Memory()
    image.load_into(memory)
    cpu = Cpu(memory)
    memory._refresh_permissions()
    return cpu._compile_block(obj.sections[".text"].address
                              + obj.symbols[label].offset)


@pytest.fixture(scope="module", params=sorted(LOOPS))
def loop(request):
    blk = _loop_block(request.param)
    return request.param, blk, _codegen(blk), intrinsic_for(blk)


class _Counters:
    def __init__(self):
        self.cycles = 0
        self.instructions = 0


def _run(fn, blk, regs, limit):
    r = [0] * 16
    r[0] = blk.start
    r[1] = 0x2000
    r[2], r[12], r[13], r[14], r[15] = regs
    c = _Counters()
    fn(c, r, None, limit)
    return r, c.cycles, c.instructions


def _assert_same(loop, regs, limit):
    _label, blk, generated, native = loop
    expect = _run(generated, blk, regs, limit)
    assert _run(native, blk, regs, limit) == expect, (regs, limit)


class TestByteTable:
    def test_table_matches_the_assembled_runtime(self):
        for label in LOOPS:
            blk = _loop_block(label)
            assert blk.loop and blk.pure
            entry = INTRINSICS.get(blk.code)
            assert entry is not None, label
            skip = [s[4] for s in blk.steps if s[4] is not None]
            assert len(skip) == 1 and skip[0][0] == "skip"
            assert entry[1:] == (blk.cycles, blk.count,
                                 skip[0][3], skip[0][4])
        assert len(INTRINSICS) == len(LOOPS)

    def test_other_bytes_keep_generated_code(self):
        blk = _loop_block(".shl_loop")        # __ashlhi: not modeled
        assert blk.loop
        assert intrinsic_for(blk) is None
        div = _loop_block(".div_loop")
        div.code = div.code[:-1] + b"\x22"    # a different branch
        assert intrinsic_for(div) is None

    def test_marked_as_intrinsic(self, loop):
        _label, _blk, generated, native = loop
        assert is_intrinsic(native)
        assert not is_intrinsic(generated)


class TestExactness:
    def test_boundary_operands(self, loop):
        label = loop[0]
        counters = (16, 15, 1, 0, 17) if label == ".div_loop" \
            else (0, 1, 0x8000, 0xFFFF)
        for a in BOUNDARY:
            for b in BOUNDARY:
                for k in counters:
                    # R15: the remainder (udivmod) or unused (mulhi)
                    for r15 in (0, 1, b - 1 & 0xFFFF, 0xFFFF):
                        for sr in (0, 0x010F):
                            for limit in (1, 3, 16, 17):
                                _assert_same(loop, (sr, a, b, k, r15),
                                             limit)

    def test_normal_entry_states(self, loop):
        """The states the helpers enter their loop blocks with: a
        first iteration already done, remainder below the divisor."""
        label = loop[0]
        rnd = random.Random(7)
        for _ in range(2000):
            a, b = rnd.randrange(0x10000), rnd.randrange(0x10000)
            if label == ".div_loop":
                b = b or 1
                regs = (0, a, b, 15, rnd.randrange(b))
            else:
                regs = (0, a, b, rnd.randrange(0x10000), 0)
            _assert_same(loop, regs, 10_000)

    def test_random_states(self, loop):
        """100 k random register states: mid-loop counters, remainders
        at or above the divisor, and budgets that cut the loop short."""
        rnd = random.Random(loop[0])
        label = loop[0]
        for _ in range(100_000):
            regs = [rnd.randrange(0x10000) for _ in range(5)]
            if label == ".div_loop":
                regs[3] = rnd.randrange(1, 20)     # bounded counter
                if rnd.random() < 0.5:
                    regs[2] = rnd.choice((0, 1, rnd.randrange(0x8001)))
            _assert_same(loop, tuple(regs), rnd.randrange(1, 24))


def _helper_program(calls, seed=1):
    """Call each ``(helper, a, b)`` and store R12/R15 to scratch."""
    items = []
    for i, (helper, a, b) in enumerate(calls):
        slot = 0x9000 + 4 * i
        items.append(Item("insn", [f"    MOV #0x{a:04X}, R12",
                                   f"    MOV #0x{b:04X}, R13",
                                   f"    CALL #{helper}",
                                   f"    MOV R12, &0x{slot:04X}",
                                   f"    MOV R15, &0x{slot + 2:04X}"]))
    items.append(Item("halt", [f"    MOV #1, &0x{DONE_PORT:04X}"]))
    return FuzzProgram(seed=seed, items=items)


HELPERS = ("__udivmod", "__mulhi", "__divhi", "__remhi")


class TestAgainstStepMode:
    @pytest.mark.parametrize("helper", HELPERS)
    def test_boundary_calls_match_step_mode(self, helper):
        operands = (0, 1, 0x7FFF, 0x8000, 0xFFFF, 3, 10)
        program = _helper_program(
            [(helper, a, b) for a in operands for b in operands])
        for chunk in (7, 61, 256):
            result = run_differential(program, chunk=chunk,
                                      max_instructions=100_000)
            assert result.ok, result.describe()
            assert result.outcome == ("halted",)

    def test_block_mode_runs_the_models(self):
        calls = [(helper, 1000 + 7 * i, 3 + i)
                 for i in range(4) for helper in HELPERS]
        program = _helper_program(calls)
        machine = FuzzMachine(program, build_image(program),
                              step_only=False)
        assert machine.advance(100_000) == ("halted",)
        modeled = [blk for blk in machine.cpu._blocks.values()
                   if blk.fn is not None and is_intrinsic(blk.fn)]
        assert sorted(blk.code for blk in modeled) == sorted(INTRINSICS)

    def test_trace_hook_and_observers_turn_them_off(self):
        calls = [("__udivmod", 5000 + i, 7) for i in range(6)]
        program = _helper_program(calls)
        image = build_image(program)
        traced = FuzzMachine(program, image, step_only=False)
        seen = []
        traced.cpu.trace_hook = lambda pc, insn: seen.append(pc)
        watched = FuzzMachine(program, image, step_only=False)
        watched.memory.add_observer(lambda *access: None)
        for machine in (traced, watched):
            assert machine.advance(100_000) == ("halted",)
            assert not machine.cpu._blocks
        assert len(seen) == traced.cpu.instructions
        reference = FuzzMachine(program, image, step_only=True)
        reference.advance(100_000)
        assert traced.snapshot() == watched.snapshot() \
            == reference.snapshot()
