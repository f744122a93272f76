"""The inline bus fast path of generated superblocks.

Memory-touching blocks read and write plain RAM words straight from
the backing bytes when the bus's fast map allows it, and call the bus
otherwise.  Every case where the answer changes mid-run must stay
identical to step mode:

* an I/O port registered after the first dispatch;
* a write hook or memory observer attached mid-run;
* a block storing into a page that holds cached code;
* an MPU denial on an inlined access (same fault PC and address, same
  MPUCTL1 flags).
"""

from repro.fuzz.generator import FuzzProgram, Item
from repro.fuzz.harness import FuzzMachine, build_image, run_differential
from repro.msp430.memory import FAST_SHIFT, Memory, _fast_map
from repro.ports import DONE_PORT

HALT = Item("halt", [f"    MOV #1, &0x{DONE_PORT:04X}"])
#: a free peripheral word for the tests' own I/O ports
PORT = 0x0180
SRAM = 0x2000


def _program(lines, **mpu):
    items = [Item("insn", [line]) if not line.endswith(":")
             else Item("anchor", [line]) for line in lines]
    return FuzzProgram(seed=1, items=items + [HALT], **mpu)


def _pair(program):
    image = build_image(program)
    return (FuzzMachine(program, image, step_only=False),
            FuzzMachine(program, image, step_only=True))


#: a hot loop of plain word loads and stores into SRAM: R5 counts,
#: R6 walks a pointer, R7 holds the test port address
STORE_LOOP = [
    f"    MOV #0x{SRAM:04X}, R6",
    f"    MOV #0x{PORT:04X}, R7",
    "    MOV #40, R15",
    "loop:",
    "    MOV R5, 0(R6)",
    "    MOV R5, 0(R7)",
    f"    MOV &0x{SRAM:04X}, R8",
    "    ADD R8, 2(R6)",
    "    PUSH R5",
    "    POP R9",
    "    ADD #1, R5",
    "    DEC R15",
    "    JNE loop",
]


def _hot(machine):
    return [blk for blk in machine.cpu._blocks.values()
            if blk.fn is not None]


class TestFastPathEngages:
    def test_block_mode_skips_most_bus_calls(self, monkeypatch):
        calls = {"read": 0, "write": 0}
        read, write = Memory.read_word, Memory.write_word

        def counted_read(self, address, kind="read"):
            calls["read"] += 1
            return read(self, address, kind)

        def counted_write(self, address, value):
            calls["write"] += 1
            write(self, address, value)

        monkeypatch.setattr(Memory, "read_word", counted_read)
        monkeypatch.setattr(Memory, "write_word", counted_write)
        block, step = _pair(_program(STORE_LOOP))
        counts = []
        for machine in (block, step):
            calls.update(read=0, write=0)
            assert machine.advance(10_000) == ("halted",)
            counts.append(dict(calls))
        assert block.snapshot() == step.snapshot()
        assert block.memory._bytes == step.memory._bytes
        assert counts[0]["write"] * 4 < counts[1]["write"]
        assert counts[0]["read"] * 4 < counts[1]["read"]


class TestWiringChanges:
    def test_port_registered_after_first_dispatch(self):
        block, step = _pair(_program(STORE_LOOP))
        logs = []
        for machine in (block, step):
            assert machine.advance(60) == ("running",)
            log = []
            # the block already inlines this address as plain RAM
            machine.memory.add_io(
                SRAM, read=lambda log=log: log.append("r") or 0x1234,
                write=lambda a, v, log=log: log.append(v))
            assert machine.advance(10_000) == ("halted",)
            logs.append(log)
        assert _hot(block)
        assert logs[0] == logs[1] and logs[0]
        assert block.snapshot() == step.snapshot()
        assert block.memory._bytes == step.memory._bytes

    def _attach_on_port(self, machine, attach):
        """Port handler that attaches once, mid-block, on the tenth
        port write."""
        state = {"writes": 0}

        def on_write(_address, _value):
            state["writes"] += 1
            if state["writes"] == 10:
                attach(machine)
        machine.memory.add_io(PORT, write=on_write)

    def test_write_hook_attached_mid_run(self):
        block, step = _pair(_program(STORE_LOOP))
        seen = []
        for machine in (block, step):
            log = []
            seen.append(log)
            self._attach_on_port(machine, lambda m, log=log:
                                 m.memory.add_write_hook(
                                     lambda a, v: log.append((a, v))))
            assert machine.advance(10_000) == ("halted",)
        assert _hot(block)
        assert seen[0] == seen[1] and len(seen[0]) > 50
        assert block.snapshot() == step.snapshot()
        assert block.memory._bytes == step.memory._bytes

    def test_observer_attached_mid_run(self):
        block, step = _pair(_program(STORE_LOOP))
        seen = []
        for machine in (block, step):
            log = []
            seen.append(log)
            # like the ARP profiler: count data accesses
            self._attach_on_port(machine, lambda m, log=log:
                                 m.memory.add_observer(
                                     lambda a, kind, size: kind
                                     != "execute"
                                     and log.append((a, kind, size))))
            assert machine.advance(10_000) == ("halted",)
        assert seen[0] == seen[1] and len(seen[0]) > 50
        assert block.snapshot() == step.snapshot()

    def test_write_hook_removal_restores_the_fast_path(self):
        memory = Memory()
        fast = memory._fast
        granule = SRAM >> FAST_SHIFT
        hook = lambda a, v: None                     # noqa: E731
        memory.add_write_hook(hook)
        memory._refresh_permissions()
        assert memory._fast[granule] == 1            # read only
        memory.remove_write_hook(hook)
        memory._refresh_permissions()
        assert memory._fast is fast
        memory.add_io(SRAM, read=lambda: 0)
        memory._refresh_permissions()
        assert memory._fast[granule] == 0
        assert memory._fast[granule + 1] == 3
        # a granule is fast only when all its 16 bytes allow the
        # access (the advanced MPU grants windows at any even address)
        perm = bytearray(b"\x03" * 0x10000)
        perm[SRAM + 6] = 0x01
        mixed = _fast_map(bytes(perm), frozenset(), False)
        assert mixed[granule] == 1 and mixed[granule + 1] == 3
        # fast maps are interned like the bitmaps themselves
        other = Memory()
        other.add_io(SRAM, read=lambda: 0)
        other._refresh_permissions()
        assert other._fast is memory._fast


class TestSelfModifyingCode:
    def test_hot_block_rewrites_another_blocks_code(self):
        """A generated block rewrites the immediate of an instruction
        in another cached block — in the first word of a page, with no
        code on the page before — and a data word on a code page."""
        program = _program([
            "patch:",                        # CODE_BASE, page aligned
            "    ADD #0x1111, R5",
            "    TST R15",
            "    JNE back",
            "    MOV #30, R15",
            "    MOV #1, R8",
            "loop:",
            "    MOV R8, &patch+2",
            "    MOV R5, &data",
            "    ADD #3, R8",
            "    JMP patch",
            "back:",
            "    DEC R15",
            "    JNE loop",
            "    JMP done",
            "data:",
            "    JMP done",
            "done:",
        ])
        for chunk in (5, 64, 256):
            result = run_differential(program, chunk=chunk)
            assert result.ok, result.describe()
            assert result.outcome == ("halted",)
        block, _step = _pair(program)
        block.advance(10_000)
        assert _hot(block)

    def test_store_into_code_spilling_from_the_previous_page(self):
        """``CALL &abs`` (no superblock: it runs under ``step()``) sits
        at the end of one page with its operand word at the start of
        the next, which holds no other code.  A generated block
        rewrites that word; the decoded CALL must see it."""
        program = _program([
            "    JMP start",
            "    .space 60",
            "spill:",                        # page offset 62
            "    CALL &0x2000",
            "    .space 64",
            "start:",
            "    MOV #sub_a, &0x2000",
            "    MOV #sub_b, &0x2002",
            "    MOV #0x2000, R9",
            "    MOV #20, R15",
            "loop:",
            "    MOV R9, &spill+2",
            "    XOR #2, R9",
            "    JMP spill",
            "sub_a:",
            "    ADD #2, SP",
            "    ADD #1, R5",
            "    JMP back",
            "sub_b:",
            "    ADD #2, SP",
            "    ADD #100, R5",
            "back:",
            "    DEC R15",
            "    JNE loop",
        ])
        block, _step = _pair(program)
        # CALL &0x2000, operand word on the next page
        assert block.memory.dump(0x603E, 4) == bytes.fromhex("92120020")
        block.advance(10_000)
        assert block.cpu.regs.read(5) == 10 * 101
        assert _hot(block)
        for chunk in (5, 256):
            result = run_differential(program, chunk=chunk)
            assert result.ok, result.describe()
            assert result.outcome == ("halted",)

    def test_stores_next_to_code_pages(self):
        """Stores at the first bytes of pages after code (the bus's
        spill check) and in the code's last page, through pointers."""
        lines = ["    MOV #12, R15", "loop:"]
        for offset in (0, 2, 62, 64, 66, 126, 128, 130, 190, 192):
            lines.append(f"    MOV R15, &fuzz_tail+{offset}")
        lines += ["    MOV #fuzz_tail+64, R6",
                  "    ADD R15, 0(R6)",
                  "    MOV #fuzz_tail+200, SP",
                  "    PUSH R15",
                  "    CALL #__mulhi",
                  "    POP R7",
                  "    DEC R15",
                  "    JNE loop"]
        for chunk in (9, 256):
            result = run_differential(_program(lines), chunk=chunk)
            assert result.ok, result.describe()
            assert result.outcome == ("halted",)


class TestMpuDenials:
    #: seg1 [FRAM, 0x8000) RWX, seg2 [0x8000, 0xA000) per test,
    #: seg3 RWX — the code at 0x6000 stays executable
    def _mpu(self, seg2_bits):
        return dict(mpu_segb1=0x0800, mpu_segb2=0x0A00,
                    mpu_sam=0x7707 | (seg2_bits << 4), mpu_ctl0=1)

    def _run(self, access, seg2_bits):
        program = _program([
            "    MOV #0x7FF0, R6",
            "    MOV #20, R15",
            "loop:",
            "    MOV R5, &0x2000",
            access,
            "    ADD #2, R6",
            "    DEC R15",
            "    JNE loop",
        ], **self._mpu(seg2_bits))
        block, step = _pair(program)
        outcomes = [machine.advance(10_000) for machine in (block, step)]
        assert outcomes[0] == outcomes[1]
        assert block.snapshot() == step.snapshot()
        assert _hot(block)
        return outcomes[0], block

    def test_inlined_store_denied(self):
        (kind, name, pc, address, _detail), block = self._run(
            "    MOV R5, 0(R6)", seg2_bits=0x1)       # read-only
        assert (kind, name, address) == ("fault", "MPU_VIOLATION",
                                         0x8000)
        assert block.mpu.ctl1 and block.mpu.violation_kind == "write"
        assert pc == 0x6000 + 4 + 4 + 4      # the store instruction

    def test_inlined_load_denied(self):
        (kind, name, pc, address, _detail), block = self._run(
            "    MOV 0(R6), R7", seg2_bits=0x2)       # write-only
        assert (kind, name, address) == ("fault", "MPU_VIOLATION",
                                         0x8000)
        assert block.mpu.violation_kind == "read"
        assert pc == 0x6000 + 4 + 4 + 4
