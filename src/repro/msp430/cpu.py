"""Fetch/decode/execute engine for the 16-bit MSP430 core.

The engine is cycle-counted using the architectural tables in
:mod:`repro.msp430.cycles`.  Memory-protection failures (bus errors on
unmapped holes, MPU violations) surface as :class:`CpuFault`, which the
kernel converts into the paper's ``FAULT()`` path.

Asynchronous interrupts are not modeled: none of the paper's
measurements involve interrupt latency, and the kernel delivers events
by starting the CPU at a dispatch gate instead (see
``repro.kernel.machine``).

Execution is driven by a precomputed dispatch table keyed by
:class:`~repro.msp430.isa.Opcode` — one handler method per opcode,
bound once per CPU instance — instead of if/elif chains, and operand
writeback uses plain ``(register, address)`` integers (``-1`` meaning
"not this kind") so the register fast path allocates nothing per step.
Decoded instructions are cached per 64-byte block; any memory write
invalidates the blocks it touches, so self-modifying code and
firmware reloads stay correct.

Two semantics, one reference
----------------------------

Each instruction's semantics is written twice, independently:

* the ``_op_*`` handlers, which :meth:`Cpu.step` — the **reference
  interpreter** — runs for every instruction, and
* the inline source lines of :func:`_inline_step`, the only thing
  generated superblocks run.

``step()`` never executes generated code and superblocks never call a
handler, so the block-vs-step differential tests (and ``repro fuzz``,
and ``--cache-mode step`` campaigns) check the fast path against a
reference that shares none of its code.

Superblocks
-----------

:meth:`Cpu.run` compiles straight-line runs of decoded instructions
into *superblocks*: one Python-level dispatch per block instead of one
``step()`` round trip per instruction.  A block is code-generated
when it is built.  It starts at the PC ``run`` reaches and extends
until the first

* jump, call, return or other PC write (included as the block's final
  instruction),
* instruction whose absolute operand hits a memory-mapped I/O port —
  kernel gates (service/done/fault ports), MPU registers, the cycle
  timer — (included as the final instruction, so ``run`` re-checks
  its guards right after the port access),
* instruction :func:`_inline_step` has no source lines for (DADD,
  memory-source ALU ops, CALL/PUSH through memory, RETI, rare operand
  shapes), which ``step()`` runs, or
* the 64-instruction block-size cap.

Blocks come in two flavours, decided by a compile-time "may touch
memory" summary: **pure** blocks (register-only steps, optionally a
final jump) skip *all* per-instruction bookkeeping — the PC, cycle and
instruction counters are written once per block — while **memory**
blocks keep the architectural counters and PC exact around every
step that can observe them, so I/O read handlers (the cycle timer),
fault PCs, and pending service faults observe bit-identical state to
``step()``.

Memory blocks inline their word loads and stores: an access the bus's
*fast map* marks as plain RAM (permitted by the current MPU bitmap,
no I/O port, no write hook) — and, for a store, on a page without
cached code — reads or writes the backing ``bytearray`` directly.
Everything else calls ``Memory.read_word``/``write_word`` as a
handler would, so I/O ports, denials (errors and MPU violation
flags), write hooks and code invalidation keep their exact behaviour.

Two hot *loop* blocks — the shift-and-add loops of the runtime's
``__udivmod`` and ``__mulhi`` helpers, recognised by their verified
code bytes — run as native models instead of generated code (see
:mod:`repro.msp430.intrinsics`).

``run()`` only dispatches blocks when nothing needs per-instruction
observability: a ``trace_hook`` (debugger), a memory observer
(watchpoints, profilers), a pending fault, or a cycle/instruction
budget within one block of expiring all fall back to ``step()``, as
does setting :attr:`Cpu.block_mode` to ``False`` (the forced step-only
mode the differential tests compare against).  Invalidation rides the
icache write hook — a store into a block's PC range (including
block-straddling writes) kills the block — and MPU reconfiguration is
handled by revalidating each block's execute permission against the
bus's memoized permission bitmap: same bitmap object, no work; new
bitmap, one pass over the block's byte range.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, Optional, Tuple

from repro.errors import (
    DecodeError,
    MemoryAccessError,
    MpuViolationError,
    ReproError,
)
from repro.msp430 import cycles as cyc
from repro.msp430.decoder import decode
from repro.msp430.isa import (
    AddressingMode,
    Instruction,
    Opcode,
    Operand,
)
from repro.msp430.execcache import MAX_VARIANTS
from repro.msp430.intrinsics import intrinsic_for
from repro.msp430.memory import EXECUTE, FAST_SHIFT, Memory, PERM_X, \
    READ, WRITE
from repro.msp430.registers import Reg, RegisterFile, SR

_M = AddressingMode


class FaultKind(enum.Enum):
    MPU_VIOLATION = "mpu-violation"
    BUS_ERROR = "bus-error"
    DECODE_ERROR = "decode-error"


class CpuFault(ReproError):
    """A synchronous fault raised while executing an instruction."""

    def __init__(self, kind: FaultKind, pc: int, address: int,
                 detail: str = ""):
        self.kind = kind
        self.pc = pc
        self.address = address
        self.detail = detail
        super().__init__(
            f"{kind.value} at pc=0x{pc:04X} addr=0x{address:04X}"
            + (f": {detail}" if detail else "")
        )


class ExecutionLimitExceeded(ReproError):
    """``run`` hit its cycle or instruction budget without halting.

    The message states which budget tripped (cycles vs. instructions);
    the two limits are tracked separately."""


#: superblocks stop growing after this many instructions; ``run``'s
#: budget guard refuses to dispatch a block that could overshoot the
#: remaining budget, so blocks never blur ExecutionLimitExceeded.
_MAX_BLOCK_INSNS = 64

#: zero page-mask template (bulk invalidation resets the code mask)
_ZERO_MASK = bytes(1024)


class _Block:
    """One compiled superblock: a straight-line trace of decoded
    instructions fused into a single ``compile()``-generated function
    ``fn``.

    ``steps`` holds ``(pc, next_pc, cycles, may_store, jump, inline)``
    per instruction, where ``inline`` is the instruction's source lines
    from :func:`_inline_step` (kept for invalidation tests and
    diagnostics).  ``jump`` is ``None`` for straight-line steps and for
    a block-final jump (whose ``inline`` lines set the PC); mid-trace
    conditional jumps carry either ``("exit", cond, target)`` —
    compiled to an inline early return — or ``("skip", cond, n,
    cycles, count, target)`` — a forward jump re-joining the trace,
    compiled to a structured ``if`` around the ``n`` skipped steps.
    Three flavors of ``fn``:

    * **pure** — register-only steps (plus inline jumps and an
      optional final jump): ``fn(cpu, r, m)`` sets the PC once, runs
      the steps back to back, and adds the cycle/instruction totals
      in one batch (skip/exit paths adjust the batch with compile-time
      prefix constants).
    * **loop** — a pure block whose final jump targets its own start:
      ``fn(cpu, r, m, limit)`` iterates the whole block up to ``limit``
      times (the caller derives ``limit`` from the remaining budget),
      exiting as soon as the back-edge falls through or an inline exit
      is taken.
    * **memory** — anything that touches memory: ``fn(cpu, r, m)``
      maintains PC and both counters around every step that can
      observe them (so I/O read handlers such as the cycle timer see
      exactly the state ``step()`` would show) and re-checks
      halt/pending-fault/invalidation/observability after every store
      that goes through the bus (an inline plain-RAM store can change
      none of them).

    A loop block whose code bytes are a runtime-helper loop gets a
    native model with the loop contract as its ``fn`` instead (see
    :mod:`repro.msp430.intrinsics`).  ``fn`` is made when the block is
    built.

    ``cycles`` and ``count`` are the *full-path* totals (every step
    executed, nothing skipped) — upper bounds used for budget guards.

    ``perm_ok`` caches the bus permission bitmap (a memoized immutable
    ``bytes`` per MPU configuration, shared process-wide per
    configuration) this block was last execute-validated against —
    same object means the validation still holds, so an MPU
    reconfiguration only costs a re-scan for blocks whose permission
    signature actually changed.  ``pc_map`` maps each instruction's
    advanced PC back to its own PC so a fault raised inside ``fn`` is
    reported at the exact faulting instruction.

    A block is immutable once built (``perm_ok`` is a cache, not
    state), which is what lets the shared execution cache hand one
    block object to every device running the same firmware:
    invalidation is per-device (drop it from that CPU's view and bump
    that CPU's ``_code_version``), never a mutation of the block.
    """

    __slots__ = ("start", "end", "end_pc", "steps", "cycles", "count",
                 "pure", "loop", "perm_ok", "perm_ok2", "fn", "pc_map",
                 "code")

    def __init__(self, start: int, end: int, steps: tuple, pure: bool,
                 loop: bool, code: bytes):
        self.start = start
        self.end = end                  # one past the last code byte
        self.end_pc = steps[-1][1]      # pc after the last instruction
        self.steps = steps
        self.cycles = sum(s[2] for s in steps)
        self.count = len(steps)
        self.pure = pure
        self.loop = loop
        self.perm_ok = None
        self.perm_ok2 = None            # previous validation (see run)
        self.pc_map = {s[1]: s[0] for s in steps}
        self.code = code                # bytes compiled from (sharing)
        # a runtime-helper loop runs its native model, anything else
        # generated code
        self.fn = intrinsic_for(self) or _codegen(self)

    def adopt(self) -> "_Block":
        """A per-device shallow copy for shared-cache adoption: every
        heavy member (steps, pc_map, code, ``fn``) is shared by
        reference; only the ``perm_ok`` validation cache is private,
        so devices with different MPU configurations never thrash each
        other's re-validation of one shared block object."""
        nb = _Block.__new__(_Block)
        for name in _Block.__slots__:
            setattr(nb, name, getattr(self, name))
        nb.perm_ok = None
        nb.perm_ok2 = None
        return nb


def _codegen(blk: _Block):
    """Fuse a block's steps into one compiled Python function.

    The generated code inlines every PC value and cycle count as a
    constant and every instruction's :func:`_inline_step` lines, so
    executing a block costs one Python call — no per-instruction
    interpreter loop (tuple unpacking, index bookkeeping, budget and
    halt polling) and no per-instruction call.  The function reads
    nothing but its arguments: it is compiled with no globals.

    Conditional jumps inside the trace are emitted inline:

    * an **exit** jump returns with exact cycle/instruction prefix
      bookkeeping and the taken-target PC when taken, and falls
      through into the rest of the trace otherwise;
    * a **diamond** jump (forward skip whose target re-joins the
      trace) guards its skipped arm with a structured ``if``; the
      arm's cycle/instruction share is tracked in ``_sk``/``_skn``
      accumulators so batched bookkeeping stays exact on both paths.

    Jumps that *close* a block (an unconditional JMP, a loop back-edge,
    a forward jump whose target the trace never reached) are the
    block's final step: their lines move ``r[0]`` off the preset
    fall-through PC when taken.
    """
    steps = blk.steps
    has_diamond = any(s[4] is not None and s[4][0] == "skip"
                      for s in steps)
    pre_cyc = []                 # inclusive prefix sums for exits
    acc = 0
    for s in steps:
        acc += s[2]
        pre_cyc.append(acc)
    lines = []
    emit = lines.append
    if blk.pure:
        sk = " - _sk" if has_diamond else ""
        skn = " - _skn" if has_diamond else ""
        if blk.loop:
            # Pure self-loop (division inner loops, delay spins):
            # re-dispatching the same few-instruction block through
            # ``run()`` would cost more than the block body, so
            # iterate in place.  ``limit`` is the number of full
            # iterations the remaining cycle/instruction budget
            # allows (>= 1); the back-edge falling through — or any
            # inline exit taken — ends the loop early.
            emit("def _fn(c, r, m, limit):")
            emit("    n = 0")
            if has_diamond:
                emit("    _sk = 0")
                emit("    _skn = 0")
            emit("    while True:")
            base = "        "
            cyc_n = f"{blk.cycles} * n + "
            cnt_n = f"{blk.count} * n + "
        else:
            # Register-only straight line: no step can fault, halt,
            # or observe PC/counters, so set the PC once and batch
            # the bookkeeping after the fact.
            emit("def _fn(c, r, m):")
            if has_diamond:
                emit("    _sk = 0")
                emit("    _skn = 0")
            base = "    "
            cyc_n = cnt_n = ""
        emit(f"{base}r[0] = {blk.end_pc}")
        ind = base
        arm = 0                  # steps left in an open diamond arm
        for i, s in enumerate(steps):
            info = s[4]
            if info is None:
                for ln in s[5]:
                    emit(f"{ind}{ln}")
            elif info[0] == "skip":
                _, cond, nskip, skc, sks, _target = info
                emit(f"{ind}if {cond}:")
                emit(f"{ind}    _sk += {skc}")
                emit(f"{ind}    _skn += {sks}")
                emit(f"{ind}else:")
                ind += "    "
                arm = nskip
                continue
            else:                # ("exit", cond, target)
                emit(f"{ind}if {info[1]}:")
                emit(f"{ind}    c.cycles += {cyc_n}{pre_cyc[i]}{sk}")
                emit(f"{ind}    c.instructions += {cnt_n}{i + 1}{skn}")
                emit(f"{ind}    r[0] = {info[2]}")
                emit(f"{ind}    return")
            if arm:
                arm -= 1
                if arm == 0:
                    ind = ind[:-4]
        if blk.loop:
            emit(f"{base}n += 1")
            emit(f"{base}if r[0] != {blk.start} or n >= limit:")
            emit(f"{base}    break")
            emit(f"    c.cycles += {blk.cycles} * n{sk}")
            emit(f"    c.instructions += {blk.count} * n{skn}")
        else:
            emit(f"    c.cycles += {blk.cycles}{sk}")
            emit(f"    c.instructions += {blk.count}{skn}")
    else:
        # Memory-touching block: exact architectural state around
        # every step that can observe it.  A store may halt the
        # machine (DONE port), post a fault (FAULT port / service
        # handler), invalidate cached code — possibly this very block
        # (self-modifying code) — stale the permission bitmap (MPU
        # register), or attach an observer — each check mirrors what
        # ``step()`` + ``run()`` would do at that boundary.
        # Invalidation is detected through the *executing CPU's*
        # ``_code_version`` (sampled on entry) rather than a flag on
        # the block, so one device invalidating a block shared through
        # the execution cache never perturbs a sibling device
        # mid-flight.
        emit("def _fn(c, r, m):")
        emit("    _v = c._code_version")
        body = [ln for s in steps if s[5] is not None for ln in s[5]]
        if any("_fm[" in ln for ln in body):
            # inline bus fast path (see _ld/_st): the backing bytes,
            # the fast map matching the bitmap ``run`` refreshed
            # before this dispatch, and this CPU's code-page mask
            emit("    _mb = m._bytes")
            emit("    _fm = m._fast")
        if any("_s = 1" in ln for ln in body):
            emit("    _cp = c._code_pages")
            emit("    _s = 0")
        ind = "    "
        arm = 0
        # Consecutive register-only steps can neither fault, halt, nor
        # read the deferred PC, so their PC updates are unobservable
        # and their cycle/instruction bookkeeping batches into one
        # pending sum, flushed before the next step that can observe
        # it (a memory access, a jump, an arm boundary, the end of the
        # block).
        pend_c = pend_n = 0

        def flush():
            nonlocal pend_c, pend_n
            if pend_n:
                emit(f"{ind}c.cycles += {pend_c}")
                emit(f"{ind}c.instructions += {pend_n}")
                pend_c = pend_n = 0

        for i, s in enumerate(steps):
            _pc, next_pc, cyc_i, may_store, info, inline = s
            if info is not None and info[0] == "skip":
                _, cond, nskip, _skc, _sks, target = info
                flush()
                emit(f"{ind}r[0] = {next_pc}")
                emit(f"{ind}c.cycles += {cyc_i}")
                emit(f"{ind}c.instructions += 1")
                emit(f"{ind}if {cond}:")
                emit(f"{ind}    r[0] = {target}")
                emit(f"{ind}else:")
                ind += "    "
                arm = nskip
                continue
            if info is not None:             # ("exit", cond, target)
                flush()
                emit(f"{ind}r[0] = {next_pc}")
                emit(f"{ind}c.cycles += {cyc_i}")
                emit(f"{ind}c.instructions += 1")
                emit(f"{ind}if {info[1]}:")
                emit(f"{ind}    r[0] = {info[2]}")
                emit(f"{ind}    return")
            elif not may_store and not any("m." in ln or "r[0]" in ln
                                           for ln in inline):
                for ln in inline:
                    emit(f"{ind}{ln}")
                pend_c += cyc_i
                pend_n += 1
            else:
                flush()
                emit(f"{ind}r[0] = {next_pc}")
                for ln in inline:
                    emit(f"{ind}{ln}")
                emit(f"{ind}c.cycles += {cyc_i}")
                emit(f"{ind}c.instructions += 1")
                if may_store:
                    # a truthy return tells ``run`` a boundary event
                    # fired; a clean fall-through (None) provably left
                    # every post-dispatch guard unchanged, because
                    # only write handlers have side effects.  A store
                    # with a fast path checks only after a bus store.
                    g = ind
                    if any("_s = 1" in ln for ln in inline):
                        emit(f"{ind}if _s:")
                        g = ind + "    "
                        emit(f"{g}_s = 0")
                    emit(f"{g}if c.halted: return 1")
                    emit(f"{g}f = c._pending_fault")
                    emit(f"{g}if f is not None:")
                    emit(f"{g}    c._pending_fault = None")
                    emit(f"{g}    raise f")
                    emit(f"{g}if (c._code_version != _v"
                         " or m._perm_stale"
                         " or c.trace_hook is not None"
                         " or m._observers): return 1")
            if arm:
                arm -= 1
                if arm == 0:
                    if pend_n:
                        # the arm's batched tail never wrote the PC;
                        # leave it at the join, as the taken path does
                        emit(f"{ind}r[0] = {next_pc}")
                    flush()      # arm bookkeeping stays in its arm
                    ind = ind[:-4]
        if pend_n:
            emit(f"{ind}r[0] = {blk.end_pc}")
            flush()
    src = "\n".join(lines) + "\n"
    ns = {"__builtins__": {}}
    exec(compile(src, f"<superblock@0x{blk.start:04X}>", "exec"), ns)
    return ns["_fn"]


class Cpu:
    """The execution engine.

    Attributes of interest:

    * ``cycles`` -- architectural cycle counter (drives the experiments)
    * ``instructions`` -- retired instruction count
    * ``halted`` -- set by the kernel's DONE port or :meth:`halt`
    """

    def __init__(self, memory: Optional[Memory] = None):
        self.memory = memory if memory is not None else Memory()
        self.regs = RegisterFile()
        self.cycles = 0
        self.instructions = 0
        self.halted = False
        self.trace_hook: Optional[Callable[[int, Instruction], None]] = None
        # Raised mid-instruction by service handlers that must stop the
        # world (used by the kernel fault path).
        self._pending_fault: Optional[CpuFault] = None
        # Decoded-instruction cache, keyed by 64-byte page then PC.
        # Any memory write invalidates the entries it touches (so
        # self-modifying code and re-loads stay correct); firmware
        # never self-modifies, so in practice every instruction decodes
        # once.  Entries: pc -> (insn, size, cycles); ``step()``
        # executes ``insn`` through its per-opcode handler.
        # Entries are device-agnostic, so they can be published to and
        # pulled from the shared execution cache.
        self._icache: dict = {}
        # -- superblock layer ----------------------------------------
        #: False forces the pure ``step()`` interpreter; differential
        #: tests flip this to pin block mode against step mode.
        self.block_mode = True
        #: compiled superblocks, keyed by entry PC (this CPU's *view*;
        #: blocks may be private or pulled from the shared cache)
        self._blocks: Dict[int, _Block] = {}
        #: entry PCs where compilation declined (first instruction has
        #: no inline form, or a permission edge) — a
        #: negative cache so ``run`` doesn't retry every iteration.
        #: Never shared: some verdicts depend on this device's MPU
        #: permission edges, not on code bytes.
        self._no_block: set = set()
        #: 64-byte page -> entry PCs of blocks (and no-block markers)
        #: whose code bytes intersect that page; drives invalidation
        self._block_pages: Dict[int, set] = {}
        #: process-wide translation store for this firmware identity
        #: (see :meth:`attach_shared_cache`); None = fully private
        self._shared = None
        #: bumped whenever cached code is invalidated; memory-flavor
        #: superblocks sample it on entry and stop at the next store
        #: boundary when it moves (the in-flight half of invalidation)
        self._code_version = 0
        #: one byte per 64-byte page, nonzero when the page holds
        #: cached decoded code; shared by reference with the bus so
        #: plain data writes skip the invalidator call entirely
        self._code_pages = bytearray(1024)
        set_invalidator = getattr(self.memory, "set_invalidator", None)
        if set_invalidator is not None:
            set_invalidator(self._on_memory_write, self._code_pages)
        else:
            # Memory stand-ins without the fast-path slot: chain the
            # invalidator like any other write hook.
            self.memory.add_write_hook(self._on_memory_write)
        # Per-opcode handler methods, bound once.
        self._dispatch: Dict[Opcode, Callable[[Instruction], None]] = {
            opcode: getattr(self, name)
            for opcode, name in _HANDLER_NAMES.items()
        }

    def attach_shared_cache(self, store) -> None:
        """Share translations with sibling CPUs through ``store`` (a
        :class:`~repro.msp430.execcache.SharedExecutionCache` built
        from this machine's pristine firmware image).  Every publish
        and pull is byte-verified against the pristine image, so a
        device whose code has diverged (self-modifying stores,
        debugger pokes) silently falls back to private translation
        without poisoning its siblings."""
        self._shared = store

    def _on_memory_write(self, address: int, _value: int) -> None:
        # Only called (via the bus's mask gate) when the write may
        # touch cached code — or with address < 0 for bulk loads.
        if address < 0:
            self._icache.clear()      # bulk load
            self._blocks.clear()
            self._block_pages.clear()
            self._no_block.clear()
            self._code_version += 1   # stop any in-flight block
            self._code_pages[:] = _ZERO_MASK
            return
        # A write touches [address, address + 1] for word writes
        # (even-aligned, so both bytes share one page) and only
        # [address, address] for byte writes; the odd-address case
        # must stay exact or the range could appear to cross a page.
        lo = address
        hi = address if address & 1 else address + 1
        # Decoded entries are keyed by the page their first word is
        # in, but an instruction can extend into the next page — so
        # the preceding page's entries are candidates too.  Only
        # entries whose byte range actually overlaps the write die;
        # the page-sharing neighbours (the common case: app data
        # packed against the next app's code) survive.
        page = address >> 6
        icache = self._icache
        # an entry indexed under the previous page can reach at most 4
        # bytes into this one, so skip that scan for deeper offsets
        pages = (page - 1, page) if lo & 63 < 4 else (page,)
        for neighbour in pages:
            entries = icache.get(neighbour)
            if entries:
                stale = [pc for pc, entry in entries.items()
                         if pc <= hi and pc + entry[1] > lo]
                for pc in stale:
                    del entries[pc]
        # Superblocks (and no-block markers) are indexed under every
        # page their byte range intersects, so the write's own page
        # finds every candidate; precise range overlap decides.
        pcs = self._block_pages.get(page)
        if pcs:
            blocks = self._blocks
            no_block = self._no_block
            dead = []
            killed = False
            for pc in pcs:
                blk = blocks.get(pc)
                if blk is None:
                    # a no-block marker (or an index entry left behind
                    # by a kill via another page): cheap to re-learn
                    no_block.discard(pc)
                    dead.append(pc)
                elif blk.start <= hi and blk.end > lo:
                    del blocks[pc]
                    dead.append(pc)
                    killed = True
            if killed:
                self._code_version += 1
            for pc in dead:
                pcs.discard(pc)
            if not pcs:
                del self._block_pages[page]

    # -- small helpers ------------------------------------------------------
    def reset(self, pc: Optional[int] = None) -> None:
        self.regs = RegisterFile()
        self.cycles = 0
        self.instructions = 0
        self.halted = False
        if pc is None:
            pc = self.memory.read_word(self.memory.map.RESET_VECTOR)
        self.regs.pc = pc

    def halt(self) -> None:
        self.halted = True

    # -- snapshot/restore ---------------------------------------------------
    def state_dict(self) -> dict:
        """Architectural CPU state: register file plus the cycle and
        instruction counters.  The decoded-instruction cache and the
        compiled superblocks are *derived* state — they rebuild on
        demand after :meth:`load_state` — so they are not captured."""
        return {
            "regs": self.regs.snapshot(),
            "cycles": self.cycles,
            "instructions": self.instructions,
            "halted": self.halted,
        }

    def load_state(self, state: dict) -> None:
        self.regs.restore(state["regs"])
        self.cycles = state["cycles"]
        self.instructions = state["instructions"]
        self.halted = state["halted"]
        self._pending_fault = None

    def post_fault(self, fault: CpuFault) -> None:
        """Queue a fault to be raised at the end of the current step."""
        self._pending_fault = fault

    # -- operand evaluation ------------------------------------------------
    def _read_reg(self, n: int, byte: bool) -> int:
        value = self.regs.read(n)
        return value & 0xFF if byte else value

    def _load(self, address: int, byte: bool) -> int:
        if byte:
            return self.memory.read_byte(address)
        return self.memory.read_word(address)

    def _store(self, register: int, address: int, value: int,
               byte: bool) -> None:
        """Write back to register ``register`` (if >= 0) else memory."""
        if register >= 0:
            # Byte operations clear the destination's high byte.
            self.regs.write(register,
                            value & 0xFF if byte else value & 0xFFFF)
        elif byte:
            self.memory.write_byte(address, value)
        else:
            self.memory.write_word(address, value)

    def _effective_address(self, op: Operand) -> int:
        m = op.mode
        if m is _M.INDEXED:
            return (self.regs.read(op.register) + op.value) & 0xFFFF
        if m in (_M.SYMBOLIC, _M.ABSOLUTE):
            return op.value & 0xFFFF
        if m in (_M.INDIRECT, _M.AUTOINCREMENT):
            return self.regs.read(op.register)
        raise ReproError(f"operand mode {m} has no address")

    def _eval_source(self, op: Operand, byte: bool) -> int:
        m = op.mode
        if m is _M.REGISTER:
            return self._read_reg(op.register, byte)
        if m is _M.IMMEDIATE:
            return op.value & (0xFF if byte else 0xFFFF)
        address = self._effective_address(op)
        value = self._load(address, byte)
        if m is _M.AUTOINCREMENT:
            step = 1 if byte else 2
            self.regs.write(op.register,
                            self.regs.read(op.register) + step)
        return value

    def _eval_dest(self, op: Operand, byte: bool,
                   need_value: bool) -> Tuple[int, int, int]:
        """Returns ``(value, register, address)`` — ``register`` is -1
        for a memory destination, ``address`` is -1 for a register."""
        if op.mode is _M.REGISTER:
            register = op.register
            value = self._read_reg(register, byte) if need_value else 0
            return value, register, -1
        address = self._effective_address(op)
        value = self._load(address, byte) if need_value else 0
        return value, -1, address

    # -- ALU ----------------------------------------------------------------
    def _flags_add(self, src: int, dst: int, result: int,
                   byte: bool) -> int:
        mask = 0xFF if byte else 0xFFFF
        sign = 0x80 if byte else 0x8000
        out = result & mask
        self.regs.set_flag(SR.C, result > mask)
        self.regs.set_flag(SR.V,
                           bool(~(src ^ dst) & (src ^ out) & sign))
        self.regs.set_nz(out, byte)
        return out

    def _flags_sub(self, src: int, dst: int, carry_in: int,
                   byte: bool) -> int:
        """dst - src (+ carry-1 for SUBC); C means *no borrow*."""
        mask = 0xFF if byte else 0xFFFF
        sign = 0x80 if byte else 0x8000
        result = dst + ((~src) & mask) + carry_in
        out = result & mask
        self.regs.set_flag(SR.C, result > mask)
        self.regs.set_flag(SR.V,
                           bool((dst ^ src) & (dst ^ out) & sign))
        self.regs.set_nz(out, byte)
        return out

    def _logic_flags(self, out: int, byte: bool,
                     overflow: bool = False) -> None:
        self.regs.set_nz(out, byte)
        self.regs.set_flag(SR.C, out != 0)
        self.regs.set_flag(SR.V, overflow)

    @staticmethod
    def _dadd(src: int, dst: int, carry: int, byte: bool) -> Tuple[int, int]:
        digits = 2 if byte else 4
        out = 0
        for i in range(digits):
            d = ((src >> (4 * i)) & 0xF) + ((dst >> (4 * i)) & 0xF) + carry
            if d > 9:
                d -= 10
                carry = 1
            else:
                carry = 0
            out |= d << (4 * i)
        return out, carry

    # -- stack helpers ---------------------------------------------------------
    def _push(self, value: int) -> None:
        self.regs.sp = (self.regs.sp - 2) & 0xFFFF
        self.memory.write_word(self.regs.sp, value)

    def _pop(self) -> int:
        value = self.memory.read_word(self.regs.sp)
        self.regs.sp = (self.regs.sp + 2) & 0xFFFF
        return value

    # -- execution ------------------------------------------------------------
    def step(self) -> Instruction:
        """Execute one instruction through its per-opcode handler (the
        reference interpreter); returns it (for tracing)."""
        memory = self.memory
        r = self.regs._regs
        pc = r[0]
        page = self._icache.get(pc >> 6)
        entry = page.get(pc) if page is not None else None
        if entry is None and self._shared is not None:
            entry = self._pull_entry(pc)
        try:
            if entry is None:
                insn, size = decode(memory.fetch_word, pc)
                insn_cycles = cyc.instruction_cycles(insn)
                self._install_entry(pc, (insn, size, insn_cycles))
            else:
                insn, size, insn_cycles = entry
                # the decode is cached (or pulled from the shared
                # store), but execute *permission* must be
                # re-validated — the MPU config changes between
                # context switches.  Probe the flat permission bitmap
                # directly; fall back to the full walk on any miss.
                if not memory._supervisor_depth:
                    if memory._perm_stale:
                        memory._refresh_permissions()
                    perm = memory._perm
                    if perm is None or not perm[pc] & PERM_X:
                        memory._check_slow(pc, EXECUTE)
                    if size > 2:
                        last = pc + size - 1
                        if last > 0xFFFF or perm is None \
                                or not perm[last] & PERM_X:
                            memory._check_slow(last, EXECUTE)
        except MpuViolationError as exc:
            raise CpuFault(FaultKind.MPU_VIOLATION, pc, exc.address,
                           "instruction fetch") from exc
        except MemoryAccessError as exc:
            raise CpuFault(FaultKind.BUS_ERROR, pc, exc.address,
                           "instruction fetch") from exc
        except DecodeError as exc:
            raise CpuFault(FaultKind.DECODE_ERROR, pc, pc,
                           str(exc)) from exc

        r[0] = (pc + size) & 0xFFFF      # pc and size are both even
        if self.trace_hook is not None:
            self.trace_hook(pc, insn)
        try:
            self._dispatch[insn.opcode](insn)
        except MpuViolationError as exc:
            raise CpuFault(FaultKind.MPU_VIOLATION, pc, exc.address,
                           exc.kind) from exc
        except MemoryAccessError as exc:
            raise CpuFault(FaultKind.BUS_ERROR, pc, exc.address,
                           exc.kind) from exc

        self.cycles += insn_cycles
        self.instructions += 1
        if self._pending_fault is not None:
            fault, self._pending_fault = self._pending_fault, None
            raise fault
        return insn

    def run(self, max_cycles: int = 10_000_000,
            max_instructions: Optional[int] = None) -> int:
        """Run until :attr:`halted`; returns cycles consumed by this call.

        The loop dispatches compiled superblocks whenever exact
        per-instruction observability is not required, and falls back
        to :meth:`step` when a trace hook or memory observer is
        installed, a fault is pending, a budget is within one block of
        expiring, or :attr:`block_mode` is off.  Architectural state —
        cycles, instructions, fault PCs, halt points, budget errors —
        is bit-identical either way.
        """
        start = self.cycles
        start_insns = self.instructions
        cycle_limit = start + max_cycles
        insn_limit = (None if max_instructions is None
                      else start_insns + max_instructions)
        memory = self.memory
        step = self.step
        no_block = self._no_block
        while not self.halted:
            # -- superblock fast path --------------------------------
            # Guards re-checked only here: a *pure* block cannot
            # change any of them, and the post-dispatch check below
            # drops out of the tight loop as soon as a memory block
            # (or an inline step) does.
            if (self.block_mode and self.trace_hook is None
                    and self._pending_fault is None
                    and not memory._observers):
                if memory._perm_stale:
                    memory._refresh_permissions()
                perm = memory._perm
                if perm is not None:
                    regs = self.regs._regs
                    get = self._blocks.get
                    while True:
                        blk = get(regs[0])
                        if blk is None:
                            pc = regs[0]
                            if pc in no_block:
                                break
                            blk = self._compile_block(pc)
                            if blk is None:
                                break
                        if blk.perm_ok is not perm:
                            # MPU configuration changed since the last
                            # execute-validation of this block's range.
                            # Two validation slots: a device alternating
                            # between kernel and app bitmaps (context
                            # switches) revalidates each block twice,
                            # then hits a slot from there on.
                            if blk.perm_ok2 is perm or all(
                                    b & PERM_X
                                    for b in perm[blk.start:blk.end]):
                                blk.perm_ok2 = blk.perm_ok
                                blk.perm_ok = perm
                            else:
                                break        # step() raises the fault
                        if blk.loop:
                            iters = ((cycle_limit - self.cycles)
                                     // blk.cycles)
                            if insn_limit is not None:
                                j = ((insn_limit - self.instructions)
                                     // blk.count)
                                if j < iters:
                                    iters = j
                            if iters < 1:
                                break        # budget: step() raises
                            blk.fn(self, regs, memory, iters)
                            continue
                        if (self.cycles + blk.cycles > cycle_limit
                                or (insn_limit is not None
                                    and self.instructions + blk.count
                                    > insn_limit)):
                            break            # budget: step() raises
                        if blk.pure:
                            blk.fn(self, regs, memory)
                            continue
                        try:
                            if not blk.fn(self, regs, memory):
                                # no store-boundary event fired: reads
                                # have no side effects, so every
                                # post-dispatch guard is provably
                                # unchanged
                                continue
                        except MpuViolationError as exc:
                            raise CpuFault(
                                FaultKind.MPU_VIOLATION,
                                blk.pc_map[regs[0]],
                                exc.address, exc.kind) from exc
                        except MemoryAccessError as exc:
                            raise CpuFault(
                                FaultKind.BUS_ERROR,
                                blk.pc_map[regs[0]],
                                exc.address, exc.kind) from exc
                        if (self.halted
                                or self._pending_fault is not None
                                or self.trace_hook is not None
                                or memory._observers):
                            break
                        if memory._perm_stale:
                            # MPU reconfigured (context switch):
                            # rebind the permission bitmap and stay
                            # on the fast path — the block above
                            # retired instructions, so progress is
                            # guaranteed.
                            memory._refresh_permissions()
                            perm = memory._perm
                            if perm is None:
                                break
                    if self.halted:
                        break
            # -- exact per-instruction path --------------------------
            step()
            if self.cycles > cycle_limit:
                raise ExecutionLimitExceeded(
                    f"cycle budget: no halt after "
                    f"{self.cycles - start} cycles "
                    f"({self.instructions - start_insns} instructions) "
                    f"from pc=0x{self.regs.pc:04X}"
                )
            if insn_limit is not None and self.instructions > insn_limit:
                raise ExecutionLimitExceeded(
                    f"instruction budget: no halt after "
                    f"{self.instructions - start_insns} instructions "
                    f"({self.cycles - start} cycles) "
                    f"from pc=0x{self.regs.pc:04X}"
                )
        return self.cycles - start

    # -- shared execution cache ---------------------------------------------
    def _pull_entry(self, pc: int):
        """Adopt a decoded entry from the shared store, if some
        published variant's bytes match this device's memory; returns
        the entry or None."""
        shared = self._shared
        page = pc >> 6
        page_entries = shared.pages.get(page)
        if page_entries is None:
            return None
        variants = page_entries.get(pc)
        if variants is None:
            return None
        mem = self.memory._bytes
        for code, entry in variants:
            if mem[pc:pc + len(code)] == code:
                entries = self._icache.get(page)
                if entries is None:
                    entries = {}
                    self._icache[page] = entries
                    self._code_pages[page] = 1
                entries[pc] = entry
                shared.page_pulls += 1
                return entry
        shared.rejects += 1
        return None

    def _install_entry(self, pc: int, entry: tuple) -> None:
        """Cache a freshly decoded entry locally, and publish it
        (with the bytes it decodes) to the shared store.  Only called
        after :meth:`_pull_entry` missed, so a published variant is
        always new content."""
        page = pc >> 6
        entries = self._icache.get(page)
        if entries is None:
            entries = {}
            self._icache[page] = entries
            self._code_pages[page] = 1
        entries[pc] = entry
        shared = self._shared
        if shared is not None:
            variants = shared.pages.setdefault(page, {}) \
                .setdefault(pc, [])
            if len(variants) < MAX_VARIANTS:
                code = bytes(self.memory._bytes[pc:pc + entry[1]])
                variants.append((code, entry))
                shared.publishes += 1
            else:
                shared.rejects += 1

    # -- superblock compilation and execution -------------------------------
    def _compile_block(self, pc: int) -> Optional[_Block]:
        """Chain decoded instructions from ``pc`` into a superblock, or
        mark ``pc`` uncompilable.  Only instructions that
        :func:`_inline_step` gives source lines join a block; the first
        one without (call through memory, return from interrupt, DADD,
        a rare operand shape) ends it exclusive and runs in ``step()``,
        as does a non-executable byte.  A jump, a PC write, or an
        absolute operand on a registered I/O port (kernel gates, MPU
        registers, the cycle timer) ends it inclusive.  All fetches run
        under ``supervisor`` after probing the permission bitmap, so
        speculative compilation has no architecturally visible side
        effects (no MPU violation flags).
        """
        memory = self.memory
        shared = self._shared
        perm = memory._perm           # caller refreshed; never None here
        if shared is not None:
            # adopt a compiled block from the shared store when some
            # variant's recorded bytes match this device's memory AND
            # this device's MPU config marks the whole range
            # executable (otherwise a private, shorter compile honours
            # the permission edge).  The adopted object is a shallow
            # per-device copy: see _Block.adopt.
            variants = shared.blocks.get(pc)
            if variants:
                mem = memory._bytes
                for sb in variants:
                    if mem[sb.start:sb.end] == sb.code and \
                            all(b & PERM_X
                                for b in perm[sb.start:sb.end]):
                        blk = sb.adopt()
                        blk.perm_ok = perm
                        shared.block_pulls += 1
                        self._blocks[pc] = blk
                        mask = self._code_pages
                        for page in range(pc >> 6,
                                          (blk.end - 1 >> 6) + 1):
                            self._block_pages.setdefault(
                                page, set()).add(pc)
                            mask[page] = 1
                        return blk
        icache = self._icache
        io_ports = memory.io_addresses()
        steps = []
        pure = True
        loop = False
        cursor = pc
        end = pc
        diamond = None          # (step index, join pc) while open
        while len(steps) < _MAX_BLOCK_INSNS:
            if diamond is not None:
                di, join_pc = diamond
                if cursor == join_pc:
                    # forward jump's target reached on an instruction
                    # boundary: the steps since the jump are its
                    # skipped arm — rewrite the jump step into a
                    # structured skip with the arm's exact size
                    arm = steps[di + 1:]
                    p = steps[di]
                    steps[di] = (p[0], p[1], p[2], p[3],
                                 ("skip", p[4][1], len(arm),
                                  sum(s[2] for s in arm), len(arm),
                                  join_pc), None)
                    diamond = None
                elif cursor > join_pc:
                    break        # target inside an instruction: bail
            if cursor > 0xFFFE or not perm[cursor] & PERM_X:
                break
            page = icache.get(cursor >> 6)
            entry = page.get(cursor) if page is not None else None
            if entry is None and shared is not None:
                entry = self._pull_entry(cursor)
            if entry is None:
                try:
                    with memory.supervisor():
                        insn, size = decode(memory.fetch_word, cursor)
                except (DecodeError, MemoryAccessError):
                    break
                insn_cycles = cyc.instruction_cycles(insn)
                entry = (insn, size, insn_cycles)
                self._install_entry(cursor, entry)
            else:
                insn, size, insn_cycles = entry
            opcode = insn.opcode
            is_jump = opcode in _JUMP_OPCODES
            inline = None if is_jump else _inline_step(insn)
            if inline is None and not is_jump:
                break            # no fast form: step() runs it
            last = cursor + size - 1
            if last > 0xFFFF or not perm[last] & PERM_X:
                break
            src, dst = insn.src, insn.dst
            next_pc = (cursor + size) & 0xFFFF
            if _hits_io(src, io_ports) or _hits_io(dst, io_ports):
                # Gate/MPU/timer port operand: absorb it as the
                # block's *final* instruction.  Marking it a store
                # boundary makes the generated code emit the full
                # halt/pending-fault check suite right after the
                # access, and ending the block here hands control back
                # to ``run``'s guard re-checks — exactly the boundary
                # ``step()`` would give.  (Its port access itself goes
                # through the bus: the fast map never marks a port.)
                pure = False
                steps.append((cursor, next_pc, insn_cycles, True, None,
                              inline))
                end = cursor + size
                break
            # PUSH and CALL store through SP even though dst is None;
            # CMP and BIT only *read* their memory destination, so
            # they never need the post-store check suite
            stores = (opcode is Opcode.PUSH or opcode is Opcode.CALL
                      or (not is_jump and dst is not None
                          and dst.mode is not _M.REGISTER
                          and opcode is not Opcode.CMP
                          and opcode is not Opcode.BIT))
            # CALL / RETI / MOV-to-PC redirect control flow: keep them
            # as the block's final step, like jumps
            writes_pc = (opcode is Opcode.CALL or opcode is Opcode.RETI
                         or (dst is not None
                             and dst.mode is _M.REGISTER
                             and dst.register == 0))
            # register-only shapes that never touch memory nor read
            # the deferred PC are eligible for the pure
            # (batch-bookkeeping) executor
            if not is_jump:
                if stores or writes_pc:
                    pure = False
                elif not (dst is None
                          or (dst.mode is _M.REGISTER
                              and src.mode in (_M.REGISTER,
                                               _M.IMMEDIATE))):
                    pure = False
                elif (src is not None and src.mode is _M.REGISTER
                      and src.register == 0):
                    pure = False
            if is_jump:
                target = (next_pc + 2 * insn.offset) & 0xFFFF
                if opcode is not Opcode.JMP:
                    cond = _JUMP_CONDS[opcode]
                    if diamond is None:
                        if pure and target == pc:
                            # back-edge to the block's own start: close
                            # as an in-place loop (the generated
                            # function iterates until the jump falls
                            # through or the budget share is spent)
                            steps.append((cursor, next_pc, insn_cycles,
                                          False, None,
                                          [f"if {cond}: r[0] = {target}"]))
                            end = cursor + size
                            loop = True
                            break
                        if (target > next_pc
                                and len(steps) + 1 < _MAX_BLOCK_INSNS):
                            # forward skip: tentatively keep compiling
                            # the fallthrough as the jump's arm;
                            # resolved to a structured diamond when the
                            # target is reached, truncated otherwise
                            diamond = (len(steps), target)
                            steps.append((cursor, next_pc, insn_cycles,
                                          False, ("open", cond, target),
                                          None))
                            end = cursor + size
                            cursor = next_pc
                            continue
                    # backward / degenerate target (or a jump nested
                    # inside an open arm): inline early exit — taken
                    # returns with exact bookkeeping, fallthrough
                    # continues the trace
                    steps.append((cursor, next_pc, insn_cycles, False,
                                  ("exit", cond, target), None))
                    end = cursor + size
                    cursor = next_pc
                    continue
                # unconditional JMP closes the block inclusively; the
                # branch target is a compile-time constant
                steps.append((cursor, next_pc, insn_cycles, False, None,
                              [f"r[0] = {target}"]))
                end = cursor + size
                loop = pure and target == pc
                break
            steps.append((cursor, next_pc, insn_cycles, stores, None,
                          inline))
            end = cursor + size
            cursor = next_pc
            if writes_pc or next_pc < pc:    # redirect / wrapped
                break
        if diamond is not None:
            # the trace ended before the forward jump's target: drop
            # the tentative arm and close the block with the jump
            di = diamond[0]
            p = steps[di]
            _, cond, target = p[4]
            del steps[di + 1:]
            steps[di] = (p[0], p[1], p[2], p[3], None,
                         [f"if {cond}: r[0] = {target}"])
            end = p[0] + 2      # jump instructions are 2 bytes
            loop = False
        mask = self._code_pages
        if not steps:
            # nothing compilable at this pc (no inline form, or a
            # permission edge); remember the verdict and index it so
            # code writes re-enable compilation.  Even a
            # single-instruction block beats the step() fallback: the
            # tight dispatch loop skips the per-step guard checks.
            self._no_block.add(pc)
            for page in range(pc >> 6, (max(end, pc + 1) - 1 >> 6) + 1):
                self._block_pages.setdefault(page, set()).add(pc)
                mask[page] = 1
            return None
        blk = _Block(pc, end, tuple(steps), pure, loop,
                     bytes(memory._bytes[pc:end]))
        blk.perm_ok = perm     # every byte was execute-probed above
        self._blocks[pc] = blk
        for page in range(pc >> 6, (end - 1 >> 6) + 1):
            self._block_pages.setdefault(page, set()).add(pc)
            mask[page] = 1
        if shared is not None:
            # append-only content-addressed publish: adoption above
            # missed, so this block's (range, bytes) — or the
            # permission edge it honours — is new content
            variants = shared.blocks.setdefault(pc, [])
            if len(variants) < MAX_VARIANTS:
                variants.append(blk)
                shared.publishes += 1
            else:
                shared.rejects += 1
        return blk

    # -- per-opcode semantics ------------------------------------------------
    def _execute(self, insn: Instruction) -> None:
        """Dispatch one decoded instruction (tests / tools entry)."""
        self._dispatch[insn.opcode](insn)

    # jumps -------------------------------------------------------------------
    def _op_jmp(self, insn: Instruction) -> None:
        r = self.regs
        r.pc = (r.pc + 2 * insn.offset) & 0xFFFF

    def _op_jne(self, insn: Instruction) -> None:
        r = self.regs
        if not r.sr & SR.Z:
            r.pc = (r.pc + 2 * insn.offset) & 0xFFFF

    def _op_jeq(self, insn: Instruction) -> None:
        r = self.regs
        if r.sr & SR.Z:
            r.pc = (r.pc + 2 * insn.offset) & 0xFFFF

    def _op_jnc(self, insn: Instruction) -> None:
        r = self.regs
        if not r.sr & SR.C:
            r.pc = (r.pc + 2 * insn.offset) & 0xFFFF

    def _op_jc(self, insn: Instruction) -> None:
        r = self.regs
        if r.sr & SR.C:
            r.pc = (r.pc + 2 * insn.offset) & 0xFFFF

    def _op_jn(self, insn: Instruction) -> None:
        r = self.regs
        if r.sr & SR.N:
            r.pc = (r.pc + 2 * insn.offset) & 0xFFFF

    def _op_jge(self, insn: Instruction) -> None:
        r = self.regs
        sr = r.sr
        if bool(sr & SR.N) == bool(sr & SR.V):
            r.pc = (r.pc + 2 * insn.offset) & 0xFFFF

    def _op_jl(self, insn: Instruction) -> None:
        r = self.regs
        sr = r.sr
        if bool(sr & SR.N) != bool(sr & SR.V):
            r.pc = (r.pc + 2 * insn.offset) & 0xFFFF

    # format II ----------------------------------------------------------------
    def _op_reti(self, insn: Instruction) -> None:
        r = self.regs
        r.sr = self._pop()
        r.pc = self._pop()

    def _op_push(self, insn: Instruction) -> None:
        byte = insn.byte
        value = self._eval_source(insn.src, byte)
        # PUSH.B still decrements SP by 2 (hardware behaviour).
        self._push(value & (0xFF if byte else 0xFFFF))

    def _op_call(self, insn: Instruction) -> None:
        r = self.regs
        if insn.src.mode in (_M.REGISTER, _M.IMMEDIATE):
            target = self._eval_source(insn.src, byte=False)
        else:
            target = self._load(self._effective_address(insn.src),
                                byte=False)
            if insn.src.mode is _M.AUTOINCREMENT:
                r.write(insn.src.register,
                        r.read(insn.src.register) + 2)
        self._push(r.pc)
        r.pc = target

    def _eval_rmw(self, insn: Instruction) -> Tuple[int, int, int]:
        """RRA / RRC / SWPB / SXT operand: value + writeback target."""
        byte = insn.byte
        if insn.src.mode is _M.REGISTER:
            register = insn.src.register
            return self._read_reg(register, byte), register, -1
        address = self._effective_address(insn.src)
        value = self._load(address, byte)
        if insn.src.mode is _M.AUTOINCREMENT:
            r = self.regs
            step = 1 if byte else 2
            r.write(insn.src.register, r.read(insn.src.register) + step)
        return value, -1, address

    def _op_rra(self, insn: Instruction) -> None:
        byte = insn.byte
        value, register, address = self._eval_rmw(insn)
        mask = 0xFF if byte else 0xFFFF
        sign = 0x80 if byte else 0x8000
        out = (value >> 1) | (value & sign)
        r = self.regs
        r.set_flag(SR.C, bool(value & 1))
        r.set_flag(SR.V, False)
        r.set_nz(out, byte)
        self._store(register, address, out & mask, byte)

    def _op_rrc(self, insn: Instruction) -> None:
        byte = insn.byte
        value, register, address = self._eval_rmw(insn)
        mask = 0xFF if byte else 0xFFFF
        sign = 0x80 if byte else 0x8000
        r = self.regs
        out = (value >> 1) | (sign if r.carry else 0)
        r.set_flag(SR.C, bool(value & 1))
        r.set_flag(SR.V, False)
        r.set_nz(out, byte)
        self._store(register, address, out & mask, byte)

    def _op_swpb(self, insn: Instruction) -> None:
        value, register, address = self._eval_rmw(insn)
        out = ((value << 8) | (value >> 8)) & 0xFFFF
        self._store(register, address, out, insn.byte)

    def _op_sxt(self, insn: Instruction) -> None:
        value, register, address = self._eval_rmw(insn)
        out = value & 0xFF
        if out & 0x80:
            out |= 0xFF00
        r = self.regs
        r.set_nz(out, byte=False)
        r.set_flag(SR.C, out != 0)
        r.set_flag(SR.V, False)
        self._store(register, address, out, insn.byte)

    # format I -----------------------------------------------------------------
    def _op_mov(self, insn: Instruction) -> None:
        byte = insn.byte
        src = self._eval_source(insn.src, byte)
        op = insn.dst
        if op.mode is _M.REGISTER:
            # register fast path: no writeback bookkeeping at all
            self.regs.write(op.register,
                            src & 0xFF if byte else src & 0xFFFF)
            return
        address = self._effective_address(op)
        if byte:
            self.memory.write_byte(address, src)
        else:
            self.memory.write_word(address, src)

    def _op_add(self, insn: Instruction) -> None:
        byte = insn.byte
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        out = self._flags_add(src, dst, src + dst, byte)
        self._store(register, address, out, byte)

    def _op_addc(self, insn: Instruction) -> None:
        byte = insn.byte
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        out = self._flags_add(src, dst, src + dst + int(self.regs.carry),
                              byte)
        self._store(register, address, out, byte)

    def _op_sub(self, insn: Instruction) -> None:
        byte = insn.byte
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        out = self._flags_sub(src, dst, 1, byte)
        self._store(register, address, out, byte)

    def _op_subc(self, insn: Instruction) -> None:
        byte = insn.byte
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        out = self._flags_sub(src, dst, int(self.regs.carry), byte)
        self._store(register, address, out, byte)

    def _op_cmp(self, insn: Instruction) -> None:
        byte = insn.byte
        src = self._eval_source(insn.src, byte)
        dst, _register, _address = self._eval_dest(insn.dst, byte, True)
        self._flags_sub(src, dst, 1, byte)

    def _op_dadd(self, insn: Instruction) -> None:
        byte = insn.byte
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        r = self.regs
        out, carry = self._dadd(src, dst, int(r.carry), byte)
        r.set_flag(SR.C, bool(carry))
        r.set_nz(out, byte)
        self._store(register, address, out, byte)

    def _op_bit(self, insn: Instruction) -> None:
        byte = insn.byte
        src = self._eval_source(insn.src, byte)
        dst, _register, _address = self._eval_dest(insn.dst, byte, True)
        self._logic_flags(src & dst, byte)

    def _op_bic(self, insn: Instruction) -> None:
        byte = insn.byte
        mask = 0xFF if byte else 0xFFFF
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        self._store(register, address, dst & ~src & mask, byte)

    def _op_bis(self, insn: Instruction) -> None:
        byte = insn.byte
        mask = 0xFF if byte else 0xFFFF
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        self._store(register, address, (dst | src) & mask, byte)

    def _op_xor(self, insn: Instruction) -> None:
        byte = insn.byte
        mask = 0xFF if byte else 0xFFFF
        sign = 0x80 if byte else 0x8000
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        out = (dst ^ src) & mask
        self._logic_flags(out, byte,
                          overflow=bool(src & sign) and bool(dst & sign))
        self._store(register, address, out, byte)

    def _op_and(self, insn: Instruction) -> None:
        byte = insn.byte
        mask = 0xFF if byte else 0xFFFF
        src = self._eval_source(insn.src, byte)
        dst, register, address = self._eval_dest(insn.dst, byte, True)
        out = dst & src & mask
        self._logic_flags(out, byte)
        self._store(register, address, out, byte)


# -- inline instruction forms -------------------------------------------------
#
# The superblock code generator's one way to execute an instruction:
# source lines that run it directly on the raw register list ``r`` and
# the bus ``m``.  ``step()`` never runs these lines — it executes every
# instruction through the per-opcode ``_op_*`` handlers above — so the
# block-vs-step differential tests compare two independent writings of
# each instruction's semantics.

_SRM = 0xFEF8            # SR with C, Z, N, V cleared

_JUMP_OPCODES = frozenset((
    Opcode.JMP, Opcode.JNE, Opcode.JEQ, Opcode.JNC,
    Opcode.JC, Opcode.JN, Opcode.JGE, Opcode.JL,
))

_ADDSUB_OPS = frozenset((Opcode.ADD, Opcode.ADDC, Opcode.SUB,
                         Opcode.SUBC, Opcode.CMP))
_SUB_OPS = frozenset((Opcode.SUB, Opcode.SUBC, Opcode.CMP))
_CARRY_OPS = frozenset((Opcode.ADDC, Opcode.SUBC))

#: taken-condition expression per conditional jump, over the live SR
#: in ``r[2]``
_JUMP_CONDS = {
    Opcode.JNE: "not r[2] & 2",
    Opcode.JEQ: "r[2] & 2",
    Opcode.JNC: "not r[2] & 1",
    Opcode.JC: "r[2] & 1",
    Opcode.JN: "r[2] & 4",
    Opcode.JGE: "not ((r[2] >> 2) ^ (r[2] >> 8)) & 1",
    Opcode.JL: "((r[2] >> 2) ^ (r[2] >> 8)) & 1",
}


def _granule(a: str) -> str:
    """The fast-map index of address ``a`` (folded for a constant)."""
    if a.isdigit():
        return str(int(a) >> FAST_SHIFT)
    return f"{a} >> {FAST_SHIFT}"


def _ld(a: str) -> str:
    """Inline word load from the even address ``a`` (a local name or a
    constant): straight from the backing bytes when the bus's fast map
    marks the word plain readable RAM, else through ``m.read_word`` —
    I/O ports and denials, with their exact errors and MPU flags."""
    return (f"(_mb[{a}] | _mb[{a} + 1] << 8 if _fm[{_granule(a)}] & 1"
            f" else m.read_word({a}))")


def _st(a: str, v: str) -> list:
    """Inline word store of the 16-bit ``v`` to the even address ``a``
    (each a local name, register slot or constant).  The backing bytes
    are written directly when the fast map marks the word plain
    writable RAM and its page holds no cached code (the bus's own
    invalidation test): such a store cannot halt, fault, invalidate,
    reconfigure or attach anything, so it needs no store-boundary
    guard.  Every other store goes through ``m.write_word`` and sets
    ``_s``, which runs the guard after the instruction retires."""
    return [f"if _fm[{_granule(a)}] & 2 and not (_cp[{a} >> 6]"
            f" or _cp[{a} - 4 >> 6]):",
            f"    _mb[{a}] = {v} & 0xFF",
            f"    _mb[{a} + 1] = {v} >> 8",
            "else:",
            f"    m.write_word({a}, {v})",
            "    _s = 1"]


def _addsub(opcode: Opcode, kx: str, const: Optional[int], mask: int,
            sign: int) -> list:
    """ADD/ADDC/SUB/SUBC/CMP of the source ``kx`` (a local holding the
    masked source, or the masked constant ``const`` as text) and the
    masked destination in ``_id``: the result in ``_io``, the flags in
    ``r[2]`` (C from the unmasked sum; for a subtraction C means no
    borrow)."""
    if opcode in _SUB_OPS:
        if opcode in _CARRY_OPS:
            inv = f"(~{kx} & {mask})" if const is None \
                else str(~const & mask)
            lines = [f"_ix = _id + {inv} + (r[2] & 1)"]
        elif const is None:
            lines = [f"_ix = _id + (~{kx} & {mask}) + 1"]
        else:
            lines = [f"_ix = _id + {(~const & mask) + 1}"]
        ovf = f"(_id ^ {kx}) & (_id ^ _io) & {sign}"
    else:
        carry = " + (r[2] & 1)" if opcode in _CARRY_OPS else ""
        lines = [f"_ix = _id + {kx}{carry}"]
        ovf = f"~({kx} ^ _id) & ({kx} ^ _io) & {sign}"
    return lines + [f"_io = _ix & {mask}",
                    f"_isr = r[2] & {_SRM}",
                    f"if _ix > {mask}: _isr |= 1",
                    f"if _io & {sign}: _isr |= 4",
                    "elif _io == 0: _isr |= 2",
                    f"if {ovf}: _isr |= 0x100",
                    "r[2] = _isr"]


def _inline_mov_mem_to_reg(src: Operand, d: int, byte: bool):
    """MOV from memory into register ``d``: a general register, or SP
    for a word (the write forces bit 0 clear, like
    ``RegisterFile.write``).  An autoincrement reads first and bumps
    the pointer second, so a faulting read leaves it untouched."""
    if byte:
        amask, load = 0xFFFF, lambda a: f"m.read_byte({a})"
    else:                     # the bus ignores bit 0 of a word address
        amask, load = 0xFFFE, _ld
    even = " & 0xFFFE" if d == 1 else ""
    sm = src.mode
    if sm is _M.INDEXED:
        return [f"_ia = (r[{src.register}] + {src.value}) & {amask}",
                f"r[{d}] = {load('_ia')}{even}"]
    if sm is _M.ABSOLUTE or sm is _M.SYMBOLIC:
        return [f"r[{d}] = {load(str(src.value & amask))}{even}"]
    if d == 1:
        return None           # stack switches use &x or x(Rn)
    if sm is _M.INDIRECT:
        return [f"_ia = r[{src.register}] & {amask}",
                f"r[{d}] = {load('_ia')}"]
    if sm is _M.AUTOINCREMENT and (src.register >= 4
                                   or src.register == 1 and not byte):
        # POP Rn is ``MOV @SP+, Rn``; ``.B @SP+`` is left to step(),
        # whose SP write keeps bit 0 clear
        s = src.register
        return [f"_ia = r[{s}]",
                f"_ib = _ia & {amask}",
                f"_iv = {load('_ib')}",
                f"r[{s}] = (_ia + {1 if byte else 2}) & 0xFFFF",
                f"r[{d}] = _iv"]
    return None


def _inline_mov_to_pc(src: Operand):
    """Word MOV into PC (BR #imm / BR Rn / RET and the memory forms):
    PC writes forced even, a pop reads before it bumps SP."""
    sm = src.mode
    if sm is _M.IMMEDIATE:
        return [f"r[0] = {src.value & 0xFFFE}"]
    if sm is _M.REGISTER:
        return [f"r[0] = r[{src.register}] & 0xFFFE"]
    if sm is _M.AUTOINCREMENT:
        s = src.register
        return [f"_ia = r[{s}]",
                "_ib = _ia & 0xFFFE",
                f"_iv = {_ld('_ib')}",
                f"r[{s}] = (_ia + 2) & 0xFFFF",
                "r[0] = _iv & 0xFFFE"]
    if sm is _M.ABSOLUTE or sm is _M.SYMBOLIC:
        return [f"r[0] = {_ld(str(src.value & 0xFFFE))} & 0xFFFE"]
    if sm is _M.INDEXED:
        return [f"_ia = (r[{src.register}] + {src.value}) & 0xFFFE",
                f"r[0] = {_ld('_ia')} & 0xFFFE"]
    if sm is _M.INDIRECT:
        return [f"_ia = r[{src.register}] & 0xFFFE",
                f"r[0] = {_ld('_ia')} & 0xFFFE"]
    return None


def _inline_mem_dst(insn: Instruction):
    """Register/immediate source into indexed or absolute memory: MOV,
    word ADD (the global-counter increment idiom) and CMP (the
    poll-a-variable idiom; flags only, no write-back)."""
    src, dst = insn.src, insn.dst
    byte = insn.byte
    mask = 0xFF if byte else 0xFFFF
    if src.mode is _M.REGISTER:
        s = src.register
    elif src.mode is _M.IMMEDIATE:
        s = -1
        k = src.value & mask
    else:
        return None                       # memory-to-memory
    amask = 0xFFFF if byte else 0xFFFE    # words ignore address bit 0
    dm = dst.mode
    if dm is _M.INDEXED:
        lines = [f"_ia = (r[{dst.register}] + {dst.value}) & {amask}"]
        ia = "_ia"
    elif dm is _M.ABSOLUTE or dm is _M.SYMBOLIC:
        lines = []
        ia = str(dst.value & amask)
    else:
        return None
    opcode = insn.opcode
    if opcode is Opcode.MOV:
        if byte:
            val = f"r[{s}] & 0xFF" if s >= 0 else str(k)
            return lines + [f"m.write_byte({ia}, {val})"]
        return lines + _st(ia, f"r[{s}]" if s >= 0 else str(k))
    if not (opcode is Opcode.CMP or opcode is Opcode.ADD and not byte):
        return None
    if s >= 0:
        lines.append(f"_ik = r[{s}] & {mask}")
        kx, const = "_ik", None
    else:
        kx, const = str(k), k
    load = f"m.read_byte({ia})" if byte else _ld(ia)
    lines.append(f"_id = {load}")
    lines += _addsub(opcode, kx, const, mask, 0x80 if byte else 0x8000)
    if opcode is Opcode.ADD:
        lines += _st(ia, "_io")
    return lines


def _inline_step(insn: Instruction):
    """Source lines executing ``insn`` directly on the raw register
    list, or None when the superblock compiler has no inline form for
    it (a block then ends before it and ``step()`` runs it).  Covers
    the register/immediate ALU shapes (including the stack adjusts and
    flag twiddling firmware does on SP and SR) plus the hot memory
    shapes: PUSH, CALL, MOV to and from memory, ADD and CMP into
    memory, BR/RET.  Block-closing jumps get their lines from the
    compiler itself.  Word accesses take the inline fast path of
    :func:`_ld`/:func:`_st` and fall back to the
    ``m.read_word``/``m.write_word`` bus methods for anything but
    plain RAM; byte accesses always call the bus.  Either way
    permissions, I/O dispatch and invalidation behave exactly as in
    the ``_op_*`` handlers, and so do the operand evaluation order and
    the flag updates.  Temporaries use the ``_i*`` prefix so they
    never collide with the block executors' own locals.
    """
    opcode = insn.opcode
    if opcode in _JUMP_OPCODES:
        return None
    dst = insn.dst
    byte = insn.byte
    mask = 0xFF if byte else 0xFFFF
    sign = 0x80 if byte else 0x8000
    src = insn.src
    if dst is None:                       # format 2, register operand
        if opcode is Opcode.PUSH and src is not None:
            # the source is read before SP moves (``PUSH SP`` pushes
            # the old SP), and SP moves before the store: a faulting
            # push leaves SP decremented.  SP is always even, so it is
            # a valid fast-path address.
            if src.mode is _M.REGISTER:
                val = f"r[{src.register}] & {mask}"
            elif src.mode is _M.IMMEDIATE:
                val = str(src.value & mask)
            else:
                return None
            return [f"_iw = {val}",
                    "_ia = r[1] = (r[1] - 2) & 0xFFFF"] \
                + _st("_ia", "_iw")
        if opcode is Opcode.CALL and src is not None:
            # target evaluated before the push; the pushed return
            # address is the deferred PC (r[0] == next_pc here)
            if src.mode is _M.IMMEDIATE:
                return ["_ia = r[1] = (r[1] - 2) & 0xFFFF"] \
                    + _st("_ia", "r[0]") \
                    + [f"r[0] = {src.value & 0xFFFE}"]
            if src.mode is _M.REGISTER:
                return [f"_it = r[{src.register}] & 0xFFFE",
                        "_ia = r[1] = (r[1] - 2) & 0xFFFF"] \
                    + _st("_ia", "r[0]") + ["r[0] = _it"]
            return None
        if (src is None or src.mode is not _M.REGISTER
                or src.register < 4):
            return None
        d = src.register
        if opcode is Opcode.SWPB and not byte:
            return [f"_iv = r[{d}]",
                    f"r[{d}] = (_iv << 8 | _iv >> 8) & 0xFFFF"]
        if opcode is Opcode.RRA:
            return [f"_iv = r[{d}] & {mask}",
                    f"_io = (_iv >> 1) | (_iv & {sign})",
                    f"_isr = r[2] & {_SRM} | (_iv & 1)",
                    f"if _io & {sign}: _isr |= 4",
                    "elif _io == 0: _isr |= 2",
                    "r[2] = _isr",
                    f"r[{d}] = _io"]
        if opcode is Opcode.RRC:
            return [f"_iv = r[{d}] & {mask}",
                    f"_io = (_iv >> 1) | ({sign} if r[2] & 1 else 0)",
                    f"_isr = r[2] & {_SRM} | (_iv & 1)",
                    f"if _io & {sign}: _isr |= 4",
                    "elif _io == 0: _isr |= 2",
                    "r[2] = _isr",
                    f"r[{d}] = _io"]
        if opcode is Opcode.SXT and not byte:
            return [f"_io = r[{d}] & 0xFF",
                    "if _io & 0x80: _io |= 0xFF00",
                    f"_isr = r[2] & {_SRM}",
                    "if _io: _isr |= 1",
                    "if _io & 0x8000: _isr |= 4",
                    "elif _io == 0: _isr |= 2",
                    "r[2] = _isr",
                    f"r[{d}] = _io"]
        return None
    if dst.mode is not _M.REGISTER:
        return _inline_mem_dst(insn)      # memory destination
    d = dst.register
    if d < 4:
        # PC, SP and SR: the word shapes firmware uses — BR/RET, stack
        # adjusts and switches, flag twiddling
        if byte or d == 3:
            return None
        if d == 0:
            return _inline_mov_to_pc(src) if opcode is Opcode.MOV \
                else None
        if d == 1 and opcode not in (Opcode.MOV, Opcode.ADD,
                                     Opcode.SUB):
            return None
        if d == 2 and opcode not in (Opcode.BIC, Opcode.BIS):
            return None
    if src.mode is _M.REGISTER:
        const = None
        ks = f"(r[{src.register}] & {mask})"
    elif src.mode is _M.IMMEDIATE:
        const = src.value & mask
        ks = str(const)
    elif opcode is Opcode.MOV:
        return _inline_mov_mem_to_reg(src, d, byte)
    else:
        return None                       # non-MOV memory source
    even = " & 0xFFFE" if d == 1 else ""  # SP writes force bit 0 clear
    if opcode is Opcode.MOV:
        return [f"r[{d}] = {ks}{even}"]
    if opcode in _ADDSUB_OPS:
        lines = [f"_id = r[{d}] & {mask}"]
        if const is None:
            lines.append(f"_ik = {ks}")
            kx = "_ik"
        else:
            kx = ks
        lines += _addsub(opcode, kx, const, mask, sign)
        if opcode is not Opcode.CMP:
            lines.append(f"r[{d}] = _io{even}")
        return lines
    if opcode is Opcode.BIS:
        return [f"r[{d}] = (r[{d}] & {mask}) | {ks}"]
    if opcode is Opcode.BIC:
        if const is None:
            return [f"r[{d}] = (r[{d}] & {mask}) & ~{ks} & {mask}"]
        return [f"r[{d}] = (r[{d}] & {mask}) & {(~const) & mask}"]
    if opcode in (Opcode.AND, Opcode.BIT, Opcode.XOR):
        lines = [f"_id = r[{d}] & {mask}"]
        if const is None:
            lines.append(f"_ik = {ks}")
            kx = "_ik"
        else:
            kx = ks
        op = "^" if opcode is Opcode.XOR else "&"
        lines += [f"_io = _id {op} {kx}",
                  f"_isr = r[2] & {_SRM}",
                  "if _io: _isr |= 1",
                  f"if _io & {sign}: _isr |= 4",
                  "elif _io == 0: _isr |= 2"]
        if opcode is Opcode.XOR:
            lines.append(
                f"if {kx} & {sign} and _id & {sign}: _isr |= 0x100")
        lines.append("r[2] = _isr")
        if opcode is not Opcode.BIT:
            lines.append(f"r[{d}] = _io")
        return lines
    return None


def _hits_io(op: Optional[Operand], io_ports: frozenset) -> bool:
    """Does this operand statically address a registered I/O port?
    Used by the superblock compiler to end blocks at kernel gates, MPU
    registers, and timer reads, so ``run`` re-checks its guards right
    after every port access.  (I/O is word-registered, so compare the
    word-aligned address, matching the bus's dispatch.)"""
    return (op is not None
            and (op.mode is _M.ABSOLUTE or op.mode is _M.SYMBOLIC)
            and (op.value & 0xFFFE) in io_ports)


#: Opcode -> Cpu handler method name; resolved to bound methods once
#: per instance in ``Cpu.__init__`` (the precomputed dispatch table).
_HANDLER_NAMES: Dict[Opcode, str] = {
    Opcode.JMP: "_op_jmp", Opcode.JNE: "_op_jne",
    Opcode.JEQ: "_op_jeq", Opcode.JNC: "_op_jnc",
    Opcode.JC: "_op_jc", Opcode.JN: "_op_jn",
    Opcode.JGE: "_op_jge", Opcode.JL: "_op_jl",
    Opcode.RETI: "_op_reti", Opcode.PUSH: "_op_push",
    Opcode.CALL: "_op_call", Opcode.RRA: "_op_rra",
    Opcode.RRC: "_op_rrc", Opcode.SWPB: "_op_swpb",
    Opcode.SXT: "_op_sxt",
    Opcode.MOV: "_op_mov", Opcode.ADD: "_op_add",
    Opcode.ADDC: "_op_addc", Opcode.SUB: "_op_sub",
    Opcode.SUBC: "_op_subc", Opcode.CMP: "_op_cmp",
    Opcode.DADD: "_op_dadd", Opcode.BIT: "_op_bit",
    Opcode.BIC: "_op_bic", Opcode.BIS: "_op_bis",
    Opcode.XOR: "_op_xor", Opcode.AND: "_op_and",
}
