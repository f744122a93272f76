"""Native models of the MiniC runtime's multiply and divide loops.

The FR5969 model has no hardware multiplier, so every ``*``, ``/`` and
``%`` in MiniC code runs one of the shift-and-add helpers in
:mod:`repro.cc.runtime`.  Their inner loops compile into *loop*
superblocks (see :class:`repro.msp430.cpu._Block`) that the generated
code iterates one simulated instruction at a time: in a dispatch-bound
fleet the ``__udivmod`` loop alone retires about a third of all
simulated instructions.

This module replaces those two loop blocks with Python models that
produce the same architectural result in one step.  A block is
eligible only when its *verified code bytes* equal a table entry below
— the byte-verified block cache already guarantees ``blk.code`` is
what memory holds at the block's range — so a self-modified or
differently assembled helper simply keeps its generated loop.  The
table is pinned against the assembled runtime by the test suite.

Each model has the loop-block contract ``fn(c, r, m, limit)``: run up
to ``limit`` iterations (``limit >= 1``), stop early when the back-edge
falls through, and leave R12-R15, SR, the PC and the cycle and
instruction counters exactly where the generated loop would.  Only the
flags of the last ``DEC``/``RRC`` survive an iteration, so the models
track no flags inside the loop.  On the normal entry state a closed
form does the whole loop (``divmod`` / one multiply, with a popcount
for the data-dependent cycle count); any other state — an iteration
count the budget cuts short, a divisor the 16-bit remainder would
overflow, a zero divisor, an unusual counter — runs an exact integer
loop instead.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

#: SR with C, Z, N and V cleared (the flag-writing instructions'
#: preserved bits)
_SRM = 0xFEF8


def _popcount(value: int) -> int:
    return bin(value).count("1")


def _udivmod_loop(start: int, end_pc: int, full_c: int, full_n: int,
                  skip_c: int, skip_n: int) -> Callable:
    """``.div_loop`` of ``__udivmod``: shift R12 into the remainder
    R15, subtract the divisor R13 when it fits (setting the quotient
    bit), ``DEC R14``, loop while R14 != 0.  An iteration that skips
    the subtract costs ``skip_c`` cycles and ``skip_n`` instructions
    less than ``full_c``/``full_n``."""

    def fn(c, r, m, limit):
        x = r[12]
        d = r[13]
        k = r[14]
        rem = r[15]
        if 0 < k <= 16 and k <= limit and rem < d <= 0x8000:
            # restoring division: with rem < d <= 0x8000 the shifted
            # remainder never overflows 16 bits, so k iterations
            # divide (rem:top k bits of x) by d exactly
            q, rem = divmod((rem << k) | (x >> (16 - k)), d)
            r[12] = ((x << k) & 0xFFFF) | q
            r[15] = rem
            r[14] = 0
            r[2] = (r[2] & _SRM) | 3          # DEC 1 -> 0: C, Z
            r[0] = end_pc
            skipped = k - _popcount(q)
            c.cycles += full_c * k - skip_c * skipped
            c.instructions += full_n * k - skip_n * skipped
            return
        n = skipped = 0
        while True:
            rem = ((rem << 1) | (x >> 15)) & 0xFFFF
            x = (x << 1) & 0xFFFF
            if rem >= d:                       # CMP: C = no borrow
                rem -= d
                x |= 1
            else:
                skipped += 1
            was = k
            k = (k - 1) & 0xFFFF
            n += 1
            if k == 0 or n >= limit:
                break
        r[12] = x
        r[14] = k
        r[15] = rem
        # flags of the last ``DEC R14`` (SUB #1): C = no borrow
        sr = r[2] & _SRM
        if was:
            sr |= 1
        if k & 0x8000:
            sr |= 4
        elif k == 0:
            sr |= 2
        if (was ^ 1) & (was ^ k) & 0x8000:
            sr |= 0x100
        r[2] = sr
        r[0] = start if k else end_pc
        c.cycles += full_c * n - skip_c * skipped
        c.instructions += full_n * n - skip_n * skipped

    return fn


def _mulhi_loop(start: int, end_pc: int, full_c: int, full_n: int,
                skip_c: int, skip_n: int) -> Callable:
    """``.mul_loop`` of ``__mulhi``: add the multiplicand R14 into R12
    when bit 0 of R13 is set, shift R14 left and R13 right (``CLRC;
    RRC``), loop while R13 != 0.  An iteration whose R13 bit is clear
    skips the add."""

    def fn(c, r, m, limit):
        b = r[13]
        n = b.bit_length() or 1
        if n <= limit:
            a = r[14]
            r[12] = (r[12] + a * b) & 0xFFFF
            r[14] = (a << n) & 0xFFFF
            r[13] = 0
            # last RRC shifted out bit 1 of a nonzero R13 (C) and left
            # zero (Z); N and V are always clear after CLRC; RRC
            r[2] = (r[2] & _SRM) | (3 if b else 2)
            r[0] = end_pc
            skipped = n - _popcount(b)
            c.cycles += full_c * n - skip_c * skipped
            c.instructions += full_n * n - skip_n * skipped
            return
        # the budget ends the loop early: ``limit`` < bit length, so
        # R13 is still nonzero afterwards and the back-edge is taken
        acc = r[12]
        a = r[14]
        skipped = 0
        for _ in range(limit):
            if b & 1:
                acc = (acc + a) & 0xFFFF
            else:
                skipped += 1
            last = b & 1
            a = (a << 1) & 0xFFFF
            b >>= 1
        r[12] = acc
        r[13] = b
        r[14] = a
        r[2] = (r[2] & _SRM) | last
        r[0] = start
        c.cycles += full_c * limit - skip_c * skipped
        c.instructions += full_n * limit - skip_n * skipped

    return fn


#: loop-block code bytes -> (model factory, full-iteration cycles,
#: full-iteration instructions, skipped-arm cycles, skipped-arm
#: instructions).  The bytes are position independent (the branches
#: are PC-relative), so a helper matches wherever the linker put it.
INTRINSICS: Dict[bytes, Tuple[Callable, int, int, int, int]] = {
    # RLA R12; RLC R15; CMP R13, R15; JLO +2; SUB R13, R15;
    # BIS #1, R12; DEC R14; JNE .div_loop
    bytes.fromhex("0c5c0f6f0f9d02280f8d1cd31e83f823"):
        (_udivmod_loop, 10, 8, 2, 2),
    # BIT #1, R13; JEQ +1; ADD R14, R12; RLA R14; CLRC; RRC R13;
    # JNE .mul_loop
    bytes.fromhex("1db301240c5e0e5e12c30d10f923"):
        (_mulhi_loop, 9, 7, 1, 1),
}


def intrinsic_for(blk) -> Optional[Callable]:
    """The native model for loop block ``blk``, or None when its code
    bytes are not a known runtime-helper loop."""
    if not blk.loop or blk.code is None:
        return None
    entry = INTRINSICS.get(bytes(blk.code))
    if entry is None or blk.end_pc != blk.start + len(blk.code):
        return None
    factory, full_c, full_n, skip_c, skip_n = entry
    fn = factory(blk.start, blk.end_pc, full_c, full_n, skip_c, skip_n)
    fn.intrinsic = factory.__name__
    return fn


def is_intrinsic(fn) -> bool:
    """Was ``fn`` made by :func:`intrinsic_for` (rather than by the
    superblock code generator)?"""
    return getattr(fn, "intrinsic", None) is not None
