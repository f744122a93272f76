"""MPU model: registers, segments, permissions, violations."""

import pytest

from repro.errors import MemoryAccessError, MpuViolationError
from repro.msp430.memory import EXECUTE, Memory, READ, WRITE
from repro.msp430.mpu import (
    MPUCTL0,
    MPUCTL1,
    MPUSAM,
    MPUSEGB1,
    MPUSEGB2,
    Mpu,
    MpuConfig,
    SEG1IFG,
    SEG3IFG,
    SegmentPermissions,
)


def make_system():
    memory = Memory()
    mpu = Mpu()
    mpu.attach(memory)
    return memory, mpu


def app_config(b1=0x8000, b2=0x9000):
    return MpuConfig(
        b1=b1, b2=b2,
        seg1=SegmentPermissions.parse("--X"),
        seg2=SegmentPermissions.parse("RW-"),
        seg3=SegmentPermissions.parse("---"))


class TestSegmentPermissions:
    def test_parse_render_roundtrip(self):
        for text in ("RWX", "R--", "-W-", "--X", "---", "RW-"):
            assert SegmentPermissions.parse(text).render() == text

    def test_parse_rejects_bad_length(self):
        with pytest.raises(ValueError):
            SegmentPermissions.parse("RW")

    @pytest.mark.parametrize("text", ["-WR", "XWR", "RRR", "WWW",
                                      "RXW", "R W", "--R", "X--"])
    def test_parse_rejects_malformed_positions(self, text):
        """Regression: parse() used to test mere character membership,
        so "-WR", "XWR" and "RRR" all parsed without error."""
        with pytest.raises(ValueError):
            SegmentPermissions.parse(text)

    def test_parse_is_case_insensitive(self):
        assert SegmentPermissions.parse("rwx").render() == "RWX"
        assert SegmentPermissions.parse("r-x").render() == "R-X"

    def test_bits_roundtrip(self):
        perms = SegmentPermissions(True, False, True)
        assert SegmentPermissions.from_bits(perms.to_bits()) == perms


class TestMpuConfig:
    def test_boundaries_must_be_aligned(self):
        with pytest.raises(ValueError):
            MpuConfig(b1=0x8001, b2=0x9000,
                      seg1=SegmentPermissions(), seg2=SegmentPermissions(),
                      seg3=SegmentPermissions())

    def test_boundaries_must_be_ordered(self):
        with pytest.raises(ValueError):
            MpuConfig(b1=0x9000, b2=0x8000,
                      seg1=SegmentPermissions(), seg2=SegmentPermissions(),
                      seg3=SegmentPermissions())

    def test_register_writes_cover_all_registers(self):
        writes = dict(app_config().register_writes())
        assert set(writes) == {MPUCTL0, MPUSEGB1, MPUSEGB2, MPUSAM}
        assert writes[MPUSEGB1] == 0x8000 >> 4
        assert writes[MPUCTL0] >> 8 == 0xA5


class TestEnforcement:
    def test_disabled_mpu_allows_everything(self):
        memory, _mpu = make_system()
        memory.write_word(0x9800, 1)    # would be seg3 if enabled

    def test_seg3_no_access(self):
        memory, mpu = make_system()
        mpu.configure(app_config())
        with pytest.raises(MpuViolationError):
            memory.read_word(0x9800)
        assert mpu.ctl1 & SEG3IFG

    def test_seg2_read_write_ok_execute_denied(self):
        memory, mpu = make_system()
        mpu.configure(app_config())
        memory.write_word(0x8800, 42)
        assert memory.read_word(0x8800) == 42
        with pytest.raises(MpuViolationError):
            memory.fetch_word(0x8800)

    def test_seg1_execute_only(self):
        memory, mpu = make_system()
        memory.load(0x5000, b"\x03\x43")    # NOP encoding
        mpu.configure(app_config())
        assert memory.fetch_word(0x5000) == 0x4303
        with pytest.raises(MpuViolationError):
            memory.read_word(0x5000)
        with pytest.raises(MpuViolationError):
            memory.write_word(0x5000, 0)
        assert mpu.ctl1 & SEG1IFG

    def test_sram_never_protected(self):
        """The paper's key hardware limitation: the MPU cannot protect
        SRAM (or peripherals) — that is why the compiler must insert
        the lower-bound check."""
        memory, mpu = make_system()
        mpu.configure(app_config())
        memory.write_word(0x1C00, 0x1234)       # SRAM: allowed
        assert memory.read_word(0x1C00) == 0x1234
        memory.write_word(0x0200, 7)            # peripherals: allowed

    def test_violation_records_address_and_kind(self):
        memory, mpu = make_system()
        mpu.configure(app_config())
        with pytest.raises(MpuViolationError):
            memory.write_word(0x9802, 1)
        assert mpu.violation_address == 0x9802
        assert mpu.violation_kind == WRITE

    def test_segment_of(self):
        _memory, mpu = make_system()
        mpu.configure(app_config())
        assert mpu.segment_of(0x4400) == 1
        assert mpu.segment_of(0x8000) == 2
        assert mpu.segment_of(0x9000) == 3
        assert mpu.segment_of(0x1800) == 0       # InfoMem
        assert mpu.segment_of(0x1C00) is None    # SRAM uncovered


class TestRegisterSemantics:
    def test_password_required(self):
        memory, _mpu = make_system()
        with pytest.raises(MemoryAccessError):
            memory.write_word(MPUCTL0, 0x0001)   # missing 0xA5 password

    def test_correct_password_accepted(self):
        memory, mpu = make_system()
        memory.write_word(MPUCTL0, 0xA501)
        assert mpu.enabled

    def test_lock_freezes_configuration(self):
        memory, mpu = make_system()
        memory.write_word(MPUSEGB1, 0x800)
        memory.write_word(MPUCTL0, 0xA503)       # enable + lock
        memory.write_word(MPUSEGB1, 0x900)       # ignored
        assert mpu.segb1 == 0x800
        assert mpu.locked

    def test_disable_is_noop_while_locked(self):
        """Regression: disable() used to clear MPUENA even with
        MPULOCK set — hardware freezes the whole configuration
        (enable bit included) until reset."""
        memory, mpu = make_system()
        mpu.configure(app_config())
        memory.write_word(MPUCTL0, 0xA503)       # enable + lock
        mpu.disable()
        assert mpu.enabled                       # still on
        assert mpu.locked
        with pytest.raises(MpuViolationError):
            memory.read_word(0x9800)             # still enforced

    def test_disable_works_while_unlocked(self):
        memory, mpu = make_system()
        mpu.configure(app_config())
        mpu.disable()
        assert not mpu.enabled
        memory.read_word(0x9800)                 # no violation

    def test_boundary_saturates_instead_of_wrapping(self):
        """Regression: installing b2 = VECTORS_END + 1 = 0x10000 used
        to wrap the cached boundary to 0 ((0x1000 << 4) & 0xFFFF),
        silently erasing segment 2 and flipping everything above B1
        into segment 3."""
        memory, mpu = make_system()
        mpu.configure(MpuConfig(
            b1=0x8000, b2=0x10000,
            seg1=SegmentPermissions.parse("--X"),
            seg2=SegmentPermissions.parse("RW-"),
            seg3=SegmentPermissions.parse("---")))
        assert mpu.boundary2 == 0x10000
        assert mpu.segment_of(0x9800) == 2
        assert mpu.segment_of(0xFFFE) == 2
        memory.write_word(0x9800, 42)            # seg2 RW-: allowed
        assert memory.read_word(0x9800) == 42
        memory.write_word(0xFFF0, 7)             # still seg2, not seg3

    def test_boundary_saturation_matches_overlay(self):
        """check() and permission_overlay() agree at the saturated
        boundary."""
        memory, mpu = make_system()
        mpu.configure(MpuConfig(
            b1=0x8000, b2=0x10000,
            seg1=SegmentPermissions.parse("--X"),
            seg2=SegmentPermissions.parse("RW-"),
            seg3=SegmentPermissions.parse("---")))
        assert memory.access_allowed(0xFFFE, WRITE)
        assert not memory.access_allowed(0xFFFE, EXECUTE)

    def test_ctl1_flags_cleared_by_writing_zero(self):
        memory, mpu = make_system()
        mpu.configure(app_config())
        with pytest.raises(MpuViolationError):
            memory.read_word(0x9800)
        assert mpu.ctl1
        mpu.disable()
        memory.write_word(MPUCTL1, 0)
        assert mpu.ctl1 == 0

    def test_registers_readable_through_bus(self):
        memory, mpu = make_system()
        mpu.configure(app_config())
        mpu.disable()
        assert memory.read_word(MPUSEGB1) == 0x8000 >> 4
        assert memory.read_word(MPUSAM) == app_config().sam_value()


class TestBitmapInvalidation:
    """Register writes invalidate the bus's permission bitmap only when
    a value it depends on (ENA, B1, B2, SAM) changes: every gate
    rewrites the same enable word."""

    def _configured(self):
        memory, mpu = make_system()
        mpu.configure(app_config())
        memory._refresh_permissions()
        return memory, mpu

    def test_same_value_write_keeps_the_bitmap(self):
        memory, mpu = self._configured()
        perm = memory._perm
        for address, value in app_config().register_writes():
            memory.write_word(address, value)
            assert not memory._perm_stale, hex(address)
        assert memory._perm is perm
        # a ctl0 write that keeps ENA but sets SEGIE changes no bitmap
        memory.write_word(MPUCTL0, 0xA500 | 0x11)
        assert not memory._perm_stale
        assert memory._perm is perm

    @pytest.mark.parametrize("address, value", [
        (MPUCTL0, 0xA500),                       # disable
        (MPUSEGB1, 0x0840),
        (MPUSEGB2, 0x0880),
        (MPUSAM, 0x0777),
    ])
    def test_changed_write_invalidates(self, address, value):
        memory, mpu = self._configured()
        perm = memory._perm
        memory.write_word(address, value)
        assert memory._perm_stale
        memory._refresh_permissions()
        assert memory._perm is not perm

    def test_wrong_password_and_locked_writes_unchanged(self):
        memory, mpu = self._configured()
        state = mpu.state_dict()
        with pytest.raises(MemoryAccessError):
            memory.write_word(MPUCTL0, 0x1200)   # wrong password
        assert mpu.state_dict() == state
        assert not memory._perm_stale
        memory.write_word(MPUCTL0, 0xA500 | 0x03)    # ENA | LOCK
        assert mpu.locked
        assert not memory._perm_stale           # ENA was already set
        perm = memory._perm
        locked = mpu.state_dict()
        for address in (MPUCTL0, MPUSEGB1, MPUSEGB2, MPUSAM):
            memory.write_word(address, 0xA500)
            assert not memory._perm_stale
        assert mpu.state_dict() == locked
        assert memory._perm is perm
