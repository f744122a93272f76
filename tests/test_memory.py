"""Memory bus and region-map behaviour."""

from contextlib import nullcontext

import pytest

from repro.errors import MemoryAccessError, MpuViolationError
from repro.msp430.memory import EXECUTE, Memory, MemoryMap, READ, WRITE


@pytest.fixture
def memory():
    return Memory()


class TestRegionMap:
    def test_fram_bounds(self):
        assert MemoryMap.in_main_fram(0x4400)
        assert MemoryMap.in_main_fram(0xFFFF)
        assert not MemoryMap.in_main_fram(0x43FF)

    def test_infomem_bounds(self):
        assert MemoryMap.in_infomem(0x1800)
        assert MemoryMap.in_infomem(0x19FF)
        assert not MemoryMap.in_infomem(0x1A00)

    def test_region_lookup(self, memory):
        assert memory.map.region_at(0x0000).name == "peripherals"
        assert memory.map.region_at(0x1C00).name == "sram"
        assert memory.map.region_at(0x5000).name == "fram"
        assert memory.map.region_at(0xFF80).name == "vectors"


class TestBasicAccess:
    def test_word_roundtrip(self, memory):
        memory.write_word(0x4400, 0xBEEF)
        assert memory.read_word(0x4400) == 0xBEEF

    def test_byte_roundtrip(self, memory):
        memory.write_byte(0x1C00, 0xA5)
        assert memory.read_byte(0x1C00) == 0xA5

    def test_word_is_little_endian(self, memory):
        memory.write_word(0x4400, 0x1234)
        assert memory.read_byte(0x4400) == 0x34
        assert memory.read_byte(0x4401) == 0x12

    def test_word_access_ignores_bit0(self, memory):
        memory.write_word(0x4401, 0xAAAA)
        assert memory.read_word(0x4400) == 0xAAAA

    def test_hole_read_raises(self, memory):
        with pytest.raises(MemoryAccessError):
            memory.read_word(0x3000)

    def test_hole_write_raises(self, memory):
        with pytest.raises(MemoryAccessError):
            memory.write_word(0x1B00, 1)

    def test_bsl_is_read_only(self, memory):
        with pytest.raises(MemoryAccessError):
            memory.write_word(0x1000, 1)

    def test_peripherals_not_executable(self, memory):
        with pytest.raises(MemoryAccessError):
            memory.fetch_word(0x0200)

    def test_fram_executable(self, memory):
        memory.load(0x4400, b"\x34\x12")
        assert memory.fetch_word(0x4400) == 0x1234


class TestInstructionFetch:
    """``fetch_word`` has its own path (so counting ``read_word``
    counts only data reads) with exactly the behaviour of an execute
    read: value, error, MPU violation record, observer calls, I/O
    dispatch."""

    @staticmethod
    def _machine(mpu_on=True):
        from repro.msp430.mpu import MPU_PASSWORD, Mpu
        memory = Memory()
        mpu = Mpu()
        mpu.attach(memory)
        memory.load(0x4400, bytes(range(256)) * 16)
        memory.load(0x8800, b"\x03\x43" * 8)
        memory.add_io(0x4410, read=lambda: 0xBEEF)
        mpu._write_segb1(0, 0x0880)            # B1 = 0x8800
        mpu._write_segb2(0, 0x0900)            # B2 = 0x9000
        mpu._write_sam(0, 0x0735)              # seg1 R-X, seg2 RW-
        mpu._write_ctl0(0, (MPU_PASSWORD << 8) | int(mpu_on))
        seen = []
        memory.add_observer(lambda *access: seen.append(access))
        return memory, mpu, seen

    @staticmethod
    def _outcome(call, address):
        try:
            return call(address)
        except (MemoryAccessError, MpuViolationError) as error:
            return (type(error).__name__, str(error))

    def test_fetch_equals_an_execute_read(self, monkeypatch):
        for supervisor, mpu_on in ((False, True), (True, True),
                                   (False, False)):
            fetching, fetch_mpu, fetch_seen = self._machine(mpu_on)
            reading, read_mpu, read_seen = self._machine(mpu_on)
            for address in range(0x10000):
                with fetching.supervisor() if supervisor \
                        else nullcontext():
                    fetched = self._outcome(fetching.fetch_word,
                                            address)
                with reading.supervisor() if supervisor \
                        else nullcontext():
                    read = self._outcome(
                        lambda a: reading.read_word(a, kind=EXECUTE),
                        address)
                assert fetched == read, hex(address)
                assert (fetch_mpu.violation_address,
                        fetch_mpu.violation_kind) == \
                    (read_mpu.violation_address, read_mpu.violation_kind)
            assert fetch_seen == read_seen
            assert supervisor or not mpu_on or \
                fetch_mpu.violation_address == 0x8FFE
            assert fetching.fetch_word(0x4410) == 0xBEEF

        calls = []
        real = Memory.read_word

        def counted(self, *args, **kw):
            calls.append(args)
            return real(self, *args, **kw)

        monkeypatch.setattr(Memory, "read_word", counted)
        fetching, _mpu, _seen = self._machine()
        fetching.fetch_word(0x4400)
        assert calls == []


class TestSupervisorAccess:
    def test_supervisor_bypasses_region_checks(self, memory):
        with memory.supervisor():
            memory.write_word(0x1000, 0x5555)   # BSL is normally RO
        assert memory.dump(0x1000, 2) == b"\x55\x55"

    def test_load_and_dump_bypass(self, memory):
        memory.load(0x1B00, b"\x01\x02")        # hole
        assert memory.dump(0x1B00, 2) == b"\x01\x02"

    def test_load_past_end_raises(self, memory):
        with pytest.raises(MemoryAccessError):
            memory.load(0xFFFF, b"\x00\x01")


class TestIoPorts:
    def test_io_write_intercepted(self, memory):
        seen = []
        memory.add_io(0x0200, write=lambda a, v: seen.append((a, v)))
        memory.write_word(0x0200, 0x77)
        assert seen == [(0x0200, 0x77)]
        # backing store untouched
        assert memory.dump(0x0200, 2) == b"\x00\x00"

    def test_io_read_intercepted(self, memory):
        memory.add_io(0x0202, read=lambda: 0xCAFE)
        assert memory.read_word(0x0202) == 0xCAFE

    def test_io_byte_read_high_and_low(self, memory):
        memory.add_io(0x0204, read=lambda: 0xABCD)
        assert memory.read_byte(0x0204) == 0xCD
        assert memory.read_byte(0x0205) == 0xAB

    def test_io_must_be_word_aligned(self, memory):
        with pytest.raises(ValueError):
            memory.add_io(0x0201, read=lambda: 0)


class TestObservers:
    def test_observer_sees_accesses(self, memory):
        log = []
        memory.add_observer(lambda a, k, s: log.append((a, k, s)))
        memory.write_word(0x4400, 1)
        memory.read_byte(0x4400)
        assert (0x4400, WRITE, 2) in log
        assert (0x4400, READ, 1) in log

    def test_observer_removal(self, memory):
        log = []
        observer = lambda a, k, s: log.append(a)
        memory.add_observer(observer)
        memory.remove_observer(observer)
        memory.write_word(0x4400, 1)
        assert log == []

    def test_fill(self, memory):
        memory.fill(0x4400, 4, 0xAB)
        assert memory.dump(0x4400, 4) == b"\xab\xab\xab\xab"
