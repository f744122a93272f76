"""Differential fuzzing subsystem: generator, lockstep harness,
shrinker, corpus I/O, campaign driver and CLI."""

import dataclasses
from pathlib import Path

import pytest

from repro.fuzz.engine import run_differential_campaign
from repro.fuzz.generator import (
    CODE_BASE,
    FuzzProgram,
    Item,
    generate_program,
)
from repro.fuzz.harness import FuzzMachine, build_image, run_differential
from repro.fuzz.shrink import load_case, shrink_program, write_case
from repro.ports import DONE_PORT

CORPUS = Path(__file__).resolve().parent / "fuzz_corpus"


class TestGenerator:
    def test_deterministic_for_a_seed(self):
        first = generate_program(42)
        second = generate_program(42)
        assert first.body_text() == second.body_text()
        assert first.metadata() == second.metadata()

    def test_distinct_seeds_differ(self):
        assert (generate_program(1).body_text()
                != generate_program(2).body_text())

    def test_every_program_assembles(self):
        for seed in range(30):
            build_image(generate_program(seed))

    def test_programs_end_with_halt_before_subroutines(self):
        program = generate_program(7)
        kinds = [item.kind for item in program.items]
        halt = kinds.index("halt")
        assert all(kind == "sub" for kind in kinds[halt + 1:])
        assert "anchor" in kinds[:halt]


class TestHarness:
    def test_machines_start_identical(self):
        program = generate_program(3)
        image = build_image(program)
        block = FuzzMachine(program, image, step_only=False)
        step = FuzzMachine(program, image, step_only=True)
        assert block.snapshot() == step.snapshot()
        assert block.memory._bytes == step.memory._bytes
        assert block.cpu.regs.pc == CODE_BASE

    def test_clean_seeds_run_clean(self):
        for seed in range(25):
            result = run_differential(generate_program(seed))
            assert result.ok, result.describe()

    def test_budget_backstop_is_deterministic(self):
        spin = FuzzProgram(seed=1, items=[
            Item("anchor", ["spin:"]),
            Item("insn", ["    JMP spin"]),
        ])
        result = run_differential(spin, chunk=16, max_instructions=64)
        assert result.ok
        assert result.outcome == ("budget",)

    def test_identical_faults_compare_equal(self):
        # an unmapped load faults identically in both modes
        crash = FuzzProgram(seed=2, items=[
            Item("insn", ["    MOV &0x2800, R4"]),   # HOLE2
            Item("halt", ["    MOV #1, &0x01F2"]),
        ])
        result = run_differential(crash)
        assert result.ok
        assert result.outcome[0] == "fault"
        assert result.outcome[1] == "BUS_ERROR"


class TestRegressions:
    def test_diamond_arm_ending_at_the_block_end_sets_the_pc(self):
        """A forward-skip arm ends in batched register-only steps and
        the block ends at the join (DADD has no inline form).  The
        generated code must leave the PC at the join on the
        fall-through path too; a stale PC re-ran ``SUB`` on every
        iteration of this loop (``divergence_seed115.s`` is the
        shrunk one-shot case)."""
        program = FuzzProgram(seed=115, items=[
            Item("insn", ["    MOV #6, R15"]),
            Item("anchor", ["L0:"]),
            Item("insn", ["    JEQ A17",
                          "    MOV #0x6001, R4",
                          "    MOV.B @R4+, R13",
                          "    SUB #255, R7"]),
            Item("anchor", ["A17:"]),
            Item("insn", ["    DADD #32768, R9",
                          "    DEC R15",
                          "    JNE L0"]),
            Item("halt", [f"    MOV #1, &0x{DONE_PORT:04X}"]),
        ])
        result = run_differential(program)
        assert result.ok, result.describe()
        assert result.outcome == ("halted",)


class TestShrink:
    def marker_predicate(self, program):
        """Synthetic failure: the program still contains DADD."""
        return any("DADD" in line for item in program.items
                   for line in item.lines)

    def test_shrinks_to_the_marker(self):
        program = generate_program(0)
        # ensure at least one marker is present
        program.items.insert(3, Item("insn", ["    DADD R4, R5"]))
        minimal = shrink_program(program, self.marker_predicate)
        removable = [item for item in minimal.items if item.removable]
        assert len(removable) == 1
        assert any("DADD" in line for line in removable[0].lines)
        assert self.marker_predicate(minimal)

    def test_keeps_non_removable_items(self):
        program = generate_program(5)
        program.items.insert(0, Item("insn", ["    DADD R4, R5"]))
        minimal = shrink_program(program, self.marker_predicate)
        kinds = {item.kind for item in minimal.items}
        assert "anchor" in kinds and "halt" in kinds

    def test_never_returns_a_non_failing_program(self):
        program = generate_program(9)
        program.items.insert(2, Item("insn", ["    DADD R6, R7"]))
        minimal = shrink_program(program, self.marker_predicate)
        assert self.marker_predicate(minimal)


class TestCorpusIo:
    def test_roundtrip_preserves_behaviour(self, tmp_path):
        program = generate_program(11)
        path = tmp_path / "case.s"
        write_case(program, path, note="roundtrip")
        loaded = load_case(path)
        assert loaded.seed == program.seed
        assert loaded.sp == program.sp
        assert loaded.mem_seed == program.mem_seed
        assert loaded.regs == program.regs
        assert (loaded.mpu_segb1, loaded.mpu_segb2,
                loaded.mpu_sam, loaded.mpu_ctl0) == (
            program.mpu_segb1, program.mpu_segb2,
            program.mpu_sam, program.mpu_ctl0)
        original = run_differential(program)
        replayed = run_differential(loaded)
        assert replayed.outcome == original.outcome
        assert replayed.instructions == original.instructions

    def test_loaded_case_body_matches(self, tmp_path):
        program = generate_program(13)
        path = tmp_path / "case.s"
        write_case(program, path)
        loaded = load_case(path)
        strip = lambda text: [line.strip() for line
                              in text.splitlines() if line.strip()]
        assert strip(loaded.body_text()) == strip(program.body_text())


@pytest.mark.parametrize("case", sorted(CORPUS.glob("*.s")),
                         ids=lambda path: path.name)
def test_corpus_case_replays_clean(case):
    result = run_differential(load_case(case))
    assert result.ok, result.describe()


class TestCampaign:
    def test_small_campaign_is_clean(self):
        stats = run_differential_campaign(seeds=40, corpus=None)
        assert stats.clean, stats.describe()
        assert stats.ok == stats.seeds == 40
        assert stats.instructions > 0

    def test_divergence_is_shrunk_and_archived(self, tmp_path,
                                               monkeypatch):
        """Plant a fake divergence for one seed and watch the campaign
        shrink it and write a corpus case."""
        import repro.fuzz.engine as engine

        real = engine.run_differential
        planted = {"seed": 4}

        def fake(program, **kwargs):
            result = real(program, **kwargs)
            if (program.seed == planted["seed"]
                    and any("DADD" in line for item in program.items
                            for line in item.lines)):
                return dataclasses.replace(result, ok=False)
            return result

        monkeypatch.setattr(engine, "run_differential", fake)
        # make sure seed 4 contains the marker
        real_generate = engine.generate_program

        def generate(seed):
            program = real_generate(seed)
            if seed == planted["seed"]:
                program.items.insert(1,
                                     Item("insn", ["    DADD R4, R5"]))
            return program

        monkeypatch.setattr(engine, "generate_program", generate)
        stats = engine.run_differential_campaign(
            seeds=6, corpus=tmp_path)
        assert len(stats.divergences) == 1
        assert len(stats.cases_written) == 1
        case = stats.cases_written[0]
        assert case.exists()
        minimal = load_case(case)
        removable = [item for item in minimal.items if item.removable]
        assert len(removable) <= 2      # shrunk down to the marker


class TestCli:
    def test_fuzz_diff_only(self, capsys):
        from repro.cli import main
        code = main(["fuzz", "--seeds", "5", "--diff-only",
                     "--no-corpus"])
        assert code == 0
        out = capsys.readouterr().out
        assert "5 seeds: 5 ok, 0 divergences" in out

    def test_fuzz_replay_single_case(self, tmp_path, capsys):
        from repro.cli import main
        path = tmp_path / "case.s"
        write_case(generate_program(17), path)
        assert main(["fuzz", "--replay", str(path)]) == 0
        assert "OK" in capsys.readouterr().out
