package cpu

import (
	"math"
	"testing"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/program"
)

// sumProgram builds a program that sums an n-element array through a
// function call per element, exercising loads, stores, branches, calls,
// returns, and integer arithmetic.
func sumProgram(t testing.TB, n int) *program.Program {
	t.Helper()
	b := program.NewBuilder("sum", 4096)
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i * 3)
	}
	b.Data(0, vals)

	// r1 = i, r2 = n, r3 = base, r4 = acc, r5 = elem addr, r10 = elem value
	body := b.NewLabel()
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), int64(n))
	b.Li(isa.R(3), 0)
	b.Li(isa.R(4), 0)
	top := b.Here()
	b.Op3(isa.ADD, isa.R(5), isa.R(3), isa.R(0))
	b.OpI(isa.SHLI, isa.R(6), isa.R(1), 3)
	b.Op3(isa.ADD, isa.R(5), isa.R(5), isa.R(6))
	b.Jal(isa.R(31), body) // call add-element
	b.OpI(isa.ADDI, isa.R(1), isa.R(1), 1)
	b.Branch(isa.BLT, isa.R(1), isa.R(2), top)
	b.St(isa.R(4), isa.R(0), 8*int64(n)) // store result after array
	b.Halt()

	b.Bind(body)
	b.Ld(isa.R(10), isa.R(5), 0)
	b.Op3(isa.ADD, isa.R(4), isa.R(4), isa.R(10))
	b.Jr(isa.R(31))

	return b.MustBuild()
}

// fpProgram exercises the FP pipeline including divides and conversions.
func fpProgram(t testing.TB, n int) *program.Program {
	t.Helper()
	b := program.NewBuilder("fp", 1024)
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), int64(n))
	b.Fmovi(isa.F(1), 1.0)
	b.Fmovi(isa.F(2), 0.5)
	top := b.Here()
	b.Op3(isa.FMUL, isa.F(3), isa.F(1), isa.F(2))
	b.Op3(isa.FADD, isa.F(1), isa.F(1), isa.F(3))
	b.Op3(isa.FDIV, isa.F(4), isa.F(1), isa.F(1))
	b.Op3(isa.ITOF, isa.F(5), isa.R(1), isa.RegNone)
	b.OpI(isa.ADDI, isa.R(1), isa.R(1), 1)
	b.Branch(isa.BLT, isa.R(1), isa.R(2), top)
	b.Fst(isa.F(1), isa.R(0), 64)
	b.Halt()
	return b.MustBuild()
}

func testMachine(t testing.TB, p *program.Program, ccfg CoreConfig) (*Emu, *Core) {
	t.Helper()
	h, err := mem.NewHierarchy(mem.HierarchyConfig{
		L1I:           mem.CacheConfig{SizeKB: 16, Assoc: 2, BlockBytes: 64, Latency: 1},
		L1D:           mem.CacheConfig{SizeKB: 16, Assoc: 2, BlockBytes: 64, Latency: 1},
		L2:            mem.CacheConfig{SizeKB: 256, Assoc: 4, BlockBytes: 128, Latency: 8},
		MemFirst:      100,
		MemFollow:     4,
		ITLBEntries:   32,
		DTLBEntries:   32,
		TLBMissCycles: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	pred, err := branch.NewPredictor(branch.Config{Kind: branch.Combined, BHTEntries: 1024})
	if err != nil {
		t.Fatal(err)
	}
	btb, err := branch.NewBTB(256, 4)
	if err != nil {
		t.Fatal(err)
	}
	ras, err := branch.NewRAS(8)
	if err != nil {
		t.Fatal(err)
	}
	emu := NewEmu(p)
	core, err := NewCore(ccfg, emu, h, pred, btb, ras)
	if err != nil {
		t.Fatal(err)
	}
	return emu, core
}

func defaultCoreConfig() CoreConfig {
	return CoreConfig{
		FetchWidth: 4, FetchQueue: 16, DecodeWidth: 4, IssueWidth: 4, CommitWidth: 4,
		ROBEntries: 64, IQEntries: 32, LSQEntries: 32,
		IntALUs: 3, IntALULat: 1, IntMultUnits: 1, IntMultLat: 4, IntDivLat: 20,
		FPALUs: 2, FPALULat: 2, FPMultUnits: 1, FPMultLat: 4, FPDivLat: 20,
		DMemPorts: 2, MispredPenalty: 3, StoreForward: 1,
	}
}

func TestEmuSumProgram(t *testing.T) {
	n := 50
	p := sumProgram(t, n)
	e := NewEmu(p)
	executed := e.Run(1 << 20)
	if !e.Halted {
		t.Fatal("program did not halt")
	}
	want := int64(0)
	for i := 0; i < n; i++ {
		want += int64(i * 3)
	}
	if got := e.Mem[n]; got != want {
		t.Errorf("sum = %d, want %d", got, want)
	}
	if executed != e.Count {
		t.Errorf("executed %d != Count %d", executed, e.Count)
	}
}

func TestEmuFPProgram(t *testing.T) {
	p := fpProgram(t, 10)
	e := NewEmu(p)
	e.Run(1 << 20)
	if !e.Halted {
		t.Fatal("program did not halt")
	}
	// f1 grows by a factor 1.5 each iteration: 1.5^10.
	got := float64frombits(uint64(e.Mem[8]))
	want := 1.0
	for i := 0; i < 10; i++ {
		want *= 1.5
	}
	if got != want {
		t.Errorf("f1 = %g, want %g", got, want)
	}
}

func float64frombits(b uint64) float64 {
	return math.Float64frombits(b)
}

func TestDetailedMatchesFunctionalArchitecturally(t *testing.T) {
	// The detailed core must commit exactly the instructions the functional
	// emulator executes, and leave identical architectural state.
	for _, build := range []func(testing.TB, int) *program.Program{sumProgram, fpProgram} {
		p := build(t, 200)

		ref := NewEmu(p)
		ref.Run(1 << 30)

		emu, core := testMachine(t, p, defaultCoreConfig())
		for !core.Done() {
			core.Run(1 << 16)
		}
		if core.Stats.Committed != ref.Count {
			t.Errorf("%s: committed %d, functional executed %d", p.Name, core.Stats.Committed, ref.Count)
		}
		if emu.R != ref.R {
			t.Errorf("%s: integer register files diverge", p.Name)
		}
		if emu.F != ref.F {
			t.Errorf("%s: fp register files diverge", p.Name)
		}
		for i := range ref.Mem {
			if emu.Mem[i] != ref.Mem[i] {
				t.Fatalf("%s: memory diverges at word %d", p.Name, i)
			}
		}
	}
}

func TestDetailedTimingSanity(t *testing.T) {
	p := sumProgram(t, 500)
	_, core := testMachine(t, p, defaultCoreConfig())
	for !core.Done() {
		core.Run(1 << 16)
	}
	s := core.Stats
	if s.Cycles == 0 || s.Committed == 0 {
		t.Fatal("no progress recorded")
	}
	cpi := s.CPI()
	if cpi < 0.25 || cpi > 50 {
		t.Errorf("CPI = %.3f out of plausible range", cpi)
	}
	if s.ClassCounts[isa.ClassLoad] == 0 || s.ClassCounts[isa.ClassBranch] == 0 {
		t.Error("class counts not populated")
	}
}

func TestWiderMachineIsNotSlower(t *testing.T) {
	p := sumProgram(t, 1000)

	narrow := defaultCoreConfig()
	narrow.FetchWidth, narrow.DecodeWidth, narrow.IssueWidth, narrow.CommitWidth = 1, 1, 1, 1
	narrow.IntALUs = 1
	narrow.ROBEntries, narrow.IQEntries, narrow.LSQEntries = 8, 4, 4

	wide := defaultCoreConfig()
	wide.FetchWidth, wide.DecodeWidth, wide.IssueWidth, wide.CommitWidth = 8, 8, 8, 8
	wide.IntALUs = 6
	wide.ROBEntries, wide.IQEntries, wide.LSQEntries = 256, 128, 128

	run := func(cfg CoreConfig) uint64 {
		_, core := testMachine(t, p, cfg)
		for !core.Done() {
			core.Run(1 << 16)
		}
		return core.Stats.Cycles
	}
	nc, wc := run(narrow), run(wide)
	if wc > nc {
		t.Errorf("wide machine used %d cycles, narrow %d; wide must not be slower", wc, nc)
	}
	if nc == wc {
		t.Errorf("widths had no effect at all (both %d cycles); model suspicious", nc)
	}
}

func TestTrivialEliminationSpeedsUpTrivialHeavyCode(t *testing.T) {
	// A loop dominated by multiplies by 0/1 and divides by 1.
	b := program.NewBuilder("tc", 64)
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), 3000)
	b.Li(isa.R(3), 1)
	b.Li(isa.R(4), 0)
	b.Li(isa.R(7), 12345)
	top := b.Here()
	b.Op3(isa.MUL, isa.R(5), isa.R(7), isa.R(3)) // x*1
	b.Op3(isa.DIV, isa.R(6), isa.R(5), isa.R(3)) // x/1
	b.Op3(isa.MUL, isa.R(8), isa.R(6), isa.R(4)) // x*0
	b.Op3(isa.ADD, isa.R(9), isa.R(8), isa.R(5)) // dependent add
	b.OpI(isa.ADDI, isa.R(1), isa.R(1), 1)
	b.Branch(isa.BLT, isa.R(1), isa.R(2), top)
	b.Halt()
	p := b.MustBuild()

	run := func(mode TCMode) (uint64, CoreStats) {
		cfg := defaultCoreConfig()
		cfg.TC = mode
		emu, core := testMachine(t, p, cfg)
		emu.DetectTrivial = mode != TCOff
		for !core.Done() {
			core.Run(1 << 16)
		}
		return core.Stats.Cycles, core.Stats
	}
	off, _ := run(TCOff)
	simp, sstats := run(TCSimplify)
	elim, estats := run(TCEliminate)
	if simp >= off {
		t.Errorf("TC simplify (%d cycles) should beat off (%d)", simp, off)
	}
	if elim > simp {
		t.Errorf("TC eliminate (%d cycles) should not lose to simplify (%d)", elim, simp)
	}
	if sstats.TrivialSeen == 0 || sstats.TrivialSimplified == 0 {
		t.Errorf("simplify stats empty: %+v", sstats)
	}
	if estats.TrivialEliminated == 0 {
		t.Errorf("eliminate stats empty: %+v", estats)
	}
}

func TestRunWarmWarmsCaches(t *testing.T) {
	p := sumProgram(t, 500)
	emuCold, coreCold := testMachine(t, p, defaultCoreConfig())
	_ = emuCold
	for !coreCold.Done() {
		coreCold.Run(1 << 16)
	}

	// Warm run: functionally warm the first half, then measure detail.
	emuW, coreW := testMachine(t, p, defaultCoreConfig())
	half := emuW.Prog.Stats().Instructions // static count; use dynamic half instead
	_ = half
	emuW.RunWarm(coreCold.Stats.Committed/2, Warmer{Hier: coreW.hier, Pred: coreW.pred, BTB: coreW.btb, RAS: coreW.ras})
	missesBeforeDetail := coreW.hier.L1D.Stats.Misses
	if missesBeforeDetail == 0 {
		t.Fatal("functional warming did not touch the D-cache")
	}
	start := coreW.Stats
	for !coreW.Done() {
		coreW.Run(1 << 16)
	}
	warmWindow := coreW.Stats.Sub(start)
	if warmWindow.Committed == 0 {
		t.Fatal("no instructions measured after warming")
	}
	// The warmed second half must have a lower CPI than the cold full run's
	// first half would suggest; a loose check: warmed CPI <= overall cold CPI.
	if warmWindow.CPI() > coreCold.Stats.CPI()*1.05 {
		t.Errorf("warmed CPI %.3f worse than cold CPI %.3f", warmWindow.CPI(), coreCold.Stats.CPI())
	}
}

func TestRunProfileCountsBlocks(t *testing.T) {
	p := sumProgram(t, 100)
	e := NewEmu(p)
	prof := NewProfile(p)
	e.RunProfile(1<<20, prof)
	if prof.Total != e.Count {
		t.Errorf("profile total %d != executed %d", prof.Total, e.Count)
	}
	var instrs int64
	for _, v := range prof.Instrs {
		instrs += v
	}
	if uint64(instrs) != e.Count {
		t.Errorf("BBV sums to %d, want %d", instrs, e.Count)
	}
	var entries int64
	for _, v := range prof.Entries {
		entries += v
	}
	if entries == 0 || entries > instrs {
		t.Errorf("BBEF total %d implausible vs %d instructions", entries, instrs)
	}
}

func TestDrainEmptiesPipeline(t *testing.T) {
	p := sumProgram(t, 500)
	_, core := testMachine(t, p, defaultCoreConfig())
	core.Run(100)
	core.Drain()
	if core.robCount() != 0 || core.fqCount != 0 {
		t.Error("drain left instructions in flight")
	}
	// Execution must be able to continue after a drain.
	before := core.Stats.Committed
	core.Run(100)
	if core.Stats.Committed != before+100 {
		t.Errorf("committed %d more, want 100", core.Stats.Committed-before)
	}
}

func TestCoreConfigValidate(t *testing.T) {
	good := defaultCoreConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := good
	bad.IssueWidth = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero issue width accepted")
	}
	bad = good
	bad.MispredPenalty = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative penalty accepted")
	}
}

func TestEmuResetRestoresInitialState(t *testing.T) {
	p := sumProgram(t, 50)
	e := NewEmu(p)
	e.Run(1 << 20)
	sumAddr := 50
	if e.Mem[sumAddr] == 0 {
		t.Fatal("run did not store result")
	}
	e.Reset()
	if e.Halted || e.Count != 0 || e.Mem[sumAddr] != 0 || e.R[4] != 0 {
		t.Error("reset did not restore initial state")
	}
	// And a re-run reproduces the same result.
	e.Run(1 << 20)
	e2 := NewEmu(p)
	e2.Run(1 << 20)
	if e.Mem[sumAddr] != e2.Mem[sumAddr] {
		t.Error("re-run after reset diverges")
	}
}

// TestRestoreRejectsOtherProgram: a checkpoint carries its program's
// fingerprint, so restoring it into a different program fails even when
// the memory sizes match.
func TestRestoreRejectsOtherProgram(t *testing.T) {
	a, b := sumProgram(t, 50), sumProgram(t, 60)
	if a.Fingerprint() == b.Fingerprint() || len(NewEmu(a).Mem) != len(NewEmu(b).Mem) {
		t.Fatal("test programs must differ in code but share a memory size")
	}
	ea := NewEmu(a)
	ea.Run(10)
	if err := NewEmu(b).Restore(ea.Snapshot()); err == nil {
		t.Fatal("Restore accepted a checkpoint from a different program")
	}
	if err := NewEmu(a).Restore(ea.Snapshot()); err != nil {
		t.Fatalf("Restore rejected its own program's checkpoint: %v", err)
	}
}
