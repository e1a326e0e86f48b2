package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/program"
)

// loopProgram runs long enough that allocation probes never hit the halt
// path: loads, stores, arithmetic and a backwards branch per iteration.
func loopProgram(t testing.TB) *program.Program {
	t.Helper()
	b := program.NewBuilder("hotloop", 1024)
	b.Li(isa.R(1), 0)
	b.Li(isa.R(2), 1<<40)
	top := b.Here()
	b.Ld(isa.R(3), isa.R(1), 0)
	b.Op3(isa.ADD, isa.R(4), isa.R(4), isa.R(3))
	b.St(isa.R(4), isa.R(1), 64)
	b.OpI(isa.ADDI, isa.R(1), isa.R(1), 1)
	b.Branch(isa.BLT, isa.R(1), isa.R(2), top)
	b.Halt()
	return b.MustBuild()
}

// TestDecodeTableMatchesProgram pins the decode table's static templates
// against the program image.
func TestDecodeTableMatchesProgram(t *testing.T) {
	for _, p := range []*program.Program{sumProgram(t, 50), fpProgram(t, 10), loopProgram(t)} {
		dec := decodeProgram(p)
		if len(dec) != len(p.Code) {
			t.Fatalf("%s: decode table has %d entries for %d instructions", p.Name, len(dec), len(p.Code))
		}
		for pc := range p.Code {
			in, d := &p.Code[pc], &dec[pc]
			tm := &d.tmpl
			if tm.PC != int32(pc) || tm.Block != p.BlockOf[pc] || tm.Op != in.Op ||
				tm.Class != isa.ClassOf(in.Op) || tm.Dst != in.Dst ||
				tm.SrcA != in.SrcA || tm.SrcB != in.SrcB {
				t.Errorf("%s pc %d: template %+v does not match instruction %+v", p.Name, pc, tm, in)
			}
			if tm.Addr != 0 || tm.Taken || tm.Next != 0 || tm.Trivial != isa.NotTrivial {
				t.Errorf("%s pc %d: dynamic fields not zero in template: %+v", p.Name, pc, tm)
			}
			if wantLeader := p.Blocks[p.BlockOf[pc]].Start == pc; d.leader != wantLeader {
				t.Errorf("%s pc %d: leader = %v, want %v", p.Name, pc, d.leader, wantLeader)
			}
			if wantCond := isa.IsCondBranch(in.Op); (d.ctrl == ctrlCond) != wantCond {
				t.Errorf("%s pc %d: ctrl %d vs cond-branch %v", p.Name, pc, d.ctrl, wantCond)
			}
		}
	}
}

// TestHotLoopsDoNotAllocate audits the per-instruction paths: functional
// execution, functional warming, profiling, and the detailed pipeline
// must not allocate per dynamic instruction or per cycle.
func TestHotLoopsDoNotAllocate(t *testing.T) {
	p := loopProgram(t)

	e := NewEmu(p)
	if a := testing.AllocsPerRun(10, func() { e.Run(10000) }); a != 0 {
		t.Errorf("Emu.Run allocates %.1f times per call", a)
	}

	pe := NewEmu(p)
	prof := NewProfile(p)
	if a := testing.AllocsPerRun(10, func() { pe.RunProfile(10000, prof) }); a != 0 {
		t.Errorf("Emu.RunProfile allocates %.1f times per call", a)
	}

	we, wc := testMachine(t, p, defaultCoreConfig())
	warmer := Warmer{Hier: wc.hier, Pred: wc.pred, BTB: wc.btb, RAS: wc.ras}
	if a := testing.AllocsPerRun(10, func() { we.RunWarm(10000, warmer) }); a != 0 {
		t.Errorf("Emu.RunWarm allocates %.1f times per call", a)
	}

	_, core := testMachine(t, p, defaultCoreConfig())
	if a := testing.AllocsPerRun(10, func() { core.Run(5000) }); a != 0 {
		t.Errorf("Core.Run allocates %.1f times per call", a)
	}

	// Replay paths: record one long window of the loop, then drive every
	// consumer off the trace. The record is sized so no probe exhausts it
	// (AllocsPerRun executes its body 11 times).
	rec := NewEmu(p)
	rec.DetectTrivial = true
	rec.StartRecording(1 << 19)
	rec.Run(1 << 19)
	recs := rec.StopRecording()

	wr := NewReplayer(NewEmu(p), recs)
	if a := testing.AllocsPerRun(10, func() { wr.RunWarm(10000, warmer) }); a != 0 {
		t.Errorf("Replayer.RunWarm allocates %.1f times per call", a)
	}

	pr := NewReplayer(NewEmu(p), recs)
	rprof := NewProfile(p)
	if a := testing.AllocsPerRun(10, func() { pr.RunProfile(10000, rprof) }); a != 0 {
		t.Errorf("Replayer.RunProfile allocates %.1f times per call", a)
	}

	_, rcore := testMachine(t, p, defaultCoreConfig())
	rcore.SetSource(NewReplayer(NewEmu(p), recs))
	if a := testing.AllocsPerRun(10, func() { rcore.Run(5000) }); a != 0 {
		t.Errorf("Core.Run over a replay source allocates %.1f times per call", a)
	}
}
