package cpu

import (
	"reflect"
	"testing"

	"repro/internal/branch"
	"repro/internal/mem"
	"repro/internal/program"
)

// warmStructures builds a fresh warm target set (hierarchy + predictors)
// matching testMachine's shapes.
func warmStructures(t testing.TB) Warmer {
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
		Prefetch:      mem.PrefetchNextLine,
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
	return Warmer{Hier: h, Pred: pred, BTB: btb, RAS: ras}
}

// warmDigest captures everything functional warming touches.
type warmDigest struct {
	done uint64
	snap mem.Snapshot
	pred *branch.Predictor
	btb  *branch.BTB
	ras  *branch.RAS
}

// runWarmChunks warms through the given chunk schedule from either the
// emulator or a recorded replay of it.
func runWarmChunks(t testing.TB, p *program.Program, replay bool, chunks []uint64) warmDigest {
	t.Helper()
	w := warmStructures(t)
	var done uint64
	if replay {
		rec := NewEmu(p)
		rec.StartRecording(1 << 20)
		rec.Run(1 << 20)
		r := NewReplayer(NewEmu(p), rec.StopRecording())
		for _, n := range chunks {
			done += r.RunWarm(n, w)
		}
	} else {
		e := NewEmu(p)
		for _, n := range chunks {
			done += e.RunWarm(n, w)
		}
	}
	return warmDigest{done: done, snap: w.Hier.Snap(), pred: w.Pred, btb: w.BTB, ras: w.RAS}
}

// TestBatchedWarmEquivalence: warming in chunks from a replayed trace must
// leave the hierarchy AND the branch structures in exactly the state the
// emulator's warm loop produces — for chunk schedules that resume
// mid-stream at odd boundaries, and across a halt inside a chunk.
func TestBatchedWarmEquivalence(t *testing.T) {
	progs := map[string]*program.Program{
		"sum": sumProgram(t, 500), // halts inside a chunk
		"fp":  fpProgram(t, 100),
	}
	schedules := [][]uint64{
		{1 << 20},                  // run to halt in one call
		{1, 7, 300, 1000, 1 << 20}, // odd chunk boundaries
		{255, 256, 257, 1 << 20},   // chunks around a power of two
	}
	for name, p := range progs {
		for si, chunks := range schedules {
			emu := runWarmChunks(t, p, false, chunks)
			rep := runWarmChunks(t, p, true, chunks)
			if emu.done != rep.done {
				t.Fatalf("%s/sched%d: replay warmed %d instructions, emulator %d",
					name, si, rep.done, emu.done)
			}
			if !reflect.DeepEqual(emu.snap, rep.snap) {
				t.Errorf("%s/sched%d: hierarchy state diverges:\nemu:    %+v\nreplay: %+v",
					name, si, emu.snap, rep.snap)
			}
			if !reflect.DeepEqual(emu.pred, rep.pred) {
				t.Errorf("%s/sched%d: predictor state diverges", name, si)
			}
			if !reflect.DeepEqual(emu.btb, rep.btb) {
				t.Errorf("%s/sched%d: BTB state diverges", name, si)
			}
			if !reflect.DeepEqual(emu.ras, rep.ras) {
				t.Errorf("%s/sched%d: RAS state diverges", name, si)
			}
		}
	}
}

// TestReplayerRunProfileStreams pins the copy-free replay profiling loop
// against the emulator's profile over the same stream.
func TestReplayerRunProfileStreams(t *testing.T) {
	p := sumProgram(t, 300)
	want := NewProfile(p)
	NewEmu(p).RunProfile(1<<20, want)

	rec := NewEmu(p)
	rec.StartRecording(1 << 20)
	rec.Run(1 << 20)
	r := NewReplayer(NewEmu(p), rec.StopRecording())
	got := NewProfile(p)
	// Odd chunk sizes: the loop must resume mid-stream exactly.
	for _, n := range []uint64{3, 100, 1 << 20} {
		r.RunProfile(n, got)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("replay profile diverges from emulated profile")
	}
}
