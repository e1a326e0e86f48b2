package core

import (
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/store"
	"repro/internal/trace"
)

// withMemFastPaths forces the memory-hierarchy fast paths and the batched
// warm loops on or off for the test body, restoring the defaults after.
// Runners (and therefore caches/TLBs) are constructed per technique run,
// so the toggle governs every machine the body builds.
func withMemFastPaths(t *testing.T, on bool, f func()) {
	t.Helper()
	prevFast := mem.FastPathsEnabled()
	prevBatch := cpu.BatchedWarmEnabled()
	mem.EnableFastPaths(on)
	cpu.EnableBatchedWarm(on)
	defer func() {
		mem.EnableFastPaths(prevFast)
		cpu.EnableBatchedWarm(prevBatch)
	}()
	f()
}

// TestMemFastPathEquivalence is the acceptance check for the SoA cache
// layout, the way/page memos, and the batched warm pipeline: every
// technique must produce bit-identical statistics (including every
// per-level cache and TLB counter), profiles, and work decomposition with
// the fast paths on and off. The trace store stays detached so each arm
// emulates the full stream itself.
func TestMemFastPathEquivalence(t *testing.T) {
	prev := TraceStore()
	SetTraceStore(nil)
	defer SetTraceStore(prev)
	prevCk := CheckpointStore()
	defer SetCheckpointStore(prevCk)

	ctx := testCtx(bench.Gzip)
	ctx.CollectProfile = true
	techs := []Technique{
		RunZ{Z: 300},
		FFRun{X: 1000, Z: 300},
		FFWURun{X: 900, Y: 100, Z: 300},
		RandomSample{N: 4, U: 2000, W: 500},
		SimPoint{IntervalM: 10, MaxK: 5, WarmupM: 1, Seeds: 2, MaxIter: 20},
		SMARTS{U: 1000, W: 2000}, // the heaviest functional-warming user
	}
	for _, tech := range techs {
		t.Run(tech.Name(), func(t *testing.T) {
			var plain, fast Result
			var err error
			// Fresh checkpoint store per arm: both arms fast-forward the
			// same functional prefix themselves, so FunctionalInstr is
			// comparable.
			withMemFastPaths(t, false, func() {
				SetCheckpointStore(NewCheckpointStore(DefaultCheckpointBudget))
				plain, err = tech.Run(ctx)
			})
			if err != nil {
				t.Fatalf("fast-paths-off run: %v", err)
			}
			withMemFastPaths(t, true, func() {
				SetCheckpointStore(NewCheckpointStore(DefaultCheckpointBudget))
				fast, err = tech.Run(ctx)
			})
			if err != nil {
				t.Fatalf("fast-paths-on run: %v", err)
			}
			if !reflect.DeepEqual(plain.Stats, fast.Stats) {
				t.Errorf("stats diverge with fast paths on:\noff: %+v\non:  %+v", plain.Stats, fast.Stats)
			}
			if !reflect.DeepEqual(plain.Profile, fast.Profile) {
				t.Errorf("profile diverges with fast paths on")
			}
			if plain.DetailedInstr != fast.DetailedInstr || plain.FunctionalInstr != fast.FunctionalInstr {
				t.Errorf("work decomposition diverges: off %d/%d, on %d/%d",
					plain.DetailedInstr, plain.FunctionalInstr, fast.DetailedInstr, fast.FunctionalInstr)
			}
		})
	}
}

// TestMemFastPathReplayEquivalence runs the same check through the trace
// store, so the batched Replayer loops (warm and profile) are exercised
// against their per-instruction twins.
func TestMemFastPathReplayEquivalence(t *testing.T) {
	ctx := testCtx(bench.Gzip)
	ctx.CollectProfile = true
	tech := FFWURun{X: 900, Y: 100, Z: 300}

	run := func(on bool) (warm Result) {
		t.Helper()
		withMemFastPaths(t, on, func() {
			withFreshTraceStore(t, DefaultTraceBudget, func(s *store.Store[*trace.Region]) {
				if _, err := tech.Run(ctx); err != nil { // record
					t.Fatalf("recording run (fast=%v): %v", on, err)
				}
				var err error
				warm, err = tech.Run(ctx) // replay
				if err != nil {
					t.Fatalf("replay run (fast=%v): %v", on, err)
				}
				if st := s.Stats(); st.Hits == 0 {
					t.Fatalf("warm run (fast=%v) replayed nothing: %+v", on, st)
				}
			})
		})
		return warm
	}
	plain, fast := run(false), run(true)
	if !reflect.DeepEqual(plain.Stats, fast.Stats) {
		t.Errorf("replayed stats diverge with fast paths on:\noff: %+v\non:  %+v", plain.Stats, fast.Stats)
	}
	if !reflect.DeepEqual(plain.Profile, fast.Profile) {
		t.Errorf("replayed profile diverges with fast paths on")
	}
}
