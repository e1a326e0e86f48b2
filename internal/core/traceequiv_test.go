package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/obs"
	"repro/internal/pb"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// withFreshTraceStore installs dedicated trace and checkpoint stores for
// the test body and restores the shared ones afterwards, so these tests
// neither see nor leave warm state.
func withFreshTraceStore(t *testing.T, budget int64, f func(s *store.Store[*trace.Region])) {
	t.Helper()
	prevCk := CheckpointStore()
	ck := NewCheckpointStore(DefaultCheckpointBudget)
	ck.Obs = obs.NewRegistry()
	SetCheckpointStore(ck)
	defer SetCheckpointStore(prevCk)
	prev := TraceStore()
	s := NewTraceStore(budget)
	s.Obs = obs.NewRegistry()
	SetTraceStore(s)
	defer SetTraceStore(prev)
	f(s)
}

// TestReplayEquivalence: every technique must produce identical statistics,
// work decomposition, and profiles whether its spans are emulated
// (store off), recorded (cold store), or replayed (warm store) — the core
// consumes the identical instruction stream from either source.
func TestReplayEquivalence(t *testing.T) {
	ctx := testCtx(bench.Gzip)
	ctx.CollectProfile = true
	techs := []Technique{
		RunZ{Z: 300},
		FFRun{X: 1000, Z: 300},
		FFWURun{X: 900, Y: 100, Z: 300},
		RandomSample{N: 4, U: 2000, W: 500},
		SimPoint{IntervalM: 10, MaxK: 5, WarmupM: 1, Seeds: 2, MaxIter: 20},
		SMARTS{U: 1000, W: 2000}, // never shares spans; must still be unperturbed
	}
	for _, tech := range techs {
		t.Run(tech.Name(), func(t *testing.T) {
			prev := TraceStore()
			SetTraceStore(nil)
			off, err := tech.Run(ctx)
			SetTraceStore(prev)
			if err != nil {
				t.Fatalf("trace-off run: %v", err)
			}
			withFreshTraceStore(t, DefaultTraceBudget, func(s *store.Store[*trace.Region]) {
				cold, err := tech.Run(ctx)
				if err != nil {
					t.Fatalf("cold-trace run: %v", err)
				}
				warm, err := tech.Run(ctx)
				if err != nil {
					t.Fatalf("warm-trace run: %v", err)
				}
				for name, got := range map[string]Result{"cold": cold, "warm": warm} {
					if !reflect.DeepEqual(off.Stats, got.Stats) {
						t.Errorf("%s-trace stats diverge from trace-off stats:\noff:  %+v\n%s: %+v",
							name, off.Stats, name, got.Stats)
					}
					if !reflect.DeepEqual(off.Profile, got.Profile) {
						t.Errorf("%s-trace profile diverges from trace-off profile", name)
					}
					if off.DetailedInstr != got.DetailedInstr {
						t.Errorf("%s-trace detailed work %d != trace-off %d",
							name, got.DetailedInstr, off.DetailedInstr)
					}
				}
				// Replay costs no functional execution: the warm run never
				// works harder than the recording one.
				if warm.FunctionalInstr > cold.FunctionalInstr {
					t.Errorf("warm-trace functional work %d exceeds cold %d",
						warm.FunctionalInstr, cold.FunctionalInstr)
				}
				if _, smarts := tech.(SMARTS); !smarts {
					if st := s.Stats(); st.Hits == 0 {
						t.Errorf("warm run replayed nothing: %+v", st)
					}
				}
			})
		})
	}
}

// TestSweepRecordsOnce is the record-once / replay-many claim: a
// multi-configuration sweep of one FF X + Run Z technique on one benchmark
// records the measured window exactly once — one miss — and every other
// configuration replays it.
func TestSweepRecordsOnce(t *testing.T) {
	d, err := pb.New(sim.NumParams, false)
	if err != nil {
		t.Fatal(err)
	}
	const configs = 8
	if d.Runs() < configs {
		t.Fatalf("PB design has %d rows, need %d", d.Runs(), configs)
	}
	tech := FFRun{X: 1000, Z: 200}
	withFreshTraceStore(t, DefaultTraceBudget, func(s *store.Store[*trace.Region]) {
		var functional uint64
		for i := 0; i < configs; i++ {
			cfg, err := sim.PBConfig(d.Rows[i])
			if err != nil {
				t.Fatal(err)
			}
			cfg.Name = fmt.Sprintf("pb-row-%02d", i)
			res, err := tech.Run(Context{Bench: bench.Gzip, Config: cfg, Scale: testScale})
			if err != nil {
				t.Fatalf("config %d: %v", i, err)
			}
			if res.Stats.Instructions != testScale.Instr(200) {
				t.Fatalf("config %d measured %d instructions, want %d",
					i, res.Stats.Instructions, testScale.Instr(200))
			}
			functional += res.FunctionalInstr
		}
		st := s.Stats()
		if st.Misses != 1 {
			t.Errorf("sweep recorded %d times, want exactly 1", st.Misses)
		}
		if st.Hits != configs-1 {
			t.Errorf("sweep replayed %d times, want %d", st.Hits, configs-1)
		}
		if st.RecordedBytes == 0 {
			t.Errorf("sweep recorded no bytes")
		}
		// Only the recording configuration executed anything functionally
		// (the fast-forward to the window, via the checkpoint store).
		if want := testScale.Instr(1000); functional != want {
			t.Errorf("sweep executed %d functional instructions, want %d", functional, want)
		}
	})
}

// TestTraceStoreBudget pins the byte bound: a sweep against a tiny budget
// must never hold more resident bytes than the budget allows, no matter
// how many regions it records.
func TestTraceStoreBudget(t *testing.T) {
	// Room for roughly one 200-unit region plus pad, so repeated distinct
	// windows force eviction.
	budget := int64((testScale.Instr(200)+2*tracePad)*trace.RecBytes) + 64
	withFreshTraceStore(t, budget, func(s *store.Store[*trace.Region]) {
		for i := 0; i < 4; i++ {
			tech := FFRun{X: float64(500 * (i + 1)), Z: 200}
			if _, err := tech.Run(testCtx(bench.Gzip)); err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
			if st := s.Stats(); st.Bytes > st.MaxBytes {
				t.Fatalf("run %d: resident %d bytes exceeds budget %d", i, st.Bytes, st.MaxBytes)
			}
		}
		if st := s.Stats(); st.Evictions == 0 {
			t.Errorf("tiny budget evicted nothing: %+v", st)
		}
	})
}
