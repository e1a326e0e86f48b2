package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/pb"
	"repro/internal/sim"
	"repro/internal/store"
)

// withFreshStore installs a dedicated store for the test body and restores
// the shared one afterwards, so these tests neither see nor leave warm
// state.
func withFreshStore(t *testing.T, f func(s *store.Store[*cpu.Checkpoint])) {
	t.Helper()
	prev := CheckpointStore()
	s := NewCheckpointStore(DefaultCheckpointBudget)
	s.Obs = obs.NewRegistry()
	SetCheckpointStore(s)
	defer SetCheckpointStore(prev)
	f(s)
}

// TestCheckpointEquivalence: for every functional-prefix consumer, a run
// with the store disabled, a cold-store run (populating), and a warm-store
// run (restoring) must produce identical statistics and profiles — a
// restored prefix is indistinguishable from an executed one.
func TestCheckpointEquivalence(t *testing.T) {
	ctx := testCtx(bench.Gzip)
	ctx.CollectProfile = true
	techs := []Technique{
		FFRun{X: 1000, Z: 300},
		FFWURun{X: 900, Y: 100, Z: 300},
		RandomSample{N: 4, U: 2000, W: 500},
		SMARTS{U: 1000, W: 2000}, // profile pass skips through the store
	}
	for _, tech := range techs {
		t.Run(tech.Name(), func(t *testing.T) {
			prev := CheckpointStore()
			SetCheckpointStore(nil)
			off, err := tech.Run(ctx)
			SetCheckpointStore(prev)
			if err != nil {
				t.Fatalf("store-off run: %v", err)
			}
			withFreshStore(t, func(s *store.Store[*cpu.Checkpoint]) {
				cold, err := tech.Run(ctx)
				if err != nil {
					t.Fatalf("cold-store run: %v", err)
				}
				warm, err := tech.Run(ctx)
				if err != nil {
					t.Fatalf("warm-store run: %v", err)
				}
				for name, got := range map[string]Result{"cold": cold, "warm": warm} {
					if !reflect.DeepEqual(off.Stats, got.Stats) {
						t.Errorf("%s-store stats diverge from store-off stats:\noff:  %+v\n%s: %+v",
							name, off.Stats, name, got.Stats)
					}
					if !reflect.DeepEqual(off.Profile, got.Profile) {
						t.Errorf("%s-store profile diverges from store-off profile", name)
					}
					if off.DetailedInstr != got.DetailedInstr {
						t.Errorf("%s-store detailed work %d != store-off %d",
							name, got.DetailedInstr, off.DetailedInstr)
					}
				}
				// The disabled and cold runs execute every prefix; the warm
				// run restores them.
				if off.FunctionalInstr != cold.FunctionalInstr {
					t.Errorf("cold-store functional work %d != store-off %d",
						cold.FunctionalInstr, off.FunctionalInstr)
				}
				if warm.FunctionalInstr > cold.FunctionalInstr {
					t.Errorf("warm-store functional work %d exceeds cold %d",
						warm.FunctionalInstr, cold.FunctionalInstr)
				}
				if st := s.Stats(); st.Hits == 0 {
					t.Errorf("warm run hit no checkpoints: %+v", st)
				}
			})
		})
	}
}

// TestSweepExecutesPrefixOnce is the Plackett-Burman amortization claim:
// a multi-configuration sweep of one FF X + Run Z technique on one
// benchmark fast-forwards the (config-independent) prefix exactly once —
// one miss populates the store and every other configuration hits.
func TestSweepExecutesPrefixOnce(t *testing.T) {
	d, err := pb.New(sim.NumParams, false)
	if err != nil {
		t.Fatal(err)
	}
	const configs = 8
	if d.Runs() < configs {
		t.Fatalf("PB design has %d rows, need %d", d.Runs(), configs)
	}
	tech := FFRun{X: 1000, Z: 200}
	withFreshStore(t, func(s *store.Store[*cpu.Checkpoint]) {
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
			t.Errorf("sweep missed %d times, want exactly 1 (one prefix execution)", st.Misses)
		}
		if st.Hits != configs-1 {
			t.Errorf("sweep hit %d times, want %d", st.Hits, configs-1)
		}
		// Only the first configuration paid for the fast-forward.
		if want := testScale.Instr(1000); functional != want {
			t.Errorf("sweep executed %d functional instructions, want %d", functional, want)
		}
	})
}
