package experiments

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/store"
)

// withCkptStore swaps the shared checkpoint store for the test body.
func withCkptStore(t *testing.T, s *store.Store[*cpu.Checkpoint], f func()) {
	t.Helper()
	prev := core.CheckpointStore()
	core.SetCheckpointStore(s)
	defer core.SetCheckpointStore(prev)
	f()
}

// ckptOptions builds sweep options with the trace store off, so these
// tests measure the checkpoint layer in isolation — a replayed window
// skips the functional positioning that would otherwise hit the
// checkpoint store, which skews the hit/miss ratio asserted below.
func ckptOptions(workers int) *Options {
	o := tinyOptions()
	o.Benches = []bench.Name{bench.Mcf}
	o.TechniquesFn = tinyTechniques
	o.Parallel = workers
	o.TraceMode = "off"
	o.Engine().Obs = obs.NewRegistry()
	return o
}

// TestCheckpointStoreFigureDeterminism: the rendered Figure 1 artifact is
// byte-identical with the checkpoint store disabled, and with it enabled
// under the 8-worker scheduler — restored functional prefixes (including
// single-flight waits between concurrent cells) change nothing observable.
func TestCheckpointStoreFigureDeterminism(t *testing.T) {
	render := func(workers int) string {
		o := ckptOptions(workers)
		f1, err := Figure1(o)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return f1.Render()
	}

	var off string
	withCkptStore(t, nil, func() { off = render(0) })

	s := core.NewCheckpointStore(core.DefaultCheckpointBudget)
	s.Obs = obs.NewRegistry()
	var on string
	withCkptStore(t, s, func() { on = render(8) })

	if on != off {
		t.Errorf("Figure 1 render differs with the checkpoint store on:\n--- store off ---\n%s--- store on ---\n%s",
			off, on)
	}
	st := s.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("PB sweep did not exercise the store: %+v", st)
	}
	// The PB envelope shares one program per benchmark across all 44
	// configurations, so hits must dominate misses by an order of
	// magnitude.
	if st.Hits < 10*st.Misses {
		t.Errorf("hit/miss ratio too low for a shared-prefix sweep: %+v", st)
	}
}

// TestOptionsCloseResetsStore: sweep teardown drops the resident
// checkpoints and counters so the next sweep starts cold and bounded.
func TestOptionsCloseResetsStore(t *testing.T) {
	s := core.NewCheckpointStore(core.DefaultCheckpointBudget)
	s.Obs = obs.NewRegistry()
	withCkptStore(t, s, func() {
		o := ckptOptions(0)
		if _, err := Figure1(o); err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Entries == 0 {
			t.Fatalf("sweep cached nothing: %+v", st)
		}
		o.Close()
		if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 {
			t.Errorf("Close left checkpoints resident: %+v", st)
		}
	})
}
