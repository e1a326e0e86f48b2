package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/store"
	"repro/internal/trace"
)

// memGoldenDigests pins what the memory hierarchy and the functional warm
// loops produce end to end: each entry is goldenDigest of one run below.
// The digests were produced by the previous engine with its reference
// paths (map-based TLB, memo-less cache scan, per-instruction warming)
// and again with its fast paths, and the two sets were identical, so a
// match here carries that equivalence forward.
var memGoldenDigests = map[string]string{
	"Run 300M":                            "c03739fe06421f603a2d6f5e62fc3362c376863eab0624ae5aff5a9afc2f7f66",
	"FF 1000M + Run 300M":                 "c93a11510ee2ab19ac40f76bcd027a7c85ecaf49fea43efbfa961a941c396e70",
	"FF 900M + WU 100M + Run 300M":        "a30e214e0a7b6ad0c69a08f33690a749aa3cf8641cae1f2ef468b525dcf78adb",
	"Random N=4 U=2000 W=500":             "7e2ebbcdb0ee4017259406d7008c657e1c37035efbe5ebfb8cc87f1500db5bf3",
	"SimPoint multiple 10M (max_k 5)":     "584586a9f8e4b54eac8eb0923d774b13dc38a6798a2039a958f62a0682c0b604",
	"SMARTS U=1000 W=2000":                "a5dac5ac78925cccaf6fcec9ea363e4b9b0768ca45fc77052d8a6bebd8e3a724",
	"replay FF 900M + WU 100M + Run 300M": "a7ed350b49317dc2a511bdc83b2d6a6fecc34f79535f9ac47439525432e3942a",
	"timeline SMARTS U=1000 W=2000":       "421fad61ac2b407363c949ec3d15f6a4a509e49d461effa573379fd9a173a364",
}

// goldenDigest covers a run's statistics (every cache, TLB, and CPI-stack
// counter included), its profile, its work decomposition, and its
// timeline. Host times are left out.
func goldenDigest(r Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%d|%d", r.Stats, r.DetailedInstr, r.FunctionalInstr)
	if p := r.Profile; p != nil {
		fmt.Fprintf(h, "|%v|%v|%d", p.Entries, p.Instrs, p.Total)
	}
	fmt.Fprintf(h, "|%+v", r.Timeline)
	return hex.EncodeToString(h.Sum(nil))
}

// checkGolden compares a run against its pinned digest, printing the
// digest it got so an intended change can be re-pinned by hand.
func checkGolden(t *testing.T, key string, r Result) {
	t.Helper()
	got := goldenDigest(r)
	if want, ok := memGoldenDigests[key]; !ok || got != want {
		t.Errorf("%s: digest %s, pinned %q", key, got, want)
	}
}

// TestMemHierarchyGolden pins every technique's results on gzip, emulated
// with the trace store detached, FFWURun replayed from a warm trace
// store, and SMARTS — the heaviest functional-warming user — with a
// timeline. Each run gets a fresh checkpoint store, so every run
// fast-forwards its own functional prefix and FunctionalInstr is stable.
func TestMemHierarchyGolden(t *testing.T) {
	prevTr := TraceStore()
	SetTraceStore(nil)
	defer SetTraceStore(prevTr)
	prevCk := CheckpointStore()
	defer SetCheckpointStore(prevCk)

	ctx := testCtx(bench.Gzip)
	ctx.CollectProfile = true
	for _, tech := range []Technique{
		RunZ{Z: 300},
		FFRun{X: 1000, Z: 300},
		FFWURun{X: 900, Y: 100, Z: 300},
		RandomSample{N: 4, U: 2000, W: 500},
		SimPoint{IntervalM: 10, MaxK: 5, WarmupM: 1, Seeds: 2, MaxIter: 20},
		SMARTS{U: 1000, W: 2000},
	} {
		t.Run(tech.Name(), func(t *testing.T) {
			SetCheckpointStore(NewCheckpointStore(DefaultCheckpointBudget))
			res, err := tech.Run(ctx)
			if err != nil {
				t.Fatal(err)
			}
			checkGolden(t, tech.Name(), res)
		})
	}

	replayed := FFWURun{X: 900, Y: 100, Z: 300}
	t.Run("replay "+replayed.Name(), func(t *testing.T) {
		withFreshTraceStore(t, DefaultTraceBudget, func(s *store.Store[*trace.Region]) {
			if _, err := replayed.Run(ctx); err != nil { // record
				t.Fatal(err)
			}
			res, err := replayed.Run(ctx) // replay
			if err != nil {
				t.Fatal(err)
			}
			if st := s.Stats(); st.Hits == 0 {
				t.Fatalf("second run replayed nothing: %+v", st)
			}
			checkGolden(t, "replay "+replayed.Name(), res)
		})
	})

	timed := SMARTS{U: 1000, W: 2000}
	t.Run("timeline "+timed.Name(), func(t *testing.T) {
		SetCheckpointStore(NewCheckpointStore(DefaultCheckpointBudget))
		res, err := timed.Run(timelineCtx(bench.Gzip))
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Timeline) == 0 {
			t.Fatal("no samples recorded")
		}
		checkGolden(t, "timeline "+timed.Name(), res)
	})
}
