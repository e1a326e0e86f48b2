package benchfmt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// sample builds a plausible baseline for comparison tests.
func sample() *Baseline {
	return &Baseline{
		Stamp:     Stamp{GitCommit: "0123456789abcdef", Timestamp: "2026-08-08T00:00:00Z"},
		Technique: "reference", Scale: "test", Iters: 3,
		Entries: []Entry{
			{Bench: "gcc", SimulatedInstr: 1000000, WallNS: 5000000, NSPerInstr: 5.0, CancelOverheadPct: 1.0},
			{Bench: "mcf", SimulatedInstr: 2000000, WallNS: 8000000, NSPerInstr: 4.0, CancelOverheadPct: 0},
		},
		Sched: &SchedBaseline{Workers: 4, Cells: 42, SerialWallNS: 100, ParallelWallNS: 40,
			Speedup: 2.5, P50NS: 10, P95NS: 20, P99NS: 30},
		Ckpt:    &CkptBaseline{Bench: "gcc", Configs: 8, OnNSPerInstr: 2.0, OffNSPerInstr: 4.0, Hits: 7, Misses: 1},
		Journal: &JournalBaseline{Events: 1 << 16, DisabledNSPerEvent: 1.5, EnabledNSPerEvent: 40},
		Mem:     &MemBaseline{Bench: "mcf", SimulatedInstr: 2000000, WallNS: 7000000, NSPerInstr: 3.5},
		Timeline: &TimelineBaseline{Bench: "mcf", SimulatedInstr: 2000000, Intervals: 20,
			OffNSPerInstr: 4.0, OnNSPerInstr: 4.05, OverheadPct: 1.2, StatsIdentical: true},
	}
}

// TestCompareSelfClean: a baseline compared against itself passes at the
// default tolerances — the benchdiff exit-0 half of the acceptance check.
func TestCompareSelfClean(t *testing.T) {
	b := sample()
	cmp := Compare(b, b, DefaultTolerances())
	if cmp.Regressed() {
		t.Fatalf("self-comparison regressed:\n%s", cmp.Render())
	}
	if len(cmp.Deltas) == 0 {
		t.Fatal("self-comparison produced no deltas")
	}
	out := cmp.Render()
	for _, want := range []string{"gcc ns_per_instr", "sched parallel_wall_ns", "0123456789ab"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestCompareCatchesNSPerInstrRegression: an injected slowdown past the
// entry tolerance fails the gate — the benchdiff exit-1 half.
func TestCompareCatchesNSPerInstrRegression(t *testing.T) {
	old, worse := sample(), sample()
	worse.Entries[0].NSPerInstr *= 2 // +100% on gcc, tolerance is +25%
	cmp := Compare(old, worse, DefaultTolerances())
	if !cmp.Regressed() {
		t.Fatalf("2x ns/instr slowdown not flagged:\n%s", cmp.Render())
	}
	var flagged bool
	for _, d := range cmp.Deltas {
		if d.Metric == "gcc ns_per_instr" && d.Regression {
			flagged = true
		}
	}
	if !flagged {
		t.Errorf("regression not attributed to gcc ns_per_instr: %+v", cmp.Deltas)
	}
	if !strings.Contains(cmp.Render(), "REGRESSION") {
		t.Error("render does not mark the regression")
	}
	memWorse := sample()
	memWorse.Mem.NSPerInstr *= 2 // +100%, tolerance is +40%
	if cmp := Compare(old, memWorse, DefaultTolerances()); !cmp.Regressed() {
		t.Errorf("2x mem ns/instr slowdown not flagged:\n%s", cmp.Render())
	}
	// Within tolerance passes.
	mild := sample()
	mild.Entries[0].NSPerInstr *= 1.1
	if cmp := Compare(old, mild, DefaultTolerances()); cmp.Regressed() {
		t.Errorf("+10%% within a +25%% tolerance flagged:\n%s", cmp.Render())
	}
}

// TestCompareStructural: missing benchmarks/blocks, changed instruction
// counts, changed plan size, and a never-hitting checkpoint store are
// structural failures — flagged even in structural-only mode, where
// timing deltas are ignored entirely.
func TestCompareStructural(t *testing.T) {
	tol := DefaultTolerances()
	tol.StructuralOnly = true

	missingBench := sample()
	missingBench.Entries = missingBench.Entries[:1]
	if cmp := Compare(sample(), missingBench, tol); !cmp.Regressed() {
		t.Error("missing benchmark not flagged")
	}

	missingBlock := sample()
	missingBlock.Sched = nil
	if cmp := Compare(sample(), missingBlock, tol); !cmp.Regressed() {
		t.Error("missing sched block not flagged")
	}

	instrChanged := sample()
	instrChanged.Entries[1].SimulatedInstr++
	if cmp := Compare(sample(), instrChanged, tol); !cmp.Regressed() {
		t.Error("simulated_instr mismatch not flagged")
	}

	planChanged := sample()
	planChanged.Sched.Cells++
	if cmp := Compare(sample(), planChanged, tol); !cmp.Regressed() {
		t.Error("sched cell-count mismatch not flagged")
	}

	coldCkpt := sample()
	coldCkpt.Ckpt.Hits = 0
	if cmp := Compare(sample(), coldCkpt, tol); !cmp.Regressed() {
		t.Error("zero checkpoint hits not flagged in structural-only mode")
	}

	missingMem := sample()
	missingMem.Mem = nil
	if cmp := Compare(sample(), missingMem, tol); !cmp.Regressed() {
		t.Error("missing mem block not flagged")
	}

	memCorpus := sample()
	memCorpus.Mem.SimulatedInstr++
	if cmp := Compare(sample(), memCorpus, tol); !cmp.Regressed() {
		t.Error("mem simulated_instr mismatch not flagged")
	}

	// Structural-only ignores even a catastrophic slowdown.
	slow := sample()
	for i := range slow.Entries {
		slow.Entries[i].NSPerInstr *= 100
	}
	slow.Sched.ParallelWallNS *= 100
	if cmp := Compare(sample(), slow, tol); cmp.Regressed() {
		t.Errorf("structural-only mode gated on timing:\n%s", cmp.Render())
	}
	if cmp := Compare(sample(), slow, DefaultTolerances()); !cmp.Regressed() {
		t.Error("default mode missed a 100x slowdown")
	}
}

// TestReadWriteRoundTrip: Write then Read preserves the baseline.
func TestReadWriteRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	b := sample()
	if err := Write(path, b); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.GitCommit != b.GitCommit || len(got.Entries) != 2 ||
		got.Sched == nil || got.Sched.P99NS != 30 || got.Ckpt.Hits != 7 {
		t.Errorf("round trip mangled the baseline: %+v", got)
	}
	if _, err := Read(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("reading a missing file did not error")
	}
}

// TestStampNow: the stamp carries a parseable UTC timestamp and, in a
// git checkout, a commit hash.
func TestStampNow(t *testing.T) {
	s := StampNow()
	if _, err := time.Parse(time.RFC3339, s.Timestamp); err != nil {
		t.Errorf("timestamp %q not RFC 3339: %v", s.Timestamp, err)
	}
	// The test binary has no VCS build info, so this exercises the git
	// fallback; tolerate environments without a repository.
	if s.GitCommit != "" && len(s.GitCommit) < 7 {
		t.Errorf("implausible commit %q", s.GitCommit)
	}
}

// TestCommittedBaselineParses: the repo's checked-in baseline stays
// readable by the current format.
func TestCommittedBaselineParses(t *testing.T) {
	path := filepath.Join("..", "..", "BENCH_obs.json")
	if _, err := os.Stat(path); err != nil {
		t.Skipf("no committed baseline: %v", err)
	}
	b, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Entries) == 0 || b.Sched == nil || b.Ckpt == nil || b.Journal == nil || b.Mem == nil {
		t.Errorf("committed baseline incomplete: %+v", b)
	}
	if b.Mem != nil && b.Mem.NSPerInstr <= 0 {
		t.Errorf("committed baseline mem block has no ns/instr: %+v", b.Mem)
	}
	for _, e := range b.Entries {
		if e.CancelOverheadPct < 0 {
			t.Errorf("%s cancel_overhead_pct = %v, want clamped >= 0", e.Bench, e.CancelOverheadPct)
		}
	}
}
