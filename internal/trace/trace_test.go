package trace

import (
	"testing"

	"repro/internal/isa"
)

// region builds a dense test region of n records starting at start.
func region(start uint64, n int, final bool) *Region {
	recs := make([]Rec, n)
	for i := range recs {
		recs[i] = Rec{PC: int32(i)}
	}
	if final && n > 0 {
		recs[n-1].Flags |= flagHalt
	}
	return &Region{Start: start, Recs: recs, Final: final}
}

func TestPackFlagsRoundTrip(t *testing.T) {
	kinds := []isa.TrivialKind{
		isa.NotTrivial, isa.TrivialIdentity, isa.TrivialConstant, isa.TrivialSimple,
	}
	for _, taken := range []bool{false, true} {
		for _, halt := range []bool{false, true} {
			for _, tk := range kinds {
				r := Rec{Flags: PackFlags(taken, tk, halt)}
				if r.Taken() != taken || r.Trivial() != tk || r.Halt() != halt {
					t.Errorf("PackFlags(%v, %v, %v) round-tripped to (%v, %v, %v)",
						taken, tk, halt, r.Taken(), r.Trivial(), r.Halt())
				}
			}
		}
	}
}

func TestRegionCovers(t *testing.T) {
	rg := region(100, 50, false)
	for _, tc := range []struct {
		start, want uint64
		covered     bool
	}{
		{100, 50, true},  // exact
		{100, 51, false}, // one past the end
		{120, 30, true},  // suffix
		{99, 1, false},   // before the start
		{150, 1, false},  // at the end
		{120, 0, true},   // empty window inside
	} {
		if got := rg.Covers(tc.start, tc.want); got != tc.covered {
			t.Errorf("Covers(%d, %d) = %v, want %v", tc.start, tc.want, got, tc.covered)
		}
	}

	// A Final region covers any window at or past its start: the stream
	// has no further instructions.
	fin := region(100, 50, true)
	for _, tc := range []struct {
		start, want uint64
		covered     bool
	}{
		{100, 1 << 30, true},
		{1 << 20, 1 << 20, true},
		{99, 1, false},
	} {
		if got := fin.Covers(tc.start, tc.want); got != tc.covered {
			t.Errorf("final Covers(%d, %d) = %v, want %v", tc.start, tc.want, got, tc.covered)
		}
	}
}
