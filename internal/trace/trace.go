// Package trace defines the records of functional execution traces. The
// functional instruction stream — which instructions retire, their
// effective addresses, branch outcomes and targets — is configuration
// independent: in a Plackett-Burman sweep all ~44 configurations of one
// benchmark consume the very same stream. Recording it once and replaying
// it through the timing model for configurations 2..N removes the
// emulator from the hottest path entirely (record-once / replay-many).
//
// A trace region is a dense slice of per-instruction records starting at
// an absolute retired-instruction position. Records are compact (24
// bytes): everything the timing core's fetch/dispatch consumes beyond the
// static pre-decoded template — the PC (identity into the decode table),
// the effective address, the branch outcome/target, and the trivial
// classification. Regions are shared through the same byte-bounded,
// single-flight store (internal/store) that holds functional-prefix
// checkpoints, under a covering hit rule: a region serves any window it
// contains.
package trace

import "repro/internal/isa"

// Rec flag bits. Bits 1-2 carry the isa.TrivialKind so replay reproduces
// trivial-computation classification without re-detecting it.
const (
	flagTaken    = 1 << 0
	trivialMask  = 3 << 1
	trivialShift = 1
	flagHalt     = 1 << 3
)

// Rec is one retired instruction: its static identity (PC indexes the
// program's pre-decoded instruction table) plus every dynamic fact the
// timing core consumes — effective address for loads/stores, branch
// outcome and successor PC, trivial-computation classification, and
// whether the emulator halted on this instruction.
type Rec struct {
	Addr  uint64 // effective address (loads/stores; 0 otherwise)
	PC    int32  // static instruction index
	Next  int32  // successor PC after this instruction
	Flags uint8  // taken | trivial kind | halt
}

// RecBytes is the unsafe.Sizeof-equivalent accounting cost of one record
// (24 bytes with alignment padding).
const RecBytes = 24

// Taken reports the branch outcome.
func (r Rec) Taken() bool { return r.Flags&flagTaken != 0 }

// Trivial returns the recorded trivial-computation classification.
func (r Rec) Trivial() isa.TrivialKind {
	return isa.TrivialKind((r.Flags & trivialMask) >> trivialShift)
}

// Halt reports whether the emulator halted retiring this instruction.
func (r Rec) Halt() bool { return r.Flags&flagHalt != 0 }

// PackFlags builds a Rec flag byte.
func PackFlags(taken bool, tk isa.TrivialKind, halt bool) uint8 {
	f := uint8(tk) << trivialShift & trivialMask
	if taken {
		f |= flagTaken
	}
	if halt {
		f |= flagHalt
	}
	return f
}

// Region is one recorded contiguous span of the functional stream,
// beginning at absolute retired-instruction position Start. Final marks a
// region that reached the program's halt: it covers every position past
// its recorded end, because the stream has no further instructions.
type Region struct {
	Start uint64
	Recs  []Rec
	Final bool
}

// End is the absolute position one past the last recorded instruction.
func (rg *Region) End() uint64 { return rg.Start + uint64(len(rg.Recs)) }

// Covers reports whether the region contains the window [start,
// start+want). A Final region covers any window at or past its start.
func (rg *Region) Covers(start, want uint64) bool {
	return rg.Start <= start && (rg.Final || rg.End() >= start+want)
}

// Bytes is the resident accounting size of the region.
func (rg *Region) Bytes() int64 { return RegionBytes(len(rg.Recs)) }

// RegionBytes is the resident accounting size of a region of n records.
func RegionBytes(n int) int64 { return int64(n)*RecBytes + 64 }
