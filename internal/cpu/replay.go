package cpu

import "repro/internal/trace"

// InstSource produces the correct-path dynamic instruction stream the
// timing core consumes: either the functional emulator (executing the
// program) or a trace replayer (reading a previously recorded stream).
// Both yield the identical stream, so the core's timing is source
// independent — the property the replay-equivalence tests pin.
type InstSource interface {
	// Step fills di with the next retired instruction, returning false
	// when the stream is exhausted.
	Step(di *DynInst) bool
	// SrcPC is the PC of the next instruction Step would produce.
	SrcPC() int32
	// SrcDone reports whether the stream is exhausted.
	SrcDone() bool
	// decTable is the program's pre-decoded instruction table.
	decTable() []decInst
}

// Replayer is an InstSource that reads a recorded trace region instead of
// emulating. Each Step is a single record load plus a template copy — no
// register file, no memory image, no ALU — which is what makes replay the
// fastest way to feed the timing core. The replayer holds no
// architectural state: callers own the mapping from replay consumption
// back to absolute stream positions.
type Replayer struct {
	dec    []decInst
	recs   []trace.Rec
	i      int
	halted bool
}

// NewReplayer builds a replay source over recs for the emulator's
// program. The records must have been recorded on a program with the
// same decode table (the trace store keys regions by program
// fingerprint, which guarantees it).
func NewReplayer(e *Emu, recs []trace.Rec) *Replayer {
	return &Replayer{dec: e.dec, recs: recs}
}

// Step fills di from the next record. Exhausting the records without a
// halt record is a coverage bug in the caller (the recorded region did
// not cover the replayed window plus the core's fetch-ahead), so it
// panics rather than silently truncating the stream.
func (r *Replayer) Step(di *DynInst) bool {
	if r.halted {
		return false
	}
	if r.i >= len(r.recs) {
		panic("cpu: trace replay exhausted: recorded region does not cover the replayed window")
	}
	rec := r.recs[r.i]
	r.i++
	*di = r.dec[rec.PC].tmpl
	di.Addr = rec.Addr
	di.Taken = rec.Taken()
	di.Next = rec.Next
	di.Trivial = rec.Trivial()
	if rec.Halt() {
		r.halted = true
	}
	return true
}

// SrcPC is the PC of the next record (InstSource).
func (r *Replayer) SrcPC() int32 {
	if r.i >= len(r.recs) {
		panic("cpu: trace replay exhausted: recorded region does not cover the replayed window")
	}
	return r.recs[r.i].PC
}

// SrcDone reports whether the replayed stream has halted (InstSource).
func (r *Replayer) SrcDone() bool { return r.halted }

// decTable exposes the pre-decoded instruction table (InstSource).
func (r *Replayer) decTable() []decInst { return r.dec }

// Consumed returns the number of records replayed so far.
func (r *Replayer) Consumed() uint64 { return uint64(r.i) }

// Remaining returns the number of records not yet replayed.
func (r *Replayer) Remaining() uint64 {
	if r.halted {
		return 0
	}
	return uint64(len(r.recs) - r.i)
}

// RunWarm replays up to n instructions while functionally warming caches,
// TLBs and branch prediction state — the replay twin of Emu.RunWarm.
func (r *Replayer) RunWarm(n uint64, w Warmer) uint64 {
	var di DynInst
	var done uint64
	for done < n && r.Step(&di) {
		done++
		warmInst(&di, w)
	}
	return done
}

// RunProfile replays up to n instructions while accumulating the
// execution profile — the replay twin of Emu.RunProfile. Profiling needs
// only the block index and leader flag from the decode table, so the loop
// streams records directly with no per-instruction template copy.
func (r *Replayer) RunProfile(n uint64, prof *Profile) uint64 {
	var done uint64
	for done < n && !r.halted {
		if r.i >= len(r.recs) {
			panic("cpu: trace replay exhausted: recorded region does not cover the replayed window")
		}
		rec := r.recs[r.i]
		r.i++
		done++
		d := &r.dec[rec.PC]
		prof.Instrs[d.tmpl.Block]++
		if d.leader {
			prof.Entries[d.tmpl.Block]++
		}
		if rec.Halt() {
			r.halted = true
		}
	}
	prof.Total += done
	return done
}
