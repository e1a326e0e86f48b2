package core

import (
	"sync"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/trace"
)

// The detailed spans of a technique run — the measured windows plus their
// attached warm-ups — consume a functional instruction stream that
// depends only on the program, never on the machine configuration. The
// shared trace store amortizes producing that stream across a sweep:
// the first configuration to run a span records it (the emulator's
// pre-decoded path emits one compact record per retired instruction),
// and every other configuration replays the records through its own
// timing core without re-emulating — record once, replay many. Replay is
// exact: the core consumes the identical stream either way, so replayed
// and emulated runs produce identical Stats and Profiles
// (TestReplayEquivalence pins this).

// DefaultTraceBudget bounds the resident bytes of the shared trace store.
// Records are 24 bytes per instruction, so the default holds ~11M
// recorded instructions across all regions; the store evicts
// least-recently-used regions past it.
const DefaultTraceBudget = 256 << 20

// tracePad is how many records a recording runs past the span's nominal
// consumption. The replaying core fetches ahead of commit by up to the
// ROB plus the fetch queue (bounded well under 512 by sim's parameter
// space), and different configurations overfetch differently; the pad
// lets one recording feed any configuration's fetch-ahead.
const tracePad = 1 << 12

// traceOverfetch is the fetch-ahead margin a region must cover beyond a
// span's nominal consumption before replay is chosen. It exceeds the
// largest possible in-flight count (ROB 256 + fetch queue 32 + commit
// width) and is far below tracePad, so any recorded region covers the
// spans it was recorded for.
const traceOverfetch = 512

var (
	traceMu     sync.Mutex
	sharedTrace *store.Store[*trace.Region] // nil: record/replay disabled (the default)
)

// NewTraceStore creates a trace store bounded to maxBytes. A region
// serves any window it covers, so a longer recording at or before a
// window's start replays it.
func NewTraceStore(maxBytes int64) *store.Store[*trace.Region] {
	return store.New(maxBytes, store.Kind{
		Metric: "trace", Hit: obs.EvTraceHit, Miss: obs.EvTraceMiss, Evict: obs.EvTraceEvict,
	}, (*trace.Region).Covers)
}

// TraceStore returns the shared trace store, or nil when record/replay is
// disabled. Unlike the checkpoint store, the trace store is off by
// default: direct Technique.Run calls pay full emulation unless the
// experiments engine (or a test) installs a store.
func TraceStore() *store.Store[*trace.Region] {
	traceMu.Lock()
	defer traceMu.Unlock()
	return sharedTrace
}

// SetTraceStore replaces the shared trace store; nil disables record and
// replay entirely.
func SetTraceStore(s *store.Store[*trace.Region]) {
	traceMu.Lock()
	defer traceMu.Unlock()
	sharedTrace = s
}

// TraceStats snapshots the shared store's accounting (zero when
// disabled).
func TraceStats() store.Stats {
	if s := TraceStore(); s != nil {
		return s.Stats()
	}
	return store.Stats{}
}

// TraceCounters returns the shared store's replay-hit/record-miss
// counters and cumulative recorded bytes (zero when disabled) without
// building a full Stats snapshot — the scheduler's per-cell cost
// bracketing rides this.
func TraceCounters() (hits, misses, recordedBytes int64) {
	if s := TraceStore(); s != nil {
		return s.Counters()
	}
	return 0, 0, 0
}

// ResetTraceCache drops all recorded regions and zeroes the store's
// counters (tests, ablations, and sweep teardown).
func ResetTraceCache() {
	if s := TraceStore(); s != nil {
		s.Reset()
	}
}

// skipTo advances the runner's stream position to the absolute position
// target. With the trace store active the skip is virtual — O(1), no
// execution — because a recorded region (or this run's own recording
// pass, which fast-forwards through the checkpoint store on demand) will
// supply the stream from there. Without a store it is an eager
// checkpointed fast-forward. Returns the instructions actually executed
// functionally.
func skipTo(ctx Context, r *sim.Runner, target uint64) (uint64, error) {
	if TraceStore() == nil {
		return checkpointedFF(ctx, r, target)
	}
	r.SkipTo(target)
	return 0, nil
}

// materialize brings the emulator's architectural state to the runner's
// (possibly virtual) stream position, composing with the checkpoint
// store. Recording owners and non-shareable spans call it before
// emulating. Returns the instructions executed functionally.
func materialize(ctx Context, r *sim.Runner) (uint64, error) {
	target := r.Position()
	r.ClearAhead()
	return checkpointedFF(ctx, r, target)
}

// tracedSpan runs one contiguous detailed span of a technique — the
// stream consumption between the current position and the span's
// quiescent end — through the trace store. want is the span's nominal
// stream consumption (the instructions body fetches, excluding
// overfetch); body performs the actual phases (warm, detailed, measure,
// drain) through the runner and observes results via its closure.
//
// share marks spans whose start position is configuration independent
// (reached by deterministic skips, not by drain-dependent consumption);
// only those are recorded and replayed — a non-shareable span would
// pollute the store with keys no other configuration can hit. SMARTS
// spans, whose starts depend on prior consumption, never share.
//
// The span outcome is exact under every path: replay feeds the core the
// identical stream the emulator would have, and a recording pass is a
// plain emulated pass with the sink on. Returns the instructions
// executed functionally (materialization; replay costs none).
func tracedSpan(ctx Context, r *sim.Runner, want uint64, share bool, body func() error) (uint64, error) {
	s := TraceStore()
	if s == nil {
		return 0, body() // store off: SkipTo never ran, position is real
	}
	if r.Done() {
		// The replayed stream already reached the program's halt; the
		// body observes a finished machine, as an emulated run would.
		return 0, body()
	}
	start := r.Position()
	if !share || trace.RegionBytes(int(want+tracePad)) > s.MaxBytes() {
		// Not shareable (or too large to ever cache): emulate plainly.
		executed, err := materialize(ctx, r)
		if err != nil {
			return executed, err
		}
		return executed, body()
	}

	var executed uint64
	ranBody := false
	reg, owned, err := s.Get(ckptCtx(ctx), store.IDOf(r.Prog), start, want+traceOverfetch,
		func(*trace.Region, uint64) (*trace.Region, error) {
			n, merr := materialize(ctx, r)
			executed += n
			if merr != nil {
				return nil, merr
			}
			r.StartRecording(int(want + tracePad))
			ranBody = true
			if berr := body(); berr != nil {
				r.StopRecording()
				return nil, berr
			}
			// Pad past the body's consumption so any configuration's
			// fetch-ahead replays within the region. The pad runs on a
			// scratch snapshot: the machine is rewound afterwards, so
			// the technique's own execution is unperturbed.
			if end := start + want + tracePad; !r.Emu.Halted && r.Emu.Count < end {
				cp := r.Emu.Snapshot()
				r.Emu.Run(end - r.Emu.Count)
				if rerr := r.Emu.Restore(cp); rerr != nil {
					r.StopRecording()
					return nil, nil // unreachable by construction; cache nothing
				}
			}
			recs := r.StopRecording()
			final := len(recs) > 0 && recs[len(recs)-1].Halt()
			return &trace.Region{Start: start, Recs: recs, Final: final}, nil
		})
	switch {
	case err != nil:
		return executed, err
	case owned:
		if !ranBody {
			return executed, body() // defensive; produce always runs it
		}
		return executed, nil
	case reg != nil:
		r.BeginReplay(reg.Recs[start-reg.Start:])
		berr := body()
		r.EndReplay()
		return executed, berr
	default:
		// The recording owner failed or fell short; emulate ourselves.
		n, merr := materialize(ctx, r)
		executed += n
		if merr != nil {
			return executed, merr
		}
		return executed, body()
	}
}

// profSource supplies a profile-collection pass with its windows,
// replaying recorded trace regions when they cover a window and
// emulating (through the checkpoint store) otherwise. It tracks the
// virtual stream position so replayed windows cost no emulation.
type profSource struct {
	ctx  Context
	e    *cpu.Emu
	vpos uint64 // stream position accounting replayed windows
	halt bool   // the stream reached the program's halt
}

func newProfSource(ctx Context, e *cpu.Emu) *profSource {
	return &profSource{ctx: ctx, e: e}
}

// pos is the current stream position (replay aware).
func (ps *profSource) pos() uint64 {
	if ps.e.Count > ps.vpos {
		ps.vpos = ps.e.Count
	}
	return ps.vpos
}

// done reports whether the stream has halted.
func (ps *profSource) done() bool { return ps.halt || ps.e.Halted }

// window profiles the dynamic window [start, start+n) into prof.
func (ps *profSource) window(start, n uint64, prof *cpu.Profile) error {
	if ps.done() {
		return nil
	}
	if s := TraceStore(); s != nil {
		if reg, ok := s.Peek(store.IDOf(ps.e.Prog), start, n); ok {
			if reg.Final && start >= reg.End() {
				// The program halts before the window begins.
				ps.halt = true
				ps.vpos = reg.End()
				return nil
			}
			rp := cpu.NewReplayer(ps.e, reg.Recs[start-reg.Start:])
			got, err := replayProfile(ps.ctx, rp, n, prof)
			if start+got > ps.vpos {
				ps.vpos = start + got
			}
			if rp.SrcDone() {
				ps.halt = true
			}
			return err
		}
	}
	if err := emuSkipTo(ps.ctx, ps.e, start); err != nil {
		return err
	}
	if err := emuRun(ps.ctx, ps.e, n, prof); err != nil {
		return err
	}
	if ps.e.Count > ps.vpos {
		ps.vpos = ps.e.Count
	}
	return nil
}

// replayProfile is emuRun's replay twin: it profiles up to n replayed
// instructions, polling the context between chunks.
func replayProfile(ctx Context, rp *cpu.Replayer, n uint64, prof *cpu.Profile) (uint64, error) {
	if ctx.Ctx == nil {
		return rp.RunProfile(n, prof), nil
	}
	every := ctx.CheckEvery
	if every == 0 {
		every = sim.DefaultCheckEvery
	}
	var got uint64
	for got < n {
		if err := ctx.Err(); err != nil {
			return got, err
		}
		c := n - got
		if c > every {
			c = every
		}
		k := rp.RunProfile(c, prof)
		got += k
		if k < c {
			break // replayed stream halted
		}
	}
	return got, nil
}
