package core

import (
	"context"
	"sync"

	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// The functional prefix of a technique run — fast-forwarding to the first
// measurement region, or skipping to a profile window — depends only on
// the program, never on the machine configuration. A multi-configuration
// sweep (the Plackett-Burman design runs ~44 configurations per benchmark)
// therefore re-executes the exact same instruction stream once per
// configuration. The shared checkpoint store amortizes that work across
// every consumer: the first run to need a prefix executes it and snapshots
// the architectural state; later runs — including concurrent runs under
// the parallel scheduler, via single-flight population — restore the
// snapshot instead.

// DefaultCheckpointBudget bounds the resident bytes of the shared store.
// Checkpoints copy whole program memories, so the bound is what keeps a
// long sweep from accumulating snapshots without limit; the store evicts
// least-recently-used entries past it.
const DefaultCheckpointBudget = 256 << 20

// minCkptPrefix is the shortest prefix (in instructions from program
// start) worth checkpointing: below it, re-executing is cheaper than the
// snapshot's memory copy and the store bookkeeping.
const minCkptPrefix = 1 << 12

var (
	ckptMu      sync.Mutex
	sharedCkpts = NewCheckpointStore(DefaultCheckpointBudget)
)

// NewCheckpointStore creates a checkpoint store bounded to maxBytes. A
// checkpoint serves only its exact position; a missing prefix's producer
// restores the nearest resident checkpoint below it and executes forward.
func NewCheckpointStore(maxBytes int64) *store.Store[*cpu.Checkpoint] {
	return store.New[*cpu.Checkpoint](maxBytes, store.Kind{
		Metric: "ckpt", Hit: obs.EvCkptHit, Miss: obs.EvCkptMiss, Evict: obs.EvCkptEvict,
	}, nil)
}

// CheckpointStore returns the shared functional-prefix checkpoint store
// (nil when disabled via SetCheckpointStore(nil)).
func CheckpointStore() *store.Store[*cpu.Checkpoint] {
	ckptMu.Lock()
	defer ckptMu.Unlock()
	return sharedCkpts
}

// SetCheckpointStore replaces the shared store; nil disables checkpointing
// entirely (every prefix is executed). Tests and ablations use this to
// isolate or size the store.
func SetCheckpointStore(s *store.Store[*cpu.Checkpoint]) {
	ckptMu.Lock()
	defer ckptMu.Unlock()
	sharedCkpts = s
}

// CheckpointStats snapshots the shared store's accounting (zero when
// disabled).
func CheckpointStats() store.Stats {
	if s := CheckpointStore(); s != nil {
		return s.Stats()
	}
	return store.Stats{}
}

// CheckpointCounters returns the shared store's hit/miss counters (zero
// when disabled) without building a full Stats snapshot — the
// scheduler's per-cell cost bracketing rides this.
func CheckpointCounters() (hits, misses int64) {
	if s := CheckpointStore(); s != nil {
		hits, misses, _ = s.Counters()
	}
	return hits, misses
}

// ResetCheckpointCache drops all cached checkpoints and zeroes the store's
// counters (tests, ablations, and sweep teardown).
func ResetCheckpointCache() {
	if s := CheckpointStore(); s != nil {
		s.Reset()
	}
}

// ckptCtx adapts the experiment context to the store's cancellation.
func ckptCtx(ctx Context) context.Context {
	if ctx.Ctx != nil {
		return ctx.Ctx
	}
	return context.Background()
}

// checkpointedFF advances the runner's architectural state to the absolute
// position target (instructions from program start), serving the prefix
// from the shared store when possible. It returns the number of
// instructions actually executed functionally: a restored prefix costs —
// and counts — nothing, preserving the "functional work done" semantics of
// Result.FunctionalInstr.
//
// Restoring is exact, not approximate: a checkpoint captures the complete
// architectural state and fast-forwarding touches no micro-architectural
// state, so a run that restores is indistinguishable from one that
// executed the prefix. TestCheckpointEquivalence pins this.
func checkpointedFF(ctx Context, r *sim.Runner, target uint64) (uint64, error) {
	cur := r.Emu.Count
	if target <= cur {
		return 0, nil
	}
	s := CheckpointStore()
	if s == nil || target < minCkptPrefix || r.Core.InFlight() != 0 {
		got := r.FastForward(target - cur)
		return got, r.Err()
	}
	var executed uint64
	cp, owned, err := s.Get(ckptCtx(ctx), store.IDOf(r.Prog), target, 0,
		func(near *cpu.Checkpoint, nearPos uint64) (*cpu.Checkpoint, error) {
			if near != nil && nearPos > r.Emu.Count {
				sp := ctx.startSpan("ckpt-restore")
				err := r.RestoreCheckpoint(near)
				sp.End()
				_ = err // a failed restore just means executing the whole prefix
			}
			if target > r.Emu.Count {
				executed += r.FastForward(target - r.Emu.Count)
			}
			if err := r.Err(); err != nil {
				return nil, err
			}
			if r.Emu.Count != target {
				return nil, nil // halted inside the prefix: nothing to cache
			}
			cp, err := r.Checkpoint()
			if err != nil {
				return nil, nil // pipeline not quiescent: run on, uncached
			}
			return cp, nil
		})
	switch {
	case err != nil:
		return executed, err
	case owned:
		return executed, nil // the machine is already at target
	case cp == nil:
		// The population owner failed; execute the prefix ourselves.
		executed += r.FastForward(target - r.Emu.Count)
		return executed, r.Err()
	default:
		sp := ctx.startSpan("ckpt-restore")
		rerr := r.RestoreCheckpoint(cp)
		sp.End()
		if rerr != nil {
			executed += r.FastForward(target - r.Emu.Count)
		}
		return executed, r.Err()
	}
}

// emuSkipTo is checkpointedFF for a raw emulator: profile-collection
// passes skip to their windows through the same store, so a technique's
// measurement run and its profile run (and every later configuration's)
// share one execution of each prefix.
func emuSkipTo(ctx Context, e *cpu.Emu, target uint64) error {
	if target <= e.Count {
		return nil
	}
	s := CheckpointStore()
	if s == nil || target < minCkptPrefix {
		return emuRun(ctx, e, target-e.Count, nil)
	}
	cp, owned, err := s.Get(ckptCtx(ctx), store.IDOf(e.Prog), target, 0,
		func(near *cpu.Checkpoint, nearPos uint64) (*cpu.Checkpoint, error) {
			if near != nil && nearPos > e.Count {
				_ = e.Restore(near) // failure: execute from the current position
			}
			if err := emuRun(ctx, e, target-e.Count, nil); err != nil {
				return nil, err
			}
			if e.Count != target {
				return nil, nil // halted inside the prefix
			}
			return e.Snapshot(), nil
		})
	if err != nil || owned {
		return err
	}
	if cp == nil {
		return emuRun(ctx, e, target-e.Count, nil)
	}
	if e.Restore(cp) != nil {
		return emuRun(ctx, e, target-e.Count, nil)
	}
	return nil
}
