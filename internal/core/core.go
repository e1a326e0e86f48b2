// Package core is the paper's primary contribution rebuilt as a library:
// a framework for running and comparing simulation techniques. It defines
// the Technique abstraction, implements the six techniques the paper
// characterizes — full reference simulation, reduced input sets, the three
// truncated-execution variants (Run Z, FF X + Run Z, FF X + WU Y + Run Z),
// SimPoint, and SMARTS — and provides the Table 1 catalogue of the 69
// technique permutations the study evaluates.
package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Family classifies techniques the way the paper's figures do.
type Family string

// The technique families of §2.
const (
	FamilyReference Family = "reference"
	FamilySimPoint  Family = "SimPoint"
	FamilySMARTS    Family = "SMARTS"
	FamilyReduced   Family = "Reduced"
	FamilyRunZ      Family = "Run Z"
	FamilyFFRun     Family = "FF+Run"
	FamilyFFWURun   Family = "FF+WU+Run"
)

// Families lists the six alternative families in the paper's plotting
// order (reference excluded).
func Families() []Family {
	return []Family{FamilySimPoint, FamilySMARTS, FamilyReduced, FamilyRunZ, FamilyFFRun, FamilyFFWURun}
}

// Context names one experiment: a benchmark simulated under a machine
// configuration at a given scale.
type Context struct {
	Bench  bench.Name
	Config sim.Config
	Scale  sim.Scale

	// CollectProfile requests the technique's measured execution profile
	// (BBEF/BBV) for the execution-profile characterization; it costs an
	// extra functional pass for some techniques.
	CollectProfile bool

	// Trace, when set, receives a nested span tree of the run: one root
	// span per technique with its fast-forward / warm-up / measure phases
	// as children (the runner emits the leaf phases). One tracer describes
	// one logical thread; concurrent runs should each own a tracer.
	Trace *obs.Tracer

	// Metrics, when set, accumulates the runner's per-phase instruction
	// counters and wall-clock histograms.
	Metrics *obs.Registry

	// Ctx, when set, cancels or deadlines the run: every simulation phase
	// polls it between instruction chunks (see sim.Runner.Ctx), so a
	// cancelled run returns the context's error within a bounded
	// instruction budget instead of running to completion. Nil behaves
	// like context.Background.
	Ctx context.Context

	// CheckEvery overrides the cancellation polling interval, in
	// instructions; zero uses sim.DefaultCheckEvery.
	CheckEvery uint64

	// TimelineStride, when positive, attaches an interval timeline
	// recorder to the simulated core: one sample per TimelineStride
	// committed (detailed) instructions lands in Result.Timeline. Zero
	// (the default) attaches nothing and the run pays no recording cost.
	TimelineStride uint64
}

// Err reports the context's cancellation error (nil without a context).
func (ctx Context) Err() error {
	if ctx.Ctx == nil {
		return nil
	}
	return ctx.Ctx.Err()
}

// startSpan opens a technique-level span on the context's tracer (a no-op
// without one).
func (ctx Context) startSpan(name string, attrs ...obs.Attr) *obs.Span {
	return ctx.Trace.StartSpan(name, attrs...)
}

// rootSpan opens the technique's root span, labeled with the experiment.
func (ctx Context) rootSpan(tech Technique) *obs.Span {
	return ctx.Trace.StartSpan("technique "+tech.Name(),
		obs.Str("bench", string(ctx.Bench)), obs.Str("config", ctx.Config.Name))
}

// Result is the outcome of applying a technique.
type Result struct {
	// Stats are the technique's estimated architectural statistics — the
	// numbers an architect would report from this technique.
	Stats sim.Stats

	// Profile is the measured execution profile (nil unless requested).
	Profile *cpu.Profile

	// DetailedInstr and FunctionalInstr decompose the simulation work.
	DetailedInstr   uint64
	FunctionalInstr uint64

	// Wall is the technique's own execution time, the basis of the
	// speed-versus-accuracy analysis. SetupWall is one-time cost
	// attributable to technique preparation (SimPoint's profiling and
	// clustering), reported separately as the paper does.
	Wall      time.Duration
	SetupWall time.Duration

	// Simulations counts the passes SMARTS needed (1 for everything else).
	Simulations int

	// Timeline holds the technique's interval samples when the context
	// requested a recorder (Context.TimelineStride > 0): one entry per
	// stride of detailed instructions, in execution order. For multi-pass
	// techniques (SMARTS) the passes' samples concatenate in pass order,
	// each pass's At counter restarting from zero. The samples derive
	// purely from the deterministic cycle stream, so a cell's timeline is
	// byte-identical at any worker count and whether its stream is
	// emulated or replayed, with or without checkpoints.
	Timeline []cpu.TimelineSample `json:"timeline,omitempty"`
}

// CPI is shorthand for the estimated cycles per instruction.
func (r Result) CPI() float64 { return r.Stats.CPI() }

// Telemetry is the run-cost block of a Result: what the technique spent to
// produce its estimate, the raw material of every speed-versus-accuracy
// analysis (§5).
type Telemetry struct {
	Wall      time.Duration `json:"wall_ns"`
	SetupWall time.Duration `json:"setup_wall_ns"`

	// Instruction-count decomposition of the simulation work.
	DetailedInstr   uint64 `json:"detailed_instr"`
	FunctionalInstr uint64 `json:"functional_instr"`
	SimulatedInstr  uint64 `json:"simulated_instr"` // detailed + functional

	// DetailedFrac is the fraction of simulated instructions executed in
	// the (slow) cycle-level model; the rest were fast-forwarded or
	// functionally warmed.
	DetailedFrac float64 `json:"detailed_frac"`

	// HostMIPS is millions of simulated instructions per host second of
	// the technique's own wall-clock (setup excluded).
	HostMIPS float64 `json:"host_mips"`

	Simulations int `json:"simulations"`
}

// Telemetry derives the run's telemetry block from the result's cost
// fields.
func (r Result) Telemetry() Telemetry {
	t := Telemetry{
		Wall:            r.Wall,
		SetupWall:       r.SetupWall,
		DetailedInstr:   r.DetailedInstr,
		FunctionalInstr: r.FunctionalInstr,
		SimulatedInstr:  r.DetailedInstr + r.FunctionalInstr,
		Simulations:     r.Simulations,
	}
	if t.SimulatedInstr > 0 {
		t.DetailedFrac = float64(t.DetailedInstr) / float64(t.SimulatedInstr)
	}
	if r.Wall > 0 {
		t.HostMIPS = float64(t.SimulatedInstr) / r.Wall.Seconds() / 1e6
	}
	return t
}

// String formats the telemetry as a one-line summary.
func (t Telemetry) String() string {
	return fmt.Sprintf("wall %v (+%v setup), %d instr simulated (%.1f%% detailed), %.1f host-MIPS, %d simulation(s)",
		t.Wall.Round(time.Microsecond), t.SetupWall.Round(time.Microsecond),
		t.SimulatedInstr, 100*t.DetailedFrac, t.HostMIPS, t.Simulations)
}

// Technique is one simulation technique permutation.
type Technique interface {
	// Name returns the permutation label using the paper's units, e.g.
	// "FF 4000M + WU 10M + Run 1000M".
	Name() string
	Family() Family
	Run(ctx Context) (Result, error)
}

// newRunner builds the simulated machine for a context over the given
// input set.
func newRunner(ctx Context, input bench.InputSet) (*sim.Runner, error) {
	p, err := bench.Build(ctx.Bench, input, ctx.Scale)
	if err != nil {
		return nil, err
	}
	r, err := sim.NewRunner(p, ctx.Config)
	if err != nil {
		return nil, fmt.Errorf("core: %s/%s: %w", ctx.Bench, input, err)
	}
	r.Trace = ctx.Trace
	r.Metrics = ctx.Metrics
	r.Ctx = ctx.Ctx
	r.CheckEvery = ctx.CheckEvery
	if ctx.TimelineStride > 0 {
		r.AttachTimeline(ctx.TimelineStride)
	}
	return r, nil
}

// emuRun functionally executes n instructions on a raw emulator, polling
// the context between chunks (profile collection passes are as long as the
// techniques' own phases, so they honor cancellation the same way). When
// prof is non-nil the instructions are profiled into it.
func emuRun(ctx Context, e *cpu.Emu, n uint64, prof *cpu.Profile) error {
	step := func(c uint64) uint64 {
		if prof != nil {
			return e.RunProfile(c, prof)
		}
		return e.Run(c)
	}
	if ctx.Ctx == nil {
		step(n)
		return nil
	}
	every := ctx.CheckEvery
	if every == 0 {
		every = sim.DefaultCheckEvery
	}
	var got uint64
	for got < n {
		if err := ctx.Err(); err != nil {
			return err
		}
		c := n - got
		if c > every {
			c = every
		}
		k := step(c)
		got += k
		if k < c {
			return nil // program halted
		}
	}
	return nil
}

// profileWindow functionally profiles the dynamic window [skip, skip+n) of
// a benchmark/input pair — the measured profile of a truncated technique.
// The window replays a recorded trace region when one covers it and falls
// back to checkpointed emulation otherwise.
func profileWindow(ctx Context, input bench.InputSet, skip, n uint64) (*cpu.Profile, error) {
	p, err := bench.Build(ctx.Bench, input, ctx.Scale)
	if err != nil {
		return nil, err
	}
	prof := cpu.NewProfile(p)
	if err := newProfSource(ctx, cpu.NewEmu(p)).window(skip, n, prof); err != nil {
		return nil, err
	}
	return prof, nil
}

// Reference simulates the reference input set to completion in detail —
// the ground truth every technique is compared against.
type Reference struct{}

// Name implements Technique.
func (Reference) Name() string { return "reference" }

// Family implements Technique.
func (Reference) Family() Family { return FamilyReference }

// Run implements Technique.
func (t Reference) Run(ctx Context) (Result, error) {
	root := ctx.rootSpan(t)
	defer root.End()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	r, err := newRunner(ctx, bench.Reference)
	if err != nil {
		return Result{}, err
	}
	st := r.RunToCompletion()
	if err := r.Err(); err != nil {
		return Result{}, err
	}
	res := Result{
		Stats:         st,
		DetailedInstr: st.Instructions,
		Wall:          time.Since(start),
		Simulations:   1,
		Timeline:      r.TimelineSamples(),
	}
	if ctx.CollectProfile {
		prof, err := profileWindow(ctx, bench.Reference, 0, ^uint64(0)>>1)
		if err != nil {
			return Result{}, err
		}
		res.Profile = prof
	}
	return res, nil
}

// Reduced simulates a reduced input set (MinneSPEC small/medium/large or
// SPEC test/train) to completion in detail.
type Reduced struct {
	Input bench.InputSet
}

// Name implements Technique.
func (t Reduced) Name() string { return "reduced " + string(t.Input) }

// Family implements Technique.
func (Reduced) Family() Family { return FamilyReduced }

// Run implements Technique.
func (t Reduced) Run(ctx Context) (Result, error) {
	root := ctx.rootSpan(t)
	defer root.End()
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	r, err := newRunner(ctx, t.Input)
	if err != nil {
		return Result{}, err
	}
	st := r.RunToCompletion()
	if err := r.Err(); err != nil {
		return Result{}, err
	}
	res := Result{
		Stats:         st,
		DetailedInstr: st.Instructions,
		Wall:          time.Since(start),
		Simulations:   1,
		Timeline:      r.TimelineSamples(),
	}
	if ctx.CollectProfile {
		prof, err := profileWindow(ctx, t.Input, 0, ^uint64(0)>>1)
		if err != nil {
			return Result{}, err
		}
		res.Profile = prof
	}
	return res, nil
}
