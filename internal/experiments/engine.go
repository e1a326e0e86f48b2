// Package experiments contains one driver per table and figure of the
// paper's evaluation (see DESIGN.md §4): each driver regenerates the rows
// or series the paper reports, on top of a caching execution engine so
// that figures sharing simulations (the PB configurations feed Figures 1,
// 2, 3, 4 and 5) pay for each run once.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments/sched"
	"repro/internal/obs"
	"repro/internal/pb"
	"repro/internal/runstate"
	"repro/internal/sim"
	"repro/internal/watchdog"
	"repro/internal/xrand"
)

// cacheShards is the number of independent cache/single-flight shards.
// Parallel scheduler workers hash onto shards by run key (which embeds
// sim.Config.Key), so they contend on a shard mutex only when they race
// on nearby keys instead of serializing on one engine-wide lock.
const cacheShards = 16

// engineShard is one slice of the result cache and its in-flight table.
// A run key always maps to the same shard, so single-flight semantics
// are unchanged by sharding.
type engineShard struct {
	mu       sync.Mutex
	cache    map[string]core.Result
	inflight map[string]*inflightRun
}

// Engine executes technique runs with memoization and single-flight
// deduplication: concurrent requests for the same (benchmark, technique,
// configuration) key share one fresh run. Every run is instrumented into a
// metrics registry — cache hits/misses/evictions, a fresh-run latency
// histogram, and an in-flight gauge — replacing the old ad-hoc Log hook.
//
// The cache is sharded (see cacheShards) and all counters are atomics,
// so the engine scales across the parallel scheduler's workers and every
// telemetry read is race-free by construction.
type Engine struct {
	Scale   sim.Scale
	Profile bool // collect execution profiles on every run

	// Obs is the registry receiving the engine's instrumentation
	// (engine_runs_total, engine_cache_hits_total,
	// engine_cache_evictions_total, engine_inflight_runs,
	// engine_fresh_run_seconds). Nil uses obs.Default. Set before the
	// first Run.
	Obs *obs.Registry

	// MaxEntries bounds the result cache (0 = unbounded). When the bound
	// is exceeded the oldest entry is evicted, FIFO: long experiment
	// sweeps can cap their memory while the per-figure sharing window
	// stays warm. The bound is global across shards.
	MaxEntries int

	// Retry is the transient-failure policy applied to every fresh run.
	// The zero value disables retries; see DefaultRetryPolicy. Set before
	// the first Run.
	Retry RetryPolicy

	// CheckEvery overrides the runner's cancellation polling interval for
	// runs issued through this engine (0 = sim.DefaultCheckEvery).
	CheckEvery uint64

	// TimelineStride, when positive, arms the interval timeline recorder
	// on every run this engine issues (see core.Context.TimelineStride):
	// one sample per TimelineStride committed detailed instructions lands
	// in the result's Timeline. 0 disables recording. Part of neither the
	// cache key nor the determinism contract's inputs — a timeline is a
	// pure function of the cell's deterministic cycle stream. Set before
	// the first Run.
	TimelineStride uint64

	// CellTimeout arms the hang watchdog: an attempt whose runner makes
	// no progress (no heartbeat from the chunked cancellation polling)
	// for this long is cancelled, its goroutine stacks are dumped into
	// the journal, and the attempt fails with a typed *HangError that
	// the retry policy treats as transient. 0 (the default) disables the
	// watchdog and keeps the historical zero-overhead run path. Set
	// before the first Run.
	CellTimeout time.Duration

	// Journal receives the engine's flight-recorder events (request
	// dedup, retries, recovered panics). Nil uses obs.DefaultJournal,
	// disabled by default and free when off.
	Journal *obs.Journal

	shards [cacheShards]engineShard

	// FIFO eviction bookkeeping, global so MaxEntries means what it says
	// regardless of how keys hash across shards. evictMu is only taken
	// after a shard insert completes (never while a shard lock is held),
	// so the lock order shard→evict is acyclic.
	evictMu sync.Mutex
	order   []string // insertion order of cached keys
	entries int      // cached entries across all shards

	// Counters are atomics: Stats/Telemetry/String read them without any
	// lock, so no reader can observe a torn or racy snapshot.
	runs        atomic.Int64
	hits        atomic.Int64
	evictions   atomic.Int64
	retries     atomic.Int64
	failures    atomic.Int64
	sharedErrs  atomic.Int64
	inflightNow atomic.Int64
	freshWallNS atomic.Int64

	metricsOnce sync.Once
	mRuns       *obs.Counter
	mHits       *obs.Counter
	mEvictions  *obs.Counter
	mInFlight   *obs.Gauge
	mLatency    *obs.Histogram
	mRetries    *obs.Counter
	mFailures   *obs.Counter
	mPanics     *obs.Counter
	mCancels    *obs.Counter
	mSharedErrs *obs.Counter
	mHangs      *obs.Counter
}

// inflightRun is one fresh run in progress; waiters block on done and read
// res/err afterwards.
type inflightRun struct {
	done chan struct{}
	res  core.Result
	err  error
}

// NewEngine creates an engine at the given scale.
func NewEngine(scale sim.Scale) *Engine {
	e := &Engine{Scale: scale}
	for i := range e.shards {
		e.shards[i].cache = make(map[string]core.Result)
		e.shards[i].inflight = make(map[string]*inflightRun)
	}
	return e
}

// journal returns the engine's flight recorder (never nil).
func (e *Engine) journal() *obs.Journal {
	if e.Journal != nil {
		return e.Journal
	}
	return obs.DefaultJournal
}

// shard returns the shard owning a run key.
func (e *Engine) shard(key string) *engineShard {
	h := fnv.New64a()
	h.Write([]byte(key))
	return &e.shards[h.Sum64()%cacheShards]
}

// initMetrics binds the registry series (lazily, so Obs can be assigned
// after construction).
func (e *Engine) initMetrics() {
	e.metricsOnce.Do(func() {
		r := e.Obs
		if r == nil {
			r = obs.Default
		}
		e.mRuns = r.Counter("engine_runs_total")
		e.mHits = r.Counter("engine_cache_hits_total")
		e.mEvictions = r.Counter("engine_cache_evictions_total")
		e.mInFlight = r.Gauge("engine_inflight_runs")
		e.mLatency = r.Histogram("engine_fresh_run_seconds", obs.LatencyBuckets)
		e.mRetries = r.Counter("engine_retries_total")
		e.mFailures = r.Counter("engine_failures_total")
		e.mPanics = r.Counter("engine_panics_total")
		e.mCancels = r.Counter("engine_cancellations_total")
		e.mSharedErrs = r.Counter("engine_shared_errors_total")
		e.mHangs = r.Counter("engine_hangs_total")
	})
}

// Stats reports fresh runs and cache hits. The counters are atomics, so
// the read needs no lock and can never race with a run in progress.
func (e *Engine) Stats() (runs, hits int) {
	return int(e.runs.Load()), int(e.hits.Load())
}

// EngineTelemetry is a point-in-time summary of the engine's bookkeeping.
type EngineTelemetry struct {
	Runs      int           `json:"runs"`
	Hits      int           `json:"hits"`
	Evictions int           `json:"evictions"`
	InFlight  int           `json:"in_flight"`
	FreshWall time.Duration `json:"fresh_wall_ns"`

	// Failure accounting: Retries counts re-attempts of transient
	// failures, Failures counts runs whose final attempt failed, and
	// SharedErrors counts single-flight waiters that inherited another
	// caller's failure (deliberately not cache hits, so the hit rate
	// stays honest).
	Retries      int `json:"retries"`
	Failures     int `json:"failures"`
	SharedErrors int `json:"shared_errors"`

	// Entries is the number of results currently cached (across all
	// shards), for observing the MaxEntries bound.
	Entries int `json:"entries"`
}

// HitRate returns the cache hit fraction over all requests.
func (t EngineTelemetry) HitRate() float64 {
	total := t.Runs + t.Hits
	if total == 0 {
		return 0
	}
	return float64(t.Hits) / float64(total)
}

// String formats the telemetry as a one-line CLI summary.
func (t EngineTelemetry) String() string {
	mean := time.Duration(0)
	if t.Runs > 0 {
		mean = t.FreshWall / time.Duration(t.Runs)
	}
	s := fmt.Sprintf("engine: %d fresh runs (wall %v, mean %v), %d cache hits (%.1f%% hit rate), %d evictions",
		t.Runs, t.FreshWall.Round(time.Millisecond), mean.Round(time.Millisecond),
		t.Hits, 100*t.HitRate(), t.Evictions)
	if t.Retries+t.Failures+t.SharedErrors > 0 {
		s += fmt.Sprintf(", %d retries, %d failures, %d shared errors",
			t.Retries, t.Failures, t.SharedErrors)
	}
	return s
}

// Telemetry snapshots the engine's counters. All counters are atomics,
// so the snapshot is race-free without stopping the engine (individual
// fields may be skewed by runs completing mid-snapshot, as with any
// monitoring read).
func (e *Engine) Telemetry() EngineTelemetry {
	e.evictMu.Lock()
	entries := e.entries
	e.evictMu.Unlock()
	return EngineTelemetry{
		Runs: int(e.runs.Load()), Hits: int(e.hits.Load()), Evictions: int(e.evictions.Load()),
		InFlight: int(e.inflightNow.Load()), FreshWall: time.Duration(e.freshWallNS.Load()),
		Retries: int(e.retries.Load()), Failures: int(e.failures.Load()),
		SharedErrors: int(e.sharedErrs.Load()),
		Entries:      entries,
	}
}

// key fingerprints one run request. sim.Config.Key is canonical over named
// fields, so the key is collision-free and cheap on the hot path.
func (e *Engine) key(b bench.Name, tech core.Technique, cfg sim.Config) string {
	return string(b) + "|" + tech.Name() + "|" + cfg.Key() + "|p=" + strconv.FormatBool(e.Profile)
}

// Run executes (or recalls) one technique run with a background context.
// See RunContext.
func (e *Engine) Run(b bench.Name, tech core.Technique, cfg sim.Config) (core.Result, error) {
	return e.RunContext(context.Background(), b, tech, cfg)
}

// RunContextPolicy is RunContext with an explicit retry policy for this
// run, overriding the engine-wide Retry. The scheduler uses it to honor
// a cell's declared retry class. Note the single-flight caveat: when two
// callers race on the same key, the first one in applies its policy.
func (e *Engine) RunContextPolicy(ctx context.Context, b bench.Name, tech core.Technique, cfg sim.Config, pol RetryPolicy) (core.Result, error) {
	res, _, err := e.runContext(ctx, b, tech, cfg, pol)
	return res, err
}

// RunInfo describes how the engine satisfied one request, for the cost
// attribution layer: where the result came from and what retry spend the
// request itself incurred (a cache or single-flight answer costs no
// retries of its own, whatever the owning run spent).
type RunInfo struct {
	// Source is "fresh" (this caller executed the run), "cache" (answered
	// from the memo table), or "inflight" (joined another caller's run —
	// including inheriting its failure).
	Source string
	// Retries counts the transient-failure re-attempts this request spent
	// (always 0 for cache/inflight answers).
	Retries int
}

// RunContextInfo is RunContext returning, additionally, how the request
// was satisfied. The scheduler's cost bracketing rides this to mark
// deduplicated cells and attribute retry spend.
func (e *Engine) RunContextInfo(ctx context.Context, b bench.Name, tech core.Technique, cfg sim.Config) (core.Result, RunInfo, error) {
	return e.runContext(ctx, b, tech, cfg, e.Retry)
}

// RunContextPolicyInfo is RunContextPolicy returning RunInfo.
func (e *Engine) RunContextPolicyInfo(ctx context.Context, b bench.Name, tech core.Technique, cfg sim.Config, pol RetryPolicy) (core.Result, RunInfo, error) {
	return e.runContext(ctx, b, tech, cfg, pol)
}

// RunContext executes (or recalls) one technique run under ctx. Concurrent
// callers with the same key share a single fresh run: exactly one executes
// the technique, the rest block and count as cache hits (successes) or
// shared errors (failures — never hits, so the hit rate stays honest).
//
// Failure handling: a panicking technique is recovered into a typed
// *RunError wrapping a *PanicError; transient errors are retried under the
// engine's RetryPolicy with capped exponential backoff and context-aware
// sleeps; failed results are never cached, so a later request retries
// fresh. A cancelled or deadline-expired ctx aborts the run within the
// runner's cancellation-check budget and returns an error satisfying
// errors.Is(err, ctx.Err()).
func (e *Engine) RunContext(ctx context.Context, b bench.Name, tech core.Technique, cfg sim.Config) (core.Result, error) {
	res, _, err := e.runContext(ctx, b, tech, cfg, e.Retry)
	return res, err
}

// runContext is the shared body of the RunContext variants: look up the
// key's shard, join an in-flight run or own a fresh one, and settle the
// shard's cache and the engine's (atomic) accounting.
func (e *Engine) runContext(ctx context.Context, b bench.Name, tech core.Technique, cfg sim.Config, pol RetryPolicy) (core.Result, RunInfo, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	e.initMetrics()
	k := e.key(b, tech, cfg)
	s := e.shard(k)

	s.mu.Lock()
	if r, ok := s.cache[k]; ok {
		s.mu.Unlock()
		e.hits.Add(1)
		e.mHits.Inc()
		if j := e.journal(); j.Enabled() {
			j.Record(obs.Event{Kind: obs.EvEngineDedup, Actor: -1, Subject: k, Detail: "cache"})
		}
		return r, RunInfo{Source: "cache"}, nil
	}
	if f, ok := s.inflight[k]; ok {
		s.mu.Unlock()
		if j := e.journal(); j.Enabled() {
			j.Record(obs.Event{Kind: obs.EvEngineDedup, Actor: -1, Subject: k, Detail: "inflight"})
		}
		select {
		case <-f.done:
		case <-ctx.Done():
			// The waiter's own context ended; the in-flight run keeps
			// going for its owner.
			e.mCancels.Inc()
			return core.Result{}, RunInfo{Source: "inflight"}, ctx.Err()
		}
		if f.err != nil {
			e.sharedErrs.Add(1)
			e.mSharedErrs.Inc()
			return core.Result{}, RunInfo{Source: "inflight"}, f.err
		}
		e.hits.Add(1)
		e.mHits.Inc()
		return f.res, RunInfo{Source: "inflight"}, nil
	}
	f := &inflightRun{done: make(chan struct{})}
	s.inflight[k] = f
	s.mu.Unlock()

	e.inflightNow.Add(1)
	e.mInFlight.Add(1)
	res, err, elapsed, retried := e.attempt(ctx, b, tech, cfg, k, pol)
	e.mInFlight.Add(-1)
	e.inflightNow.Add(-1)

	e.retries.Add(int64(retried))
	s.mu.Lock()
	delete(s.inflight, k)
	if err == nil {
		s.cache[k] = res
	}
	f.res, f.err = res, err
	close(f.done)
	s.mu.Unlock()

	if err != nil {
		e.failures.Add(1)
		e.mFailures.Inc()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			e.mCancels.Inc()
		}
		return core.Result{}, RunInfo{Source: "fresh", Retries: retried}, err
	}
	e.runs.Add(1)
	e.freshWallNS.Add(int64(elapsed))
	e.mRuns.Inc()
	e.recordInsert(k)
	return res, RunInfo{Source: "fresh", Retries: retried}, nil
}

// recordInsert appends a freshly cached key to the global FIFO order and
// enforces MaxEntries, evicting the oldest keys from whichever shards
// own them. Called after the shard insert, never under a shard lock.
func (e *Engine) recordInsert(k string) {
	var evict []string
	e.evictMu.Lock()
	e.order = append(e.order, k)
	e.entries++
	if e.MaxEntries > 0 {
		for e.entries > e.MaxEntries && len(e.order) > 0 {
			evict = append(evict, e.order[0])
			e.order = e.order[1:]
			e.entries--
		}
	}
	e.evictMu.Unlock()
	for _, old := range evict {
		s := e.shard(old)
		s.mu.Lock()
		delete(s.cache, old)
		s.mu.Unlock()
		e.evictions.Add(1)
		e.mEvictions.Inc()
	}
}

// attempt runs the technique under the retry policy, returning the final
// result or typed error, the total fresh wall-clock, and the retry count.
func (e *Engine) attempt(ctx context.Context, b bench.Name, tech core.Technique, cfg sim.Config, key string, pol RetryPolicy) (core.Result, error, time.Duration, int) {
	max := pol.MaxAttempts
	if max < 1 {
		max = 1
	}
	// Deterministic jitter: the stream is keyed so two engines with the
	// same policy and corpus reproduce the same retry schedule.
	h := fnv.New64a()
	h.Write([]byte(key))
	seed := pol.Seed
	if seed == 0 {
		seed = 0x726f627573 // "robus(t)"
	}
	rng := xrand.New(seed ^ h.Sum64())

	var total time.Duration
	var res core.Result
	var err error
	attempts := 0
	for {
		attempts++
		start := time.Now()
		res, err = e.runGuarded(ctx, b, tech, cfg, key)
		elapsed := time.Since(start)
		total += elapsed
		e.mLatency.Observe(elapsed.Seconds())
		if err == nil {
			return res, nil, total, attempts - 1
		}
		if attempts >= max || !pol.retryable(err) {
			break
		}
		e.mRetries.Inc()
		if j := e.journal(); j.Enabled() {
			j.Record(obs.Event{Kind: obs.EvCellRetry, Actor: -1, Subject: key,
				Detail: err.Error(), N: int64(attempts)})
		}
		if serr := sleepCtx(ctx, pol.delay(attempts, rng)); serr != nil {
			err = serr
			break
		}
	}
	var re *RunError
	if !errors.As(err, &re) {
		err = &RunError{
			Key: key, Bench: b, Technique: tech.Name(), Config: cfg.Name,
			Phase: classifyPhase(err), Attempts: attempts, Cause: err,
		}
	}
	return core.Result{}, err, total, attempts - 1
}

// hangStackBudget bounds the stack dump embedded in a journal event's
// Detail (the full capture stays on the *HangError).
const hangStackBudget = 8 << 10

// runGuarded wraps one attempt with the hang watchdog when CellTimeout is
// set: the attempt runs under a cancellable context carrying a progress
// heartbeat that the runner's chunked polling beats. If the heartbeat
// goes quiet for a full CellTimeout, the watchdog captures every
// goroutine's stack, records an EvHang journal event, and cancels the
// attempt's context — the wedged run unwinds through the runner's normal
// cancellation path and the attempt fails with a typed *HangError instead
// of blocking its scheduler worker forever.
func (e *Engine) runGuarded(ctx context.Context, b bench.Name, tech core.Technique, cfg sim.Config, key string) (core.Result, error) {
	if e.CellTimeout <= 0 {
		return e.runOnce(ctx, b, tech, cfg)
	}
	hb := &watchdog.Heartbeat{}
	// Always derive a cancellable context: runOnce strips a bare
	// context.Background() down to nil (no chunk polling), which would
	// starve the heartbeat; the derived context keeps polling active.
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var stall struct {
		sync.Mutex
		stack []byte
		idle  time.Duration
		beats int64
	}
	wd := watchdog.Watch(hb, e.CellTimeout, func(idle time.Duration, beats int64) {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		stall.Lock()
		stall.stack, stall.idle, stall.beats = buf, idle, beats
		stall.Unlock()
		e.mHangs.Inc()
		if j := e.journal(); j.Enabled() {
			detail := buf
			if len(detail) > hangStackBudget {
				detail = detail[:hangStackBudget]
			}
			j.Record(obs.Event{Kind: obs.EvHang, Actor: -1, Subject: key,
				Detail: string(detail), N: beats, DurNS: int64(idle)})
		}
		cancel() // unwind the stalled run
	})
	res, err := e.runOnce(watchdog.WithHeartbeat(cctx, hb), b, tech, cfg)
	wd.Stop() // joins the monitor: the stall capture below is race-free
	if wd.Fired() {
		stall.Lock()
		defer stall.Unlock()
		return core.Result{}, &HangError{
			Key: key, Timeout: e.CellTimeout,
			Idle: stall.idle, Beats: stall.beats, Stack: stall.stack,
		}
	}
	return res, err
}

// runOnce performs a single technique run, converting a panic into a
// *PanicError so one crashing run cannot take down the whole driver.
func (e *Engine) runOnce(ctx context.Context, b bench.Name, tech core.Technique, cfg sim.Config) (res core.Result, err error) {
	defer func() {
		if v := recover(); v != nil {
			e.mPanics.Inc()
			err = &PanicError{Value: v, Stack: debug.Stack()}
			if j := e.journal(); j.Enabled() {
				j.Record(obs.Event{Kind: obs.EvCellPanic, Actor: -1,
					Subject: string(b) + "/" + tech.Name() + "/" + cfg.Name,
					Detail:  fmt.Sprint(v)})
			}
		}
	}()
	runCtx := ctx
	if runCtx == context.Background() {
		// Keep the historical zero-overhead path: an uncancellable
		// context needs no polling, so the runner skips chunking.
		runCtx = nil
	}
	return tech.Run(core.Context{
		Bench:          b,
		Config:         cfg,
		Scale:          e.Scale,
		CollectProfile: e.Profile,
		Ctx:            runCtx,
		CheckEvery:     e.CheckEvery,
		TimelineStride: e.TimelineStride,
	})
}

// Options selects the experiment corpus. The zero value is not useful; use
// DefaultOptions.
type Options struct {
	Scale    sim.Scale
	Benches  []bench.Name
	Full     bool // full Table 1 catalogue instead of the representative subset
	Foldover bool // fold the PB design (doubles the configuration count)

	// SvATBench overrides the benchmark for the speed-versus-accuracy
	// figures (gcc for Figure 3, mcf for Figure 4).
	SvATBench bench.Name

	// TechniquesFn overrides the technique catalogue per benchmark
	// (tests and ablations shrink the corpus this way).
	TechniquesFn func(bench.Name) []core.Technique

	// Ctx cancels or deadlines the whole sweep; every engine run issued
	// by the drivers inherits it. Nil behaves like context.Background.
	Ctx context.Context

	// FailFast restores the abort-on-first-error behavior: any failed
	// cell fails its driver immediately. The default (false) degrades
	// gracefully — drivers record failed cells in Report and render the
	// artifacts that remain.
	FailFast bool

	// Parallel sizes the experiment scheduler's worker pool. 0 (the
	// default) keeps the historical inline-serial path; 1 schedules
	// through a single worker (same output, scheduler overhead
	// measurable); N > 1 runs independent cells concurrently. Rendered
	// artifacts are byte-identical at every value — see
	// docs/parallelism.md for the determinism argument.
	Parallel int

	// SchedSeed seeds the scheduler's per-worker RNG streams (0 uses the
	// sched package default).
	SchedSeed uint64

	// CellTimeout arms the engines' hang watchdog (see Engine.CellTimeout).
	// Set before the first Engine()/ProfileEngine() call.
	CellTimeout time.Duration

	// TraceMode selects the record-once/replay-many functional trace store
	// (see core.TraceStore): "auto" installs a shared store sized by
	// TraceBudget on first engine use, so sweeps record each measured
	// window once and replay it under every other configuration; "off"
	// (and the zero value, preserving direct-construction behavior)
	// disables recording and replay entirely. Set before the first
	// Engine()/ProfileEngine() call.
	TraceMode string

	// TraceBudget bounds the trace store's resident bytes under
	// TraceMode "auto" (0 = core.DefaultTraceBudget).
	TraceBudget int64

	// TimelineStride arms the engines' interval timeline recorder (see
	// Engine.TimelineStride); DefaultOptions sets
	// cpu.DefaultTimelineStride, so sweeps record timelines by default.
	// 0 disables recording entirely. Set before the first
	// Engine()/ProfileEngine() call.
	TimelineStride uint64

	// Report collects per-cell outcomes; created on first use via
	// Report(). Assign one to share a report across drivers.
	report *RunReport

	engine        *Engine
	profileEngine *Engine
	design        *pb.Design
	traceOnce     sync.Once

	// Scheduler state: warm memoizes per-cell outcomes (successes and
	// failures) by engine key for the assembly pass; schedTel aggregates
	// pool telemetry across plans.
	warmMu   sync.Mutex
	warm     map[string]warmOutcome
	schedTel sched.Telemetry

	// Cost ledger: every scheduled cell's attributed cost, appended in
	// plan order by RunPlan (see cost.go).
	costMu    sync.Mutex
	costCells []CellCost

	// Timeline ledger: every distinct cell's interval timeline, captured
	// by o.run/o.profileRun — the warm-map-first accessors the drivers'
	// serial assembly passes call in deterministic order — so the ledger
	// (and everything rendered from it) is byte-identical at any worker
	// count (see timeline.go).
	tlMu    sync.Mutex
	tlSeen  map[string]bool
	tlCells []TimelineCell

	// state is the durable run-state log (nil unless OpenRunState
	// attached one); guarded by warmMu like the warm map it feeds.
	state *runstate.Log

	// progress is the live plan-execution accounting behind PlanStatus.
	progress planProgress
}

// Close releases sweep-scoped shared state: the functional-prefix
// checkpoints a long sweep accumulates in the shared store (see
// core.CheckpointStore) are dropped so back-to-back sweeps in one process
// start cold and bounded, and the durable run-state log (if any) is
// fsynced and closed. The engine caches themselves are per-Options and
// need no teardown. Drivers that own an Options for a whole process run
// should defer this.
func (o *Options) Close() {
	core.ResetCheckpointCache()
	core.ResetTraceCache()
	core.SetTraceStore(nil)
	o.warmMu.Lock()
	st := o.state
	o.state = nil
	o.warmMu.Unlock()
	if st != nil {
		_ = st.Close()
	}
}

// DefaultOptions returns the default corpus: every benchmark, the
// representative catalogue, the unfolded 44-run design, CLI scale.
func DefaultOptions() *Options {
	return &Options{
		Scale:          sim.ScaleCLI,
		Benches:        bench.All(),
		TraceMode:      "auto",
		TimelineStride: cpu.DefaultTimelineStride,
	}
}

// ensureTrace installs (or uninstalls) the shared trace store according to
// TraceMode, once per option set, before the first engine run.
func (o *Options) ensureTrace() {
	o.traceOnce.Do(func() {
		if o.TraceMode != "auto" {
			core.SetTraceStore(nil)
			return
		}
		budget := o.TraceBudget
		if budget <= 0 {
			budget = core.DefaultTraceBudget
		}
		core.SetTraceStore(core.NewTraceStore(budget))
	})
}

// Engine returns the option set's shared engine, creating it on first use.
func (o *Options) Engine() *Engine {
	o.ensureTrace()
	if o.engine == nil {
		o.engine = NewEngine(o.Scale)
		o.engine.CellTimeout = o.CellTimeout
		o.engine.TimelineStride = o.TimelineStride
	}
	return o.engine
}

// ProfileEngine returns the option set's profiling engine (execution
// profiles enabled), creating it on first use. It shares the main
// engine's instrumentation sink and fault policy but keys its runs
// separately, since profiled results carry extra payload.
func (o *Options) ProfileEngine() *Engine {
	if o.profileEngine == nil {
		pe := NewEngine(o.Scale)
		pe.Profile = true
		pe.Obs = o.Engine().Obs
		pe.Retry = o.Engine().Retry
		pe.CheckEvery = o.Engine().CheckEvery
		pe.CellTimeout = o.Engine().CellTimeout
		pe.TimelineStride = o.Engine().TimelineStride
		o.profileEngine = pe
	}
	return o.profileEngine
}

// Report returns the option set's run report, creating it on first use.
func (o *Options) Report() *RunReport {
	if o.report == nil {
		o.report = &RunReport{}
	}
	return o.report
}

// ctx returns the sweep context (never nil).
func (o *Options) ctx() context.Context {
	if o.Ctx == nil {
		return context.Background()
	}
	return o.Ctx
}

// run is the driver-facing RunFunc: every engine run inherits the sweep
// context. Pass o.run where a characterize.RunFunc is needed. When a
// scheduler pass has warmed this run's cell, its memoized outcome —
// success or failure — is returned without touching the engine, which is
// what keeps parallel assembly byte-identical to a serial sweep.
func (o *Options) run(b bench.Name, tech core.Technique, cfg sim.Config) (core.Result, error) {
	if o.warm != nil {
		if res, err, ok := o.warmLookup(o.Engine().key(b, tech, cfg)); ok {
			o.recordTimeline(b, tech, cfg, res, err)
			return res, err
		}
	}
	res, err := o.Engine().RunContext(o.ctx(), b, tech, cfg)
	o.recordTimeline(b, tech, cfg, res, err)
	return res, err
}

// profileRun is run for the profiling engine (the §5.2 execution-profile
// characterization).
func (o *Options) profileRun(b bench.Name, tech core.Technique, cfg sim.Config) (core.Result, error) {
	if o.warm != nil {
		if res, err, ok := o.warmLookup(o.ProfileEngine().key(b, tech, cfg)); ok {
			o.recordTimeline(b, tech, cfg, res, err)
			return res, err
		}
	}
	res, err := o.ProfileEngine().RunContext(o.ctx(), b, tech, cfg)
	o.recordTimeline(b, tech, cfg, res, err)
	return res, err
}

// cellErr applies the fault policy to one failed cell: under FailFast (or
// when the sweep context itself has ended, making further cells pointless)
// the error aborts the driver; otherwise the failure is recorded in the
// report and the driver skips the cell, degrading the artifact gracefully.
// Returns a non-nil error iff the driver must abort.
func (o *Options) cellErr(artifact string, b bench.Name, technique, config string, err error) error {
	if o.FailFast {
		return err
	}
	if cerr := o.ctx().Err(); cerr != nil {
		return err
	}
	o.Report().Fail(artifact, b, technique, config, err)
	return nil
}

// Design returns the PB design, creating it on first use.
func (o *Options) Design() (*pb.Design, error) {
	if o.design == nil {
		d, err := pb.New(sim.NumParams, o.Foldover)
		if err != nil {
			return nil, err
		}
		o.design = d
	}
	return o.design, nil
}

// Techniques returns the catalogue for a benchmark under the options.
func (o *Options) Techniques(b bench.Name) []core.Technique {
	if o.TechniquesFn != nil {
		return o.TechniquesFn(b)
	}
	if o.Full {
		return core.Catalogue(b)
	}
	return core.RepresentativeCatalogue(b)
}

// pbConfig builds the machine for one PB design row with the same naming
// used by characterize.Bottleneck, so runs are shared through the engine
// cache across figures.
func pbConfig(row []bool, i int) (sim.Config, error) {
	cfg, err := sim.PBConfig(row)
	if err != nil {
		return sim.Config{}, err
	}
	cfg.Name = fmt.Sprintf("pb-row-%02d", i)
	return cfg, nil
}

// familyOrder fixes the presentation order of families in every report.
var familyOrder = map[core.Family]int{
	core.FamilySimPoint: 0,
	core.FamilySMARTS:   1,
	core.FamilyReduced:  2,
	core.FamilyRunZ:     3,
	core.FamilyFFRun:    4,
	core.FamilyFFWURun:  5,
}

func sortFamilies(fams []core.Family) {
	sort.Slice(fams, func(i, j int) bool { return familyOrder[fams[i]] < familyOrder[fams[j]] })
}
