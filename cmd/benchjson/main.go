// Command benchjson measures the reference technique at the test scale
// and writes a machine-readable baseline (ns per simulated instruction and
// host MIPS per benchmark) so performance regressions can be diffed by CI
// or scripts — see cmd/benchdiff for the comparator and internal/benchfmt
// for the format. Each entry also measures the run with cancellation
// polling active (a live context attached) and records the relative
// overhead; the robustness layer promises this stays under 2%. The
// checked-in BENCH_obs.json at the repo root was produced by this command.
//
// It also measures the experiment scheduler: the same plan of cells is
// executed on one worker and on -parallel workers, and the wall times,
// speedup, worker utilization, and per-cell latency quantiles are
// recorded so CI on a multi-core runner can verify the parallel path
// actually scales.
//
// It also measures the interval timeline recorder (internal/cpu.Timeline):
// the same reference run with recording off versus on at the default
// stride, with bit-identical architectural stats enforced between the
// arms, so the telemetry tax is a number and "observe, never perturb" is
// a gate.
//
// Finally it measures the flight recorder (internal/obs.Journal): the
// per-event cost of the disabled fast path and the enabled ring insert,
// so the "free when off" property is a number, not a claim.
//
// Usage:
//
//	benchjson [-benches gcc,mcf] [-iters 3] [-parallel N] [-out BENCH_obs.json]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/benchfmt"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/pb"
	"repro/internal/sim"
)

func main() {
	benchFlag := flag.String("benches", "gcc,mcf", "comma-separated benchmarks to baseline")
	itersFlag := flag.Int("iters", 3, "iterations per benchmark (best is kept)")
	outFlag := flag.String("out", "BENCH_obs.json", "output file")
	parallel := flag.Int("parallel", cliutil.DefaultParallel(), "workers for the scheduler comparison")
	obsFlags := cliutil.AddObsFlags(flag.CommandLine)
	traceFlags := cliutil.AddTraceFlags(flag.CommandLine)
	flag.Parse()

	run, err := cliutil.StartRun("benchjson", obsFlags)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	die := func(err error) {
		if err != nil {
			run.Fatal(err)
		}
	}
	die(cliutil.ValidatePositive("-iters", *itersFlag))
	die(cliutil.ValidateParallel(*parallel))
	die(traceFlags.Validate())

	base := benchfmt.Baseline{
		Stamp:      benchfmt.StampNow(),
		Technique:  core.Reference{}.Name(),
		Scale:      "test",
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Iters:      *itersFlag,
	}
	for _, name := range strings.Split(*benchFlag, ",") {
		b := bench.Name(strings.TrimSpace(name))
		if b == "" {
			die(fmt.Errorf("empty benchmark name in -benches"))
		}
		plain := core.Context{Bench: b, Config: sim.BaseConfig(), Scale: sim.ScaleTest}
		cancelCtx, cancel := context.WithCancel(context.Background())
		polled := plain
		polled.Ctx = cancelCtx

		// Min-of-iters for the baseline and the polled wall independently:
		// each is its own best-case measurement, and the overhead is the
		// ratio of the two minima (pairing a lucky baseline iteration with
		// an unlucky polled one would report scheduling noise as polling
		// cost).
		var best benchfmt.Entry
		var bestPolled int64
		for i := 0; i < *itersFlag; i++ {
			res, err := core.Reference{}.Run(plain)
			die(err)
			tel := res.Telemetry()
			e := benchfmt.Entry{
				Bench:          string(b),
				SimulatedInstr: tel.SimulatedInstr,
				WallNS:         tel.Wall.Nanoseconds(),
				NSPerInstr:     float64(tel.Wall.Nanoseconds()) / float64(tel.SimulatedInstr),
				HostMIPS:       tel.HostMIPS,
				CPI:            res.Stats.CPI(),
			}
			if i == 0 || e.WallNS < best.WallNS {
				best = e
			}
			pres, err := core.Reference{}.Run(polled)
			die(err)
			pw := pres.Telemetry().Wall.Nanoseconds()
			if i == 0 || pw < bestPolled {
				bestPolled = pw
			}
		}
		cancel()
		best.CancelWallNS = bestPolled
		best.CancelOverheadPct = 100 * (float64(best.CancelWallNS) - float64(best.WallNS)) / float64(best.WallNS)
		// Both walls are independent minima, so on a noisy host the
		// polled minimum can land below the plain one; that is sampling
		// noise, not a speedup, and reporting it as negative overhead
		// makes downstream deltas meaningless. Clamp at zero.
		if best.CancelOverheadPct < 0 {
			best.CancelOverheadPct = 0
		}
		base.Entries = append(base.Entries, best)
		fmt.Fprintf(os.Stderr, "%-8s %d instr in %v (%.1f ns/instr, %.1f host-MIPS, cancel-poll %+.2f%%)\n",
			best.Bench, best.SimulatedInstr, time.Duration(best.WallNS).Round(time.Microsecond),
			best.NSPerInstr, best.HostMIPS, best.CancelOverheadPct)
	}

	var benches []bench.Name
	for _, e := range base.Entries {
		benches = append(benches, bench.Name(e.Bench))
	}
	sb, err := measureSched(benches, *parallel)
	die(err)
	base.Sched = &sb
	fmt.Fprintf(os.Stderr, "sched    %d cells on %d workers: serial %v, parallel %v (%.2fx, %.0f%% utilized, cell p50/p99 %v/%v)\n",
		sb.Cells, sb.Workers, time.Duration(sb.SerialWallNS).Round(time.Microsecond),
		time.Duration(sb.ParallelWallNS).Round(time.Microsecond), sb.Speedup, 100*sb.Utilization,
		time.Duration(sb.P50NS).Round(time.Microsecond), time.Duration(sb.P99NS).Round(time.Microsecond))

	cb, err := measureCkpt(benches[0], 8)
	die(err)
	base.Ckpt = &cb
	fmt.Fprintf(os.Stderr, "ckpt     %d-config sweep on %s: off %v, on %v (%.2fx; %d hits, %d misses)\n",
		cb.Configs, cb.Bench, time.Duration(cb.OffWallNS).Round(time.Microsecond),
		time.Duration(cb.OnWallNS).Round(time.Microsecond), cb.Speedup, cb.Hits, cb.Misses)

	if traceFlags.Mode == "auto" {
		tb, err := measureTrace(benches[0], 8, traceFlags.Budget)
		die(err)
		base.Trace = &tb
		fmt.Fprintf(os.Stderr, "trace    %d-config sweep on %s: off %v, on %v (%.2fx; %d hits, %d misses)\n",
			tb.Configs, tb.Bench, time.Duration(tb.OffWallNS).Round(time.Microsecond),
			time.Duration(tb.OnWallNS).Round(time.Microsecond), tb.Speedup, tb.Hits, tb.Misses)
	}

	memBench := benches[0]
	for _, b := range benches {
		if b == bench.Mcf {
			memBench = b // the memory-bound workload is the interesting arm
		}
	}
	mb, err := measureMem(memBench, *itersFlag)
	die(err)
	base.Mem = &mb
	fmt.Fprintf(os.Stderr, "mem      %s warming-heavy run: %v (%.1f ns/instr)\n",
		mb.Bench, time.Duration(mb.WallNS).Round(time.Microsecond), mb.NSPerInstr)

	tlb, err := measureTimeline(memBench, *itersFlag)
	die(err)
	base.Timeline = &tlb
	fmt.Fprintf(os.Stderr, "timeline %s sampled run: off %v, on %v (%d intervals, +%.2f%%, stats identical: %v)\n",
		tlb.Bench, time.Duration(tlb.OffWallNS).Round(time.Microsecond),
		time.Duration(tlb.OnWallNS).Round(time.Microsecond), tlb.Intervals, tlb.OverheadPct, tlb.StatsIdentical)

	jb := measureJournal(*itersFlag)
	base.Journal = &jb
	fmt.Fprintf(os.Stderr, "journal  %d events: off %.2f ns/event, on %.1f ns/event (%.1fM events/sec)\n",
		jb.Events, jb.DisabledNSPerEvent, jb.EnabledNSPerEvent, jb.EventsPerSec/1e6)

	die(benchfmt.Write(*outFlag, &base))
	fmt.Fprintln(os.Stderr, "wrote", *outFlag)
	run.Exit(0)
}

// measureJournal times the disabled and enabled Record paths, best of
// iters, on a private journal so the process-wide recorder is untouched.
func measureJournal(iters int) benchfmt.JournalBaseline {
	const events = 1 << 16
	j := obs.NewJournal(obs.DefaultJournalCapacity)
	ev := obs.Event{Kind: obs.EvCellFinish, Actor: 3, Subject: "benchjson/journal", N: 1, DurNS: 1}
	best := func(enabled bool) time.Duration {
		j.SetEnabled(enabled)
		var bestWall time.Duration
		for i := 0; i < iters; i++ {
			j.Reset()
			start := time.Now()
			for k := 0; k < events; k++ {
				j.Record(ev)
			}
			wall := time.Since(start)
			if i == 0 || wall < bestWall {
				bestWall = wall
			}
		}
		return bestWall
	}
	off := best(false)
	on := best(true)
	out := benchfmt.JournalBaseline{
		Capacity:           obs.DefaultJournalCapacity,
		Events:             events,
		DisabledNSPerEvent: float64(off.Nanoseconds()) / events,
		EnabledNSPerEvent:  float64(on.Nanoseconds()) / events,
	}
	if on > 0 {
		out.EventsPerSec = float64(events) / on.Seconds()
	}
	return out
}

// measureSched runs the same enhancement-study plan (base plus enhanced
// configurations, reference plus every representative technique, per
// benchmark) through the experiment scheduler twice — one worker, then
// `workers` — on fresh engines, and reports the wall-time comparison
// plus the parallel pass's per-cell latency quantiles.
func measureSched(benches []bench.Name, workers int) (benchfmt.SchedBaseline, error) {
	pass := func(n int) (*experiments.Options, error) {
		o := experiments.DefaultOptions()
		o.Scale = sim.ScaleTest
		o.Benches = benches
		o.Parallel = n
		// Trace replay off for both passes: the serial-versus-parallel
		// comparison should measure the scheduler, not which pass got to
		// record the shared windows.
		o.TraceMode = "off"
		for _, b := range benches {
			if tel := o.RunPlan(experiments.Figure6Plan(o, b, nil)); tel.Failed > 0 {
				return nil, fmt.Errorf("scheduler pass at %d workers: %d cells failed", n, tel.Failed)
			}
		}
		return o, nil
	}
	serialOpts, err := pass(1)
	if err != nil {
		return benchfmt.SchedBaseline{}, err
	}
	parOpts, err := pass(workers)
	if err != nil {
		return benchfmt.SchedBaseline{}, err
	}
	serial, par := serialOpts.SchedTelemetry(), parOpts.SchedTelemetry()
	lat := parOpts.CostSummary().CellLatency
	out := benchfmt.SchedBaseline{
		Workers:        workers,
		Cells:          par.Cells,
		SerialWallNS:   serial.Wall.Nanoseconds(),
		ParallelWallNS: par.Wall.Nanoseconds(),
		Utilization:    par.Utilization(),
		P50NS:          lat.P50NS,
		P95NS:          lat.P95NS,
		P99NS:          lat.P99NS,
	}
	if par.Wall > 0 {
		out.Speedup = float64(serial.Wall) / float64(par.Wall)
	}
	return out, nil
}

// measureCkpt runs a mini multi-configuration sweep twice — store
// disabled, then a fresh store — and errors if the enabled sweep records
// no checkpoint hits (the amortization CI asserts on). The fast-forward
// prefix is configuration-independent, so with the store on it is
// executed exactly once (Misses) and restored by every other
// configuration (Hits).
func measureCkpt(b bench.Name, configs int) (benchfmt.CkptBaseline, error) {
	tech := core.FFRun{X: 2000, Z: 500}
	sweep := func() (time.Duration, uint64, error) { return pbSweep(b, configs, tech) }

	// The trace store is detached for both arms so the comparison
	// isolates checkpointing from record/replay (measureTrace covers the
	// latter).
	traceStore := core.TraceStore()
	core.SetTraceStore(nil)
	defer core.SetTraceStore(traceStore)

	store := core.CheckpointStore()
	core.SetCheckpointStore(nil)
	offWall, offInstr, err := sweep()
	core.SetCheckpointStore(store)
	if err != nil {
		return benchfmt.CkptBaseline{}, err
	}
	core.ResetCheckpointCache()
	onWall, _, err := sweep()
	if err != nil {
		return benchfmt.CkptBaseline{}, err
	}
	st := core.CheckpointStats()
	core.ResetCheckpointCache()
	if st.Hits < 1 {
		return benchfmt.CkptBaseline{}, fmt.Errorf("checkpoint store recorded no hits over %d configurations (%+v)", configs, st)
	}
	out := benchfmt.CkptBaseline{
		Bench:     string(b),
		Configs:   configs,
		OffWallNS: offWall.Nanoseconds(),
		OnWallNS:  onWall.Nanoseconds(),
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Bytes:     st.Bytes,
	}
	if offInstr > 0 {
		out.OffNSPerInstr = float64(offWall.Nanoseconds()) / float64(offInstr)
		out.OnNSPerInstr = float64(onWall.Nanoseconds()) / float64(offInstr)
	}
	if onWall > 0 {
		out.Speedup = float64(offWall) / float64(onWall)
	}
	return out, nil
}

// pbSweep runs tech over the first `configs` rows of the unfolded PB
// envelope — one benchmark, many configurations, the sweep shape both
// caching layers amortize — and returns the wall time plus the total
// executed (detailed + functional) instructions.
func pbSweep(b bench.Name, configs int, tech core.Technique) (time.Duration, uint64, error) {
	design, err := pb.New(sim.NumParams, false)
	if err != nil {
		return 0, 0, err
	}
	if design.Runs() < configs {
		return 0, 0, fmt.Errorf("PB design has %d rows, need %d", design.Runs(), configs)
	}
	start := time.Now()
	var instr uint64
	for i := 0; i < configs; i++ {
		cfg, err := sim.PBConfig(design.Rows[i])
		if err != nil {
			return 0, 0, err
		}
		cfg.Name = fmt.Sprintf("pb-row-%02d", i)
		res, err := tech.Run(core.Context{Bench: b, Config: cfg, Scale: sim.ScaleTest})
		if err != nil {
			return 0, 0, err
		}
		instr += res.DetailedInstr + res.FunctionalInstr
	}
	return time.Since(start), instr, nil
}

// measureMem times a SMARTS simulation of one benchmark and reports the
// min-of-iters wall. SMARTS is the workload where the memory hierarchy
// is the entire inner loop: the stream between samples is pure
// functional warming (every instruction is an I-fetch plus cache/TLB
// updates and nothing else), not a fraction of an out-of-order core's
// cycle. Both caching stores are detached so no iteration amortizes work
// an earlier one paid for.
func measureMem(b bench.Name, iters int) (benchfmt.MemBaseline, error) {
	tech := core.SMARTS{U: 100, W: 200}
	ctx := core.Context{Bench: b, Config: sim.BaseConfig(), Scale: sim.ScaleTest}
	ckptStore := core.CheckpointStore()
	core.SetCheckpointStore(nil)
	defer core.SetCheckpointStore(ckptStore)
	traceStore := core.TraceStore()
	core.SetTraceStore(nil)
	defer core.SetTraceStore(traceStore)
	out := benchfmt.MemBaseline{Bench: string(b)}
	for i := 0; i < iters; i++ {
		res, err := tech.Run(ctx)
		if err != nil {
			return benchfmt.MemBaseline{}, err
		}
		tel := res.Telemetry()
		if i == 0 || tel.Wall.Nanoseconds() < out.WallNS {
			out.WallNS = tel.Wall.Nanoseconds()
		}
		out.SimulatedInstr = tel.SimulatedInstr
	}
	if out.SimulatedInstr > 0 {
		out.NSPerInstr = float64(out.WallNS) / float64(out.SimulatedInstr)
	}
	return out, nil
}

// measureTimeline runs a reference simulation of one benchmark twice —
// once with the interval timeline recorder disabled (the shipping fast
// path when no stride is set), once recording at the default
// 100k-instruction stride — and reports the min-of-iters walls. The
// recorder observes the commit stream without perturbing it, so the two
// arms must produce bit-identical architectural statistics, and the on
// arm must actually capture intervals; either failure writes no baseline
// rather than a poisoned one.
func measureTimeline(b bench.Name, iters int) (benchfmt.TimelineBaseline, error) {
	ctx := core.Context{Bench: b, Config: sim.BaseConfig(), Scale: sim.ScaleTest}
	arm := func(stride uint64) (time.Duration, uint64, int, sim.Stats, error) {
		c := ctx
		c.TimelineStride = stride
		var bestWall time.Duration
		var instr uint64
		var intervals int
		var stats sim.Stats
		for i := 0; i < iters; i++ {
			res, err := core.Reference{}.Run(c)
			if err != nil {
				return 0, 0, 0, stats, err
			}
			tel := res.Telemetry()
			if i == 0 || tel.Wall < bestWall {
				bestWall = tel.Wall
			}
			instr = tel.SimulatedInstr
			intervals = len(res.Timeline)
			stats = res.Stats
		}
		return bestWall, instr, intervals, stats, nil
	}
	offWall, offInstr, _, offStats, err := arm(0)
	if err != nil {
		return benchfmt.TimelineBaseline{}, err
	}
	onWall, onInstr, intervals, onStats, err := arm(cpu.DefaultTimelineStride)
	if err != nil {
		return benchfmt.TimelineBaseline{}, err
	}
	identical := offInstr == onInstr && reflect.DeepEqual(offStats, onStats)
	if !identical {
		return benchfmt.TimelineBaseline{}, fmt.Errorf(
			"timeline recorder changed simulation results on %s:\noff: %+v\non:  %+v", b, offStats, onStats)
	}
	if intervals == 0 {
		return benchfmt.TimelineBaseline{}, fmt.Errorf(
			"timeline recorder captured zero intervals on %s at stride %d", b, uint64(cpu.DefaultTimelineStride))
	}
	out := benchfmt.TimelineBaseline{
		Bench:          string(b),
		SimulatedInstr: offInstr,
		Intervals:      intervals,
		OffWallNS:      offWall.Nanoseconds(),
		OnWallNS:       onWall.Nanoseconds(),
		StatsIdentical: true,
	}
	if offInstr > 0 {
		out.OffNSPerInstr = float64(offWall.Nanoseconds()) / float64(offInstr)
		out.OnNSPerInstr = float64(onWall.Nanoseconds()) / float64(offInstr)
	}
	if offWall > 0 {
		out.OverheadPct = 100 * (float64(onWall) - float64(offWall)) / float64(offWall)
	}
	// Both walls are independent minima; a negative overhead is sampling
	// noise, not a speedup. Clamp at zero, as the cancel-poll entry does.
	if out.OverheadPct < 0 {
		out.OverheadPct = 0
	}
	return out, nil
}

// measureTrace runs the same mini multi-configuration sweep twice — trace
// store disabled, then a fresh store bounded to budget — with the
// checkpoint store detached for both arms, so the comparison isolates
// record-once/replay-many from prefix checkpointing. It errors if the
// enabled sweep records no replay hits (the structural property CI gates
// on). The functional stream is configuration-independent, so with the
// store on the measured window is recorded once (Misses) and replayed by
// every other configuration (Hits); replaying configurations also skip
// the functional prefix entirely, which is where the speedup comes from.
func measureTrace(b bench.Name, configs int, budget int64) (benchfmt.TraceBaseline, error) {
	// A long functional prefix and a short measured window: the sweep
	// shape where record-once/replay-many pays. With the store off every
	// configuration re-emulates the X-unit prefix; with it on, replaying
	// configurations skip the prefix entirely and consume the recorded
	// window, so only the owner pays for X. (X must stay inside the
	// benchmark's run length at the test scale or the recorded window is
	// empty: gcc retires ~2.25M instructions, X here is 2M.)
	tech := core.FFRun{X: 10000, Z: 200}
	sweep := func() (time.Duration, uint64, error) { return pbSweep(b, configs, tech) }

	ckptStore := core.CheckpointStore()
	core.SetCheckpointStore(nil)
	defer core.SetCheckpointStore(ckptStore)

	oldTrace := core.TraceStore()
	defer core.SetTraceStore(oldTrace)

	core.SetTraceStore(nil)
	offWall, offInstr, err := sweep()
	if err != nil {
		return benchfmt.TraceBaseline{}, err
	}

	core.SetTraceStore(core.NewTraceStore(budget))
	onWall, _, err := sweep()
	if err != nil {
		return benchfmt.TraceBaseline{}, err
	}
	st := core.TraceStats()
	if st.Hits < 1 {
		return benchfmt.TraceBaseline{}, fmt.Errorf("trace store recorded no replay hits over %d configurations (%+v)", configs, st)
	}
	out := benchfmt.TraceBaseline{
		Bench:     string(b),
		Configs:   configs,
		OffWallNS: offWall.Nanoseconds(),
		OnWallNS:  onWall.Nanoseconds(),
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Bytes:     st.Bytes,
	}
	if offInstr > 0 {
		out.OffNSPerInstr = float64(offWall.Nanoseconds()) / float64(offInstr)
		out.OnNSPerInstr = float64(onWall.Nanoseconds()) / float64(offInstr)
	}
	if onWall > 0 {
		out.Speedup = float64(offWall) / float64(onWall)
	}
	return out, nil
}
