package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime/metrics"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/experiments/sched"
	"repro/internal/sim"
)

// workload is one study: a figures artifact over a benchmark set, at
// test scale, trace mode auto and the default timeline stride, as
// `figures -scale test -only <only> -benches <benches>` runs it.
type workload struct {
	name    string
	only    string
	benches []bench.Name
}

// The architecture sweeps stand in for the Figure 1 PB sweeps, which take
// 40-65 s per study on a 2-CPU host: too long to repeat within one
// measured run. They run the same techniques at the same scale over the
// four Table 3 machines. gcc is compute-bound and mcf bound by memory
// latency, so core and memory-hierarchy changes show on different ones.
// profile-all is the write-side workload: the stores only populate, and
// SimPoint clustering and profile collection dominate.
var workloads = []workload{
	{name: "arch-gcc", only: "ARCH", benches: []bench.Name{bench.Gcc}},
	{name: "arch-mcf", only: "ARCH", benches: []bench.Name{bench.Mcf}},
	{name: "profile-all", only: "PROFILE", benches: bench.All()},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
}

// setupReps is how many times a sample builds its Options and plan; the
// last build is the one that runs, and the set-up metric is the median.
const setupReps = 5

// failedDigest stands for a cell that failed instead of producing stats.
const failedDigest = "failed"

// artifact is one benchmark's rendered artifact: the digest of its
// bytes, or of its error text when assembly failed.
type artifact struct {
	Digest string `json:"digest"`
	Err    string `json:"err,omitempty"`
}

// sample is what one child study reports to the parent.
type sample struct {
	SetupS    []float64           `json:"setup_s"`
	Cells     map[string]string   `json:"cells"`
	Artifacts map[string]artifact `json:"artifacts"`
	// Layers is filled by traced samples only.
	Layers *layers `json:"layers,omitempty"`
}

// layers holds what a traced study reads from the experiments layer, the
// scheduler, the cost ledger, the stores and the Go runtime.
type layers struct {
	PlanMS, RunS, RenderMS float64
	Retries                int64
	Utilization            float64
	CellP50MS, CellP95MS   float64
	CellMaxMS              float64
	FamilyS                map[string]float64
	Trace, Ckpt            storeStats
	AllocGB, GCCPUShare    float64
	// Instr sums the cells' instructions by the mode that ran them, and
	// CellWallS their wall time; the probes' rates turn the former into
	// a predicted wall for the reconciliation.
	Instr     map[string]float64
	CellWallS float64
}

// storeStats is one shared store's counters at the end of a study. MB
// is the bytes recorded for the trace store and the bytes resident for
// the checkpoint store.
type storeStats struct {
	Hits, Misses, Evictions, Waits int64
	MB                             float64
}

func childMain(args []string) error {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	wname := fs.String("workload", "", "workload")
	seed := fs.Int64("seed", 1, "dispatch order seed")
	traced := fs.Bool("traced", false, "read per-layer counters")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*wname)
	if err != nil {
		return err
	}
	s, err := runStudy(w, *seed, *traced)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(s)
}

// setup builds the Options and the plan as cmd/figures does, with the
// plan's cells shuffled by seed: the dispatch order changes, the cells
// and their results do not.
func setup(w workload, seed int64) (*experiments.Options, []sched.Cell, error) {
	o := experiments.DefaultOptions()
	o.Scale = sim.ScaleTest
	o.Benches = w.benches
	o.Parallel = workers
	plan, err := experiments.FiguresPlan(o, func(id string) bool { return id == w.only })
	if err != nil {
		return nil, nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(plan), func(i, j int) { plan[i], plan[j] = plan[j], plan[i] })
	o.Engine()
	if w.only == "PROFILE" {
		o.ProfileEngine()
	}
	return o, plan, nil
}

func runStudy(w workload, seed int64, traced bool) (sample, error) {
	s := sample{Cells: map[string]string{}, Artifacts: map[string]artifact{}}
	var o *experiments.Options
	var plan []sched.Cell
	for i := 0; i < setupReps; i++ {
		if o != nil {
			o.Close()
		}
		t0 := time.Now()
		var err error
		if o, plan, err = setup(w, seed); err != nil {
			return s, err
		}
		s.SetupS = append(s.SetupS, time.Since(t0).Seconds())
	}
	defer o.Close()

	t0 := time.Now()
	tel := o.RunPlan(plan)
	runS := time.Since(t0).Seconds()

	t0 = time.Now()
	for _, b := range w.benches {
		s.Artifacts[string(b)] = render(o, w.only, b)
	}
	o.Benches = w.benches
	failed := map[string]bool{}
	for _, c := range o.CostCells() {
		if c.Failed {
			failed[c.Artifact+"/"+string(c.Bench)+"/"+c.Technique+"/"+c.Config] = true
		}
	}
	for _, c := range plan {
		label := c.Label()
		if failed[label] {
			s.Cells[label] = failedDigest
			continue
		}
		eng := o.Engine()
		if c.Profile {
			eng = o.ProfileEngine()
		}
		// The engine caches every successful cell, so this reads the
		// result RunPlan produced without running it again.
		res, err := eng.Run(c.Bench, c.Technique, c.Config)
		if err != nil {
			s.Cells[label] = failedDigest
			continue
		}
		s.Cells[label] = resultDigest(res)
	}
	renderMS := time.Since(t0).Seconds() * 1e3

	if traced {
		s.Layers = readLayers(o, plan, tel, s.SetupS[len(s.SetupS)-1]*1e3, runS, renderMS)
	}
	return s, nil
}

// render assembles and renders one benchmark's artifact from the warm
// outcomes; the RunPlan call inside ArchCharacterization or
// ProfileCharacterization finds every cell done.
func render(o *experiments.Options, only string, b bench.Name) artifact {
	o.Benches = []bench.Name{b}
	var text string
	var err error
	switch only {
	case "ARCH":
		var rows []experiments.ArchCharRow
		if rows, err = experiments.ArchCharacterization(o); err == nil {
			text = experiments.RenderArchChar(rows)
		}
	case "PROFILE":
		var rows []experiments.ProfileCharRow
		if rows, err = experiments.ProfileCharacterization(o, 0.05); err == nil {
			text = experiments.RenderProfileChar(rows)
		}
	default:
		err = fmt.Errorf("no renderer for %s", only)
	}
	if err != nil {
		return artifact{Digest: digestString("error: " + err.Error()), Err: err.Error()}
	}
	return artifact{Digest: digestString(text)}
}

func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// resultDigest covers a cell's statistics, CPI stack included (it is
// part of the core statistics), and its profile. Host times and the
// instruction split are left out: they depend on what the shared stores
// already held when the cell ran, so on the dispatch order.
func resultDigest(r core.Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "%+v|%d", r.Stats, r.Simulations)
	if p := r.Profile; p != nil {
		fmt.Fprintf(h, "|%v|%v|%d", p.Entries, p.Instrs, p.Total)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// modeOf names the host-time mode a cell's functional instructions ran
// in, for the reconciliation: SMARTS warms between samples, SimPoint
// profiles to find its points, the rest fast-forward.
func modeOf(f core.Family) string {
	switch f {
	case core.FamilySMARTS:
		return "warm"
	case core.FamilySimPoint:
		return "profile"
	}
	return "ff"
}

func readLayers(o *experiments.Options, plan []sched.Cell, tel sched.Telemetry, planMS, runS, renderMS float64) *layers {
	fam := map[string]core.Family{}
	for _, c := range plan {
		fam[c.Technique.Name()] = c.Technique.Family()
	}
	l := &layers{
		PlanMS: planMS, RunS: runS, RenderMS: renderMS,
		Utilization: tel.Utilization(),
		FamilyS:     map[string]float64{},
		Instr:       map[string]float64{},
	}
	var walls []float64
	for _, c := range o.CostCells() {
		wall := float64(c.Cost.WallNS) / 1e9
		walls = append(walls, wall*1e3)
		l.CellWallS += wall
		l.Retries += c.Cost.Retries
		f := fam[c.Technique]
		l.FamilyS[familyKey(f)] += wall
		detailed := "detailed"
		if c.Cost.TraceHits > 0 {
			detailed = "replay"
		}
		l.Instr[detailed] += float64(c.Cost.DetailedInstr)
		l.Instr[modeOf(f)] += float64(c.Cost.FunctionalInstr)
	}
	sort.Float64s(walls)
	if n := len(walls); n > 0 {
		l.CellP50MS = walls[(n-1)/2]
		l.CellP95MS = walls[(n*95+99)/100-1]
		l.CellMaxMS = walls[n-1]
	}
	ts, cs := core.TraceStats(), core.CheckpointStats()
	l.Trace = storeStats{ts.Hits, ts.Misses, ts.Evictions, ts.Waits, float64(ts.RecordedBytes) / (1 << 20)}
	l.Ckpt = storeStats{cs.Hits, cs.Misses, cs.Evictions, cs.Waits, float64(cs.Bytes) / (1 << 20)}

	ms := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(ms)
	l.AllocGB = float64(ms[0].Value.Uint64()) / (1 << 30)
	if used := ms[2].Value.Float64() - ms[3].Value.Float64(); used > 0 {
		l.GCCPUShare = ms[1].Value.Float64() / used
	}
	return l
}

// familyKey groups families the way the per-layer metrics report them:
// the three truncated-execution families together.
func familyKey(f core.Family) string {
	switch f {
	case core.FamilyReference:
		return "reference"
	case core.FamilySMARTS:
		return "smarts"
	case core.FamilySimPoint:
		return "simpoint"
	case core.FamilyReduced:
		return "reduced"
	}
	return "truncated"
}

// pinned is the recorded output of one workload: each benchmark's
// artifact digest and each cell's result digest.
type pinned struct {
	Artifacts map[string]string `json:"artifacts"`
	Cells     map[string]string `json:"cells"`
}

// pinFile is pins.json: the outputs recorded by `studybench pin`, and
// the commit they were recorded at.
type pinFile struct {
	Commit    string            `json:"commit"`
	Workloads map[string]pinned `json:"workloads"`
}

//go:embed pins.json
var pinsJSON []byte

var pins = loadPins()

func loadPins() map[string]pinned {
	var f pinFile
	if err := json.Unmarshal(pinsJSON, &f); err != nil {
		panic("studybench: pins.json: " + err.Error())
	}
	return f.Workloads
}
