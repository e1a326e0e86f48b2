// Command studybench is the repository's end-to-end benchmark. Each
// workload is a real study run through the experiments public API the
// way cmd/figures runs it: build the Options and the plan (FiguresPlan),
// execute it (RunPlan), then assemble and render the artifact. Every
// sample is a fresh child process with cold stores, so set-up, CPU time
// and peak RSS are those of one study.
//
// Usage, from the repository root (see run.sh, which builds it first):
//
//	studybench --workload arch-gcc --seed 1 --seconds 40 --trace 0 [--out result.json]
//	studybench compare base.json new.json
//	studybench pin
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics are
// the end-to-end ones, measured untraced; with --trace 1 they are the
// per-layer ones, from traced samples and the layer probes.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workers is the scheduler pool size of every study: the CPU count of
// the host the benchmark was sized on, fixed so that results stay
// comparable when the benchmark runs elsewhere.
const workers = 2

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			exitOn(childMain(os.Args[2:]))
			return
		case "probe":
			exitOn(probeMain(os.Args[2:]))
			return
		case "compare":
			exitOn(compareMain(os.Args[2:]))
			return
		case "pin":
			exitOn(pinMain(os.Args[2:]))
			return
		}
	}
	exitOn(runMain(os.Args[1:]))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "studybench:", err)
		os.Exit(1)
	}
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is what --out writes: the result plus its provenance and raw
// samples, the input of `studybench compare`.
type record struct {
	Provenance provenance `json:"provenance"`
	Workload   string     `json:"workload"`
	Seed       int64      `json:"seed"`
	Seconds    int        `json:"seconds"`
	Trace      int        `json:"trace"`
	Samples    []measured `json:"samples"`
	Result     result     `json:"result"`
}

// measured is one child study as the parent saw it.
type measured struct {
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	Traced    bool    `json:"traced"`
	Sample    sample  `json:"sample"`
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("studybench", flag.ContinueOnError)
	wname := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the cells' dispatch orders, one order per sample")
	seconds := fs.Int("seconds", 40, "measurement time in seconds")
	traceFlag := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	out := fs.String("out", "", "also write the full record (provenance, samples) here; refused from a dirty tree")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := lookupWorkload(*wname)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	prov := stamp()
	if *out != "" {
		if err := prov.recordable(); err != nil {
			return err
		}
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}

	traced := *traceFlag == 1
	start := time.Now()
	budget := time.Duration(*seconds) * time.Second
	var probes map[string]float64
	if traced {
		if probes, err = runProbe(exe, w); err != nil {
			return err
		}
	}
	// Each sample dispatches the cells in its own order, so a run's
	// median does not hang on one order's slowest tail.
	orders := rand.New(rand.NewSource(*seed))
	var samples []measured
	var est [2]time.Duration // longest sample so far, untraced and traced
	count := [2]int{}
	for {
		kind := 0
		if traced && count[1] < count[0] {
			kind = 1
		}
		// Start another sample while it would end, by the longest sample
		// so far, no more than half a sample past the budget.
		needed := count[0] == 0 || (traced && count[1] == 0)
		if !needed && time.Since(start)+est[kind]/2 > budget {
			break
		}
		m, err := runChild(exe, w, orders.Int63(), kind == 1)
		if err != nil {
			return err
		}
		d := time.Duration(m.WallS * float64(time.Second))
		if d > est[kind] {
			est[kind] = d
		}
		count[kind]++
		samples = append(samples, m)
	}

	res := judge(w, samples)
	if traced {
		res.Metrics = layerMetrics(samples, probes, res)
	} else {
		res.Metrics = endToEndMetrics(samples)
	}
	printReport(os.Stdout, prov, w, *seed, samples, res)
	if *out != "" {
		rec := record{Provenance: prov, Workload: w.name, Seed: *seed, Seconds: *seconds,
			Trace: *traceFlag, Samples: samples, Result: res}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runChild runs one study in a fresh process and measures it from the
// outside: wall time from start to exit, and the process's CPU time and
// peak resident set from its rusage.
func runChild(exe string, w workload, seed int64, traced bool) (measured, error) {
	args := []string{"child", "--workload", w.name, "--seed", fmt.Sprint(seed)}
	if traced {
		args = append(args, "--traced")
	}
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t0 := time.Now()
	err := cmd.Run()
	wall := time.Since(t0)
	if err != nil {
		return measured{}, fmt.Errorf("%s sample: %v\n%s", w.name, err, tail(stderr.String()))
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return measured{}, errors.New("no rusage for the sample process")
	}
	var s sample
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &s); err != nil {
		return measured{}, fmt.Errorf("%s sample output: %v", w.name, err)
	}
	return measured{
		WallS:     wall.Seconds(),
		CPUS:      tvSeconds(ru.Utime) + tvSeconds(ru.Stime),
		PeakRSSMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
		Traced:    traced,
		Sample:    s,
	}, nil
}

func runProbe(exe string, w workload) (map[string]float64, error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(exe, "probe", "--workload", w.name)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s probes: %v\n%s", w.name, err, tail(stderr.String()))
	}
	var m map[string]float64
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &m); err != nil {
		return nil, fmt.Errorf("%s probe output: %v", w.name, err)
	}
	return m, nil
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

func tail(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// judge checks every sample's outputs against the pinned digests and
// counts operations: each cell, and each benchmark's rendered artifact.
// A failed cell, an artifact whose assembly failed, and any digest that
// differs from its pin each count as one failed operation; any
// difference from a pin also makes the run incorrect.
func judge(w workload, samples []measured) result {
	pin, pinned := pins[w.name]
	res := result{Correct: pinned}
	for _, m := range samples {
		s := m.Sample
		res.Attempted += len(s.Cells) + len(s.Artifacts)
		for label, d := range s.Cells {
			mismatch := pinned && pin.Cells[label] != d
			if d == failedDigest || mismatch {
				res.Failed++
			}
			if mismatch {
				res.Correct = false
			}
		}
		if pinned && len(pin.Cells) != len(s.Cells) {
			res.Correct = false
		}
		for b, a := range s.Artifacts {
			mismatch := pinned && pin.Artifacts[b] != a.Digest
			if a.Err != "" || mismatch {
				res.Failed++
			}
			if mismatch {
				res.Correct = false
			}
		}
		if pinned && len(pin.Artifacts) != len(s.Artifacts) {
			res.Correct = false
		}
	}
	return res
}

// endToEndMetrics reports the untraced samples' medians.
func endToEndMetrics(samples []measured) map[string]metricValue {
	vals := map[string][]float64{}
	for _, m := range samples {
		if m.Traced {
			continue
		}
		vals["wall_s"] = append(vals["wall_s"], m.WallS)
		vals["cpu_s"] = append(vals["cpu_s"], m.CPUS)
		vals["peak_rss_mb"] = append(vals["peak_rss_mb"], m.PeakRSSMB)
		vals["setup_s"] = append(vals["setup_s"], m.Sample.SetupS...)
	}
	out := map[string]metricValue{}
	for _, s := range endToEndSpec {
		out[s.name] = metricValue{median(vals[s.name]), s.unit}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func printReport(f *os.File, prov provenance, w workload, seed int64, samples []measured, res result) {
	p, _ := json.Marshal(prov)
	fmt.Fprintf(f, "# provenance %s\n", p)
	n := [2]int{}
	for _, m := range samples {
		if m.Traced {
			n[1]++
		} else {
			n[0]++
		}
	}
	fmt.Fprintf(f, "# workload %s seed %d: %d untraced and %d traced samples, %d workers each\n",
		w.name, seed, n[0], n[1], workers)
	fmt.Fprintf(f, "# correct %v, %d of %d operations failed\n", res.Correct, res.Failed, res.Attempted)
	if n[1] > 0 {
		fmt.Fprintf(f, "# probes: detailed, replay and mem.access run after a %d-instruction FunctionalWarm fill; ff, warm, profile, mem.warm and branch start cold\n", warmFill)
	}
	if len(samples) > 0 {
		for _, b := range w.benches {
			if a := samples[0].Sample.Artifacts[string(b)]; a.Err != "" {
				fmt.Fprintf(f, "# %s artifact failed: %s\n", b, a.Err)
			}
		}
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(f, "# %-36s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}
