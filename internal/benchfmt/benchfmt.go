// Package benchfmt defines the machine-readable performance-baseline
// format shared by cmd/benchjson (the writer) and cmd/benchdiff (the
// comparator): the envelope and block types, provenance stamping (git
// commit, dirty flag, timestamp), file I/O helpers, and the tolerance-
// aware comparison CI's perf gate runs against the committed baseline.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/debug"
	"strings"
	"time"
)

// Stamp is the provenance header of a baseline: which commit produced
// it, whether the tree was dirty, and when. A comparison between two
// stamps tells you *what* is being compared before any number does.
type Stamp struct {
	GitCommit string `json:"git_commit,omitempty"`
	GitDirty  bool   `json:"git_dirty,omitempty"`
	Timestamp string `json:"timestamp,omitempty"` // RFC 3339, UTC
}

// StampNow resolves the current provenance. The VCS build info embedded
// by `go build` is preferred; under `go run` or `go test` (no VCS
// stamping) it falls back to asking git directly, and degrades to an
// empty commit when neither source is available — a stamp is context,
// never a hard requirement.
func StampNow() Stamp {
	s := Stamp{Timestamp: time.Now().UTC().Format(time.RFC3339)}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.GitCommit = kv.Value
			case "vcs.modified":
				s.GitDirty = kv.Value == "true"
			}
		}
	}
	if s.GitCommit == "" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			s.GitCommit = strings.TrimSpace(string(out))
			if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
				s.GitDirty = len(strings.TrimSpace(string(st))) > 0
			}
		}
	}
	return s
}

// Baseline is the file-level envelope: one entry per benchmark plus
// enough host and provenance context to judge whether a comparison is
// apples-to-apples.
type Baseline struct {
	Stamp

	Technique string `json:"technique"`
	Scale     string `json:"scale"`
	GoVersion string `json:"go_version"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS is the scheduler's actual processor budget, which on
	// container-limited CI runners is smaller than NumCPU — the value a
	// wall-clock comparison actually ran under.
	GOMAXPROCS int     `json:"gomaxprocs"`
	Iters      int     `json:"iters"`
	Entries    []Entry `json:"entries"`

	// Sched compares one scheduler pass over the same experiment plan at
	// one worker versus N workers.
	Sched *SchedBaseline `json:"sched,omitempty"`

	// Ckpt compares a mini multi-configuration sweep with the shared
	// functional-prefix checkpoint store disabled versus enabled.
	Ckpt *CkptBaseline `json:"ckpt,omitempty"`

	// Trace compares a mini multi-configuration sweep with the
	// record-once/replay-many functional trace store disabled versus
	// enabled.
	Trace *TraceBaseline `json:"trace,omitempty"`

	// Journal measures the flight recorder: the cost of a Record call
	// with the recorder off (the always-on tax every instrumented code
	// path pays) and on, plus sustained events/sec.
	Journal *JournalBaseline `json:"journal,omitempty"`

	// Mem times a warming-heavy run of the memory-bound benchmark.
	Mem *MemBaseline `json:"mem,omitempty"`

	// Timeline compares a sampled run of one benchmark with the interval
	// timeline recorder off versus on, so the telemetry tax stays visible.
	Timeline *TimelineBaseline `json:"timeline,omitempty"`
}

// Entry records the best-of-N run for one benchmark, without and with
// cancellation polling. Both walls are minima over the same iteration
// count, so a comparison of two entries is min-vs-min — the noise floor
// is the scheduler's, not the sampler's.
type Entry struct {
	Bench          string  `json:"bench"`
	SimulatedInstr uint64  `json:"simulated_instr"`
	WallNS         int64   `json:"wall_ns"`
	NSPerInstr     float64 `json:"ns_per_instr"`
	HostMIPS       float64 `json:"host_mips"`
	CPI            float64 `json:"cpi"`

	// CancelWallNS is the best wall-clock with a cancellable context
	// attached (the runner chunks execution and polls every CheckEvery
	// instructions); CancelOverheadPct is its relative cost in percent,
	// clamped at zero (both walls are independent minima, so on a noisy
	// host the polled minimum can land below the plain one — that reads
	// as negative overhead, which is measurement noise, not a speedup).
	CancelWallNS      int64   `json:"cancel_wall_ns"`
	CancelOverheadPct float64 `json:"cancel_overhead_pct"`
}

// SchedBaseline is the serial-versus-parallel scheduler comparison.
// Cells counts distinct experiment runs in the plan; Speedup is the
// serial wall divided by the parallel wall (~1.0 on a single-core host,
// approaching Workers on an idle multi-core runner); Utilization is
// busy worker-time over Workers x wall for the parallel pass. P50NS/
// P95NS/P99NS are the parallel pass's per-cell wall-clock quantiles
// (nearest-rank, from the scheduler's cost attribution).
type SchedBaseline struct {
	Workers        int     `json:"workers"`
	Cells          int     `json:"cells"`
	SerialWallNS   int64   `json:"serial_wall_ns"`
	ParallelWallNS int64   `json:"parallel_wall_ns"`
	Speedup        float64 `json:"speedup"`
	Utilization    float64 `json:"utilization"`
	P50NS          int64   `json:"p50_ns,omitempty"`
	P95NS          int64   `json:"p95_ns,omitempty"`
	P99NS          int64   `json:"p99_ns,omitempty"`
}

// CkptBaseline is the before/after comparison for the shared
// functional-prefix checkpoint store over a mini multi-configuration
// sweep. NSPerInstr uses the store-off sweep's instruction total as the
// denominator for both walls: nanoseconds per instruction of simulation
// work *covered*, so the on/off values are directly comparable.
type CkptBaseline struct {
	Bench         string  `json:"bench"`
	Configs       int     `json:"configs"`
	OffWallNS     int64   `json:"off_wall_ns"`
	OnWallNS      int64   `json:"on_wall_ns"`
	OffNSPerInstr float64 `json:"off_ns_per_instr"`
	OnNSPerInstr  float64 `json:"on_ns_per_instr"`
	Speedup       float64 `json:"speedup"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Evictions     int64   `json:"evictions"`
	Bytes         int64   `json:"bytes"`
}

// TraceBaseline is the before/after comparison for the shared functional
// trace store over a mini multi-configuration sweep (both arms run with
// the checkpoint store detached, so the comparison isolates record/replay
// from prefix checkpointing). NSPerInstr uses the store-off sweep's
// instruction total as the denominator for both walls, exactly like
// CkptBaseline.
type TraceBaseline struct {
	Bench         string  `json:"bench"`
	Configs       int     `json:"configs"`
	OffWallNS     int64   `json:"off_wall_ns"`
	OnWallNS      int64   `json:"on_wall_ns"`
	OffNSPerInstr float64 `json:"off_ns_per_instr"`
	OnNSPerInstr  float64 `json:"on_ns_per_instr"`
	Speedup       float64 `json:"speedup"`
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Evictions     int64   `json:"evictions"`
	Bytes         int64   `json:"bytes"`
}

// MemBaseline times a warming-heavy SMARTS run of one benchmark (the
// memory-bound one, so the cache/TLB model dominates the functional
// warming between samples). WallNS is the minimum over the iterations.
// The JSON keys keep the on_ prefix of the former two-arm block, so
// baselines written before and after compare.
type MemBaseline struct {
	Bench          string  `json:"bench"`
	SimulatedInstr uint64  `json:"simulated_instr"`
	WallNS         int64   `json:"on_wall_ns"`
	NSPerInstr     float64 `json:"on_ns_per_instr"`
}

// TimelineBaseline is the before/after comparison for the interval
// timeline recorder over a sampled run of one benchmark. Off runs with
// recording disabled (the shipping fast path when no stride is set); On
// records at the default 100k-instruction stride. Recording must never
// perturb simulation, so StatsIdentical — the full architectural stats
// struct equal between the arms — is a correctness assertion the writer
// enforces, not a tolerance. Intervals counts the samples the on arm
// captured; OverheadPct is the on arm's wall-clock cost in percent,
// clamped at zero (both walls are independent minima).
type TimelineBaseline struct {
	Bench          string  `json:"bench"`
	SimulatedInstr uint64  `json:"simulated_instr"`
	Intervals      int     `json:"intervals"`
	OffWallNS      int64   `json:"off_wall_ns"`
	OnWallNS       int64   `json:"on_wall_ns"`
	OffNSPerInstr  float64 `json:"off_ns_per_instr"`
	OnNSPerInstr   float64 `json:"on_ns_per_instr"`
	OverheadPct    float64 `json:"overhead_pct"`
	StatsIdentical bool    `json:"stats_identical"`
}

// JournalBaseline is the flight-recorder cost measurement: the
// recorder-off Record path (the always-on tax), the recorder-on path
// (timestamp + ring insert), and sustained single-threaded throughput.
type JournalBaseline struct {
	Capacity           int     `json:"capacity"`
	Events             int     `json:"events"`
	DisabledNSPerEvent float64 `json:"disabled_ns_per_event"`
	EnabledNSPerEvent  float64 `json:"enabled_ns_per_event"`
	EventsPerSec       float64 `json:"events_per_sec"`
}

// Read parses a baseline file.
func Read(path string) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// Write writes a baseline as indented JSON.
func Write(path string, b *Baseline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
