package benchfmt

import (
	"fmt"
	"strings"
)

// Tolerances bounds how much worse each block of a new baseline may be
// before Compare flags a regression, in percent. The defaults are
// deliberately generous: both sides of a comparison are min-of-iters
// measurements, but CI runners are shared and throttled, so the gate is
// tuned to catch structural breakage and order-of-magnitude slowdowns,
// not single-digit drift (which the committed baseline's host would
// misreport anyway).
type Tolerances struct {
	EntryPct    float64 // per-benchmark ns/instr
	SchedPct    float64 // scheduler serial/parallel walls
	CkptPct     float64 // checkpoint-on ns/instr
	TracePct    float64 // trace-replay-on ns/instr
	JournalPct  float64 // flight-recorder per-event costs
	MemPct      float64 // mem-block ns/instr
	TimelinePct float64 // timeline-recorder-on ns/instr

	// StructuralOnly skips every timing comparison and keeps only the
	// host-independent checks: blocks present, benchmarks present,
	// deterministic instruction counts equal, scheduler cell counts
	// equal, checkpoint store actually hitting. This is the mode CI uses
	// against a baseline committed from a different machine.
	StructuralOnly bool
}

// DefaultTolerances returns the standard gate.
func DefaultTolerances() Tolerances {
	return Tolerances{EntryPct: 25, SchedPct: 40, CkptPct: 40, TracePct: 40, JournalPct: 50, MemPct: 40, TimelinePct: 50}
}

// Delta is one compared metric.
type Delta struct {
	Metric     string  `json:"metric"`
	Old        float64 `json:"old"`
	New        float64 `json:"new"`
	DeltaPct   float64 `json:"delta_pct"` // positive = worse (costlier)
	Tolerance  float64 `json:"tolerance_pct"`
	Regression bool    `json:"regression"`
}

// Comparison is the outcome of Compare: the metric deltas and any
// structural problems. A structural problem is always a regression.
type Comparison struct {
	OldStamp Stamp    `json:"old_stamp"`
	NewStamp Stamp    `json:"new_stamp"`
	Deltas   []Delta  `json:"deltas"`
	Problems []string `json:"problems,omitempty"`
}

// Regressed reports whether the comparison should fail a gate.
func (c *Comparison) Regressed() bool {
	if len(c.Problems) > 0 {
		return true
	}
	for _, d := range c.Deltas {
		if d.Regression {
			return true
		}
	}
	return false
}

// pctChange is the relative worsening of a cost metric, in percent.
func pctChange(old, new float64) float64 {
	if old <= 0 {
		return 0
	}
	return 100 * (new - old) / old
}

// check appends one compared metric, flagging it when the worsening
// exceeds the tolerance (a tolerance of 0 records the delta without
// gating on it).
func (c *Comparison) check(metric string, old, new, tolPct float64) {
	d := Delta{Metric: metric, Old: old, New: new,
		DeltaPct: pctChange(old, new), Tolerance: tolPct}
	d.Regression = tolPct > 0 && d.DeltaPct > tolPct
	c.Deltas = append(c.Deltas, d)
}

func (c *Comparison) problem(format string, args ...any) {
	c.Problems = append(c.Problems, fmt.Sprintf(format, args...))
}

// Compare diffs a new baseline against an old one under the tolerances.
// Structural checks (missing blocks or benchmarks, deterministic
// instruction-count mismatches, scheduler cell-count mismatches, a
// checkpoint store that never hits) apply in every mode; timing checks
// are skipped under StructuralOnly.
func Compare(old, new *Baseline, tol Tolerances) *Comparison {
	c := &Comparison{OldStamp: old.Stamp, NewStamp: new.Stamp}

	newEntries := make(map[string]Entry, len(new.Entries))
	for _, e := range new.Entries {
		newEntries[e.Bench] = e
	}
	for _, oe := range old.Entries {
		ne, ok := newEntries[oe.Bench]
		if !ok {
			c.problem("benchmark %q present in old baseline but missing from new", oe.Bench)
			continue
		}
		// The simulated instruction count at a fixed scale is
		// deterministic: a mismatch means the corpus changed under the
		// comparison, which no timing tolerance excuses.
		if oe.SimulatedInstr != ne.SimulatedInstr {
			c.problem("benchmark %q simulated %d instructions, baseline simulated %d (corpus changed)",
				oe.Bench, ne.SimulatedInstr, oe.SimulatedInstr)
			continue
		}
		if !tol.StructuralOnly {
			c.check(oe.Bench+" ns_per_instr", oe.NSPerInstr, ne.NSPerInstr, tol.EntryPct)
			c.check(oe.Bench+" cancel_overhead_pct", oe.CancelOverheadPct, ne.CancelOverheadPct, 0)
		}
	}

	switch {
	case old.Sched == nil:
	case new.Sched == nil:
		c.problem("sched block present in old baseline but missing from new")
	default:
		if old.Sched.Cells != new.Sched.Cells {
			c.problem("sched plan has %d cells, baseline has %d (plan changed)",
				new.Sched.Cells, old.Sched.Cells)
		} else if !tol.StructuralOnly {
			c.check("sched serial_wall_ns", float64(old.Sched.SerialWallNS), float64(new.Sched.SerialWallNS), tol.SchedPct)
			c.check("sched parallel_wall_ns", float64(old.Sched.ParallelWallNS), float64(new.Sched.ParallelWallNS), tol.SchedPct)
			c.check("sched p99_ns", float64(old.Sched.P99NS), float64(new.Sched.P99NS), 0)
		}
	}

	switch {
	case old.Ckpt == nil:
	case new.Ckpt == nil:
		c.problem("ckpt block present in old baseline but missing from new")
	default:
		// A store that records zero hits over a multi-configuration
		// sweep means prefix sharing is broken outright — that fails the
		// gate even in structural-only mode.
		if new.Ckpt.Hits == 0 {
			c.problem("ckpt store recorded zero hits over %d configurations (prefix sharing broken)",
				new.Ckpt.Configs)
		}
		if !tol.StructuralOnly {
			c.check("ckpt on_ns_per_instr", old.Ckpt.OnNSPerInstr, new.Ckpt.OnNSPerInstr, tol.CkptPct)
		}
	}

	switch {
	case old.Trace == nil:
	case new.Trace == nil:
		c.problem("trace block present in old baseline but missing from new")
	default:
		// A trace store that never replays over a multi-configuration
		// sweep means record-once/replay-many is broken outright — that
		// fails the gate even in structural-only mode.
		if new.Trace.Hits == 0 {
			c.problem("trace store recorded zero replay hits over %d configurations (record/replay broken)",
				new.Trace.Configs)
		}
		if !tol.StructuralOnly {
			c.check("trace on_ns_per_instr", old.Trace.OnNSPerInstr, new.Trace.OnNSPerInstr, tol.TracePct)
		}
	}

	switch {
	case old.Mem == nil:
	case new.Mem == nil:
		c.problem("mem block present in old baseline but missing from new")
	default:
		if old.Mem.SimulatedInstr != new.Mem.SimulatedInstr {
			c.problem("mem block simulated %d instructions, baseline simulated %d (corpus changed)",
				new.Mem.SimulatedInstr, old.Mem.SimulatedInstr)
		}
		if !tol.StructuralOnly {
			c.check("mem on_ns_per_instr", old.Mem.NSPerInstr, new.Mem.NSPerInstr, tol.MemPct)
		}
	}

	switch {
	case old.Timeline == nil:
	case new.Timeline == nil:
		c.problem("timeline block present in old baseline but missing from new")
	default:
		// Recording may only observe, never perturb: an arm divergence is
		// a correctness bug, not a perf regression, and fails even in
		// structural-only mode. So does a recorder that captured nothing.
		if !new.Timeline.StatsIdentical {
			c.problem("timeline recorder arms diverged on %q (architectural stats not identical)", new.Timeline.Bench)
		}
		if new.Timeline.Intervals == 0 {
			c.problem("timeline recorder captured zero intervals on %q (recording broken)", new.Timeline.Bench)
		}
		if old.Timeline.SimulatedInstr != new.Timeline.SimulatedInstr {
			c.problem("timeline block simulated %d instructions, baseline simulated %d (corpus changed)",
				new.Timeline.SimulatedInstr, old.Timeline.SimulatedInstr)
		}
		if !tol.StructuralOnly {
			c.check("timeline on_ns_per_instr", old.Timeline.OnNSPerInstr, new.Timeline.OnNSPerInstr, tol.TimelinePct)
		}
	}

	switch {
	case old.Journal == nil:
	case new.Journal == nil:
		c.problem("journal block present in old baseline but missing from new")
	default:
		if !tol.StructuralOnly {
			c.check("journal disabled_ns_per_event", old.Journal.DisabledNSPerEvent, new.Journal.DisabledNSPerEvent, tol.JournalPct)
			c.check("journal enabled_ns_per_event", old.Journal.EnabledNSPerEvent, new.Journal.EnabledNSPerEvent, tol.JournalPct)
		}
	}

	return c
}

// Render formats the comparison as a delta table followed by any
// structural problems.
func (c *Comparison) Render() string {
	var b strings.Builder
	stamp := func(s Stamp) string {
		if s.GitCommit == "" {
			return "(unstamped)"
		}
		out := s.GitCommit
		if len(out) > 12 {
			out = out[:12]
		}
		if s.GitDirty {
			out += "+dirty"
		}
		if s.Timestamp != "" {
			out += " @ " + s.Timestamp
		}
		return out
	}
	fmt.Fprintf(&b, "old: %s\nnew: %s\n", stamp(c.OldStamp), stamp(c.NewStamp))
	if len(c.Deltas) > 0 {
		fmt.Fprintf(&b, "%-28s %14s %14s %9s %9s\n", "metric", "old", "new", "delta", "tol")
		for _, d := range c.Deltas {
			mark := ""
			if d.Regression {
				mark = "  << REGRESSION"
			}
			tolStr := "-"
			if d.Tolerance > 0 {
				tolStr = fmt.Sprintf("+%.0f%%", d.Tolerance)
			}
			fmt.Fprintf(&b, "%-28s %14.3f %14.3f %+8.1f%% %9s%s\n",
				d.Metric, d.Old, d.New, d.DeltaPct, tolStr, mark)
		}
	}
	for _, p := range c.Problems {
		fmt.Fprintf(&b, "PROBLEM: %s\n", p)
	}
	return b.String()
}
