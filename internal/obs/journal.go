package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// EventKind classifies a journal event. Kinds are closed: the flight
// recorder records what the execution stack does (cells, checkpoints,
// engine dedup, scheduler drains, runner phases), not free-form logs —
// the structured logger handles those.
type EventKind uint8

// The event kinds.
const (
	EvNone EventKind = iota
	// Scheduler cell lifecycle (internal/experiments/sched).
	EvCellStart
	EvCellFinish
	EvCellRetry
	EvCellPanic
	// Checkpoint store traffic (core.NewCheckpointStore).
	EvCkptHit
	EvCkptMiss
	EvCkptEvict
	// Engine request deduplication (cache hit or single-flight join).
	EvEngineDedup
	// A cell drained unstarted after cancellation.
	EvSchedDrain
	// A runner phase (fast-forward, functional-warm, detailed, measure)
	// completed.
	EvPhase
	// A runtime health sample (goroutines, heap, GC pause) was taken by
	// the background sampler.
	EvRuntimeSample
	// The hang watchdog declared a cell stalled: no runner heartbeat for
	// a full -cell-timeout window. Detail carries the goroutine stacks
	// captured at the stall (truncated to the journal's detail budget).
	EvHang
	// The durable run-state log dropped a torn or corrupt tail on open
	// (crash mid-append); N is the number of bytes truncated.
	EvStateTruncate
	// A sweep resumed from a durable run-state log; N is the number of
	// completed cells replayed into the warm outcome map.
	EvStateResume
	// The process received a termination signal and dumped a mid-run
	// manifest post-mortem; Subject names the signal.
	EvSignal
	// Trace store traffic (core.NewTraceStore): a replay hit, a recording
	// miss, or an eviction under byte pressure.
	EvTraceHit
	EvTraceMiss
	EvTraceEvict
)

// evKindMax is the last valid kind, the bound UnmarshalText scans to.
const evKindMax = EvTraceEvict

// String names the kind in snake_case (the JSON wire form).
func (k EventKind) String() string {
	switch k {
	case EvNone:
		return "none"
	case EvCellStart:
		return "cell_start"
	case EvCellFinish:
		return "cell_finish"
	case EvCellRetry:
		return "cell_retry"
	case EvCellPanic:
		return "cell_panic"
	case EvCkptHit:
		return "ckpt_hit"
	case EvCkptMiss:
		return "ckpt_miss"
	case EvCkptEvict:
		return "ckpt_evict"
	case EvEngineDedup:
		return "engine_dedup"
	case EvSchedDrain:
		return "sched_drain"
	case EvPhase:
		return "phase"
	case EvRuntimeSample:
		return "runtime_sample"
	case EvHang:
		return "hang"
	case EvStateTruncate:
		return "state_truncate"
	case EvStateResume:
		return "state_resume"
	case EvSignal:
		return "signal"
	case EvTraceHit:
		return "trace_hit"
	case EvTraceMiss:
		return "trace_miss"
	case EvTraceEvict:
		return "trace_evict"
	default:
		return "unknown"
	}
}

// MarshalText renders the kind as its name, so events serialize readably
// in both the JSONL sink and the manifest's journal tail.
func (k EventKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses the name form back, so manifests and JSONL sinks
// round-trip through encoding/json.
func (k *EventKind) UnmarshalText(b []byte) error {
	name := string(b)
	for c := EvNone; c <= evKindMax; c++ {
		if c.String() == name {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("obs: unknown event kind %q", name)
}

// Event is one flight-recorder entry. The struct is a flat value — no
// pointers beyond string headers — so recording copies it into the ring
// without allocating, and a disabled journal's Record is a single atomic
// load (see TestJournalDisabledZeroAlloc).
type Event struct {
	// Seq is the event's global sequence number (assigned by Record);
	// TimeNS its wall-clock in Unix nanoseconds. Log lines carry the same
	// clock, so journal events and logs correlate by timestamp.
	Seq    uint64    `json:"seq"`
	TimeNS int64     `json:"ts_ns"`
	Kind   EventKind `json:"kind"`

	// Actor is the scheduler worker index the event happened on, or -1
	// when no worker applies (engine, checkpoint store, runner phases).
	Actor int32 `json:"actor"`

	// Subject names what the event is about: a cell label, an engine run
	// key, a checkpoint "prog@pos", or a phase name.
	Subject string `json:"subject,omitempty"`

	// Detail carries the event's free text: an error chain, a dedup mode,
	// an eviction reason.
	Detail string `json:"detail,omitempty"`

	// N is the event's count-like payload: retry attempt number, plan
	// index, checkpoint bytes, phase instructions.
	N int64 `json:"n,omitempty"`

	// DurNS is the event's duration, for completion events (cell finish,
	// phase end). The event's TimeNS stamps the *end*; DurNS reaches back.
	DurNS int64 `json:"dur_ns,omitempty"`
}

// Journal is a bounded, concurrency-safe ring of structured events — the
// run's flight recorder. It is disabled by default: Record on a disabled
// (or nil) journal is one atomic load and no allocation, so every
// subsystem records unconditionally and pays nothing until a CLI turns
// the recorder on (-debug-addr, -manifest, -trace-out, or -journal).
//
// The ring keeps the most recent cap events; older ones are overwritten,
// never flushed — attach a JSONL sink (SetSink) to persist everything.
type Journal struct {
	enabled atomic.Bool

	mu      sync.Mutex
	buf     []Event
	total   uint64 // events ever recorded; buf[ (total-1) % len ] is newest
	dropped uint64 // events overwritten before ever being read out
	sink    io.Writer
}

// DefaultJournalCapacity sizes the process-wide journal: large enough to
// hold the full event stream of a test-scale sweep, small enough that the
// resident ring is a few hundred KiB.
const DefaultJournalCapacity = 8192

// NewJournal returns a disabled journal holding the last cap events
// (cap < 1 uses DefaultJournalCapacity).
func NewJournal(capacity int) *Journal {
	if capacity < 1 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{buf: make([]Event, capacity)}
}

// DefaultJournal is the process-wide flight recorder, disabled by default.
// The execution stack (scheduler, engine, checkpoint store, runner)
// records into it unless given an explicit journal.
var DefaultJournal = NewJournal(DefaultJournalCapacity)

// SetEnabled switches recording on or off.
func (j *Journal) SetEnabled(on bool) {
	if j == nil {
		return
	}
	j.enabled.Store(on)
}

// Enabled reports whether Record currently stores events. Call sites that
// must format a Subject or Detail should guard on it so a disabled
// recorder costs neither the formatting nor its allocations.
func (j *Journal) Enabled() bool {
	return j != nil && j.enabled.Load()
}

// Record stamps the event's sequence number and timestamp and appends it
// to the ring. On a disabled or nil journal it returns immediately without
// allocating — the zero-cost path the default configuration rides.
func (j *Journal) Record(e Event) {
	if j == nil || !j.enabled.Load() {
		return
	}
	now := time.Now().UnixNano()
	j.mu.Lock()
	e.Seq = j.total
	if e.TimeNS == 0 {
		e.TimeNS = now
	}
	if j.total >= uint64(len(j.buf)) {
		// The slot holds a live event the ring never surfaced; count the
		// overwrite so ring overflow is observable instead of silent (see
		// Dropped and the journal_dropped_total metric).
		j.dropped++
	}
	j.buf[j.total%uint64(len(j.buf))] = e
	j.total++
	sink := j.sink
	j.mu.Unlock()
	if sink != nil {
		b, err := json.Marshal(e)
		if err == nil {
			b = append(b, '\n')
			_, _ = sink.Write(b)
		}
	}
}

// SetSink attaches a writer that receives every recorded event as one
// JSON line (nil detaches). The sink sees events after they enter the
// ring; writes happen outside the ring lock, so a slow sink cannot stall
// concurrent recorders, but interleaved lines may arrive slightly out of
// sequence order (the seq field disambiguates).
func (j *Journal) SetSink(w io.Writer) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.sink = w
	j.mu.Unlock()
}

// Len returns the number of events currently resident in the ring.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.total < uint64(len(j.buf)) {
		return int(j.total)
	}
	return len(j.buf)
}

// Total returns the number of events ever recorded (resident or
// overwritten).
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.total
}

// Dropped returns the number of events the ring overwrote before they
// could be read — the journal's silent-loss indicator. A sink (SetSink)
// still receives every event; Dropped only measures ring residency loss.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Tail returns the most recent n events in recording order (oldest
// first). n < 1 or n > resident returns every resident event.
func (j *Journal) Tail(n int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	resident := int(j.total)
	if resident > len(j.buf) {
		resident = len(j.buf)
	}
	if n < 1 || n > resident {
		n = resident
	}
	out := make([]Event, n)
	for i := 0; i < n; i++ {
		seq := j.total - uint64(n) + uint64(i)
		out[i] = j.buf[seq%uint64(len(j.buf))]
	}
	return out
}

// Reset drops every resident event and the sequence counter. Enabled
// state and sink are unchanged (tests isolate runs this way).
func (j *Journal) Reset() {
	if j == nil {
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.total = 0
	j.dropped = 0
	for i := range j.buf {
		j.buf[i] = Event{}
	}
}

// WriteTail writes the most recent n events as JSON lines (the journal's
// post-mortem form; n < 1 writes every resident event).
func (j *Journal) WriteTail(w io.Writer, n int) error {
	for _, e := range j.Tail(n) {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		b = append(b, '\n')
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
