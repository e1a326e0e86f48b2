// Package store provides the shared, thread-safe, byte-bounded artifact
// store behind both functional-reuse layers: architectural checkpoints of
// functional prefixes and recorded trace regions. A value is keyed by
// (program identity, instruction position); the store keeps a sorted
// position index per program, evicts least-recently-used values past its
// byte budget, and populates single-flight: under the parallel experiment
// scheduler, concurrent runs that need the same artifact elect one owner
// to produce it while the others wait for the result instead of burning
// a core each on identical functional execution.
//
// Instances differ only in their hit rule (see New) and in the names
// they report under (see Kind).
package store

import (
	"container/list"
	"context"
	"sort"
	"strconv"
	"sync"

	"repro/internal/obs"
	"repro/internal/program"
)

// Value is a storable artifact: a pointer whose resident size the byte
// budget charges.
type Value interface {
	comparable
	Bytes() int64
}

// ProgID identifies a program image: its name (benchmark/input/scale are
// encoded in it by the bench builders) plus the image fingerprint, so two
// images that merely share a name can never alias.
type ProgID struct {
	Name string
	FP   uint64
}

// IDOf derives the store identity of a program.
func IDOf(p *program.Program) ProgID {
	return ProgID{Name: p.Name, FP: p.Fingerprint()}
}

// Key addresses one artifact: a program at an instruction position.
type Key struct {
	Prog ProgID
	Pos  uint64
}

// Kind names an instance's observable surface: its metric series are
// <Metric>_hits_total, <Metric>_misses_total, <Metric>_evictions_total,
// <Metric>_singleflight_waits_total, <Metric>_resident_bytes and
// <Metric>_entries, and its journal events are Hit, Miss and Evict.
type Kind struct {
	Metric           string
	Hit, Miss, Evict obs.EventKind
}

// Stats is a point-in-time snapshot of the store's accounting.
type Stats struct {
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	MaxBytes      int64 `json:"max_bytes"`
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Waits         int64 `json:"waits"`          // single-flight waits on another run's population
	RecordedBytes int64 `json:"recorded_bytes"` // cumulative bytes produced (not net of eviction)
}

// entry is one resident value; list elements hold *entry.
type entry[V Value] struct {
	key   Key
	v     V
	bytes int64
}

// flight is one in-progress population; waiters block on done and read v
// afterwards (zero when the owner failed or produced nothing cacheable).
type flight[V Value] struct {
	done chan struct{}
	v    V
}

// Store is a byte-bounded LRU artifact cache with single-flight
// population. The zero value is not useful; use New.
type Store[V Value] struct {
	// Obs is the registry receiving the store's instrumentation (the
	// series named by its Kind). Nil uses obs.Default. Set before the
	// first use.
	Obs *obs.Registry

	// Journal receives the store's flight-recorder events (hit, miss,
	// evict, keyed "prog@pos"). Nil uses obs.DefaultJournal, disabled by
	// default and free when off.
	Journal *obs.Journal

	kind   Kind
	covers func(v V, pos, want uint64) bool

	mu       sync.Mutex
	maxBytes int64
	lru      *list.List // front = most recently used
	entries  map[Key]*list.Element
	byProg   map[ProgID][]uint64 // resident positions, ascending
	bytes    int64
	inflight map[Key]*flight[V]

	hits, misses, evictions, waits, recordedBytes int64

	metricsOnce sync.Once
	mHits       *obs.Counter
	mMisses     *obs.Counter
	mEvictions  *obs.Counter
	mWaits      *obs.Counter
	mBytes      *obs.Gauge
	mEntries    *obs.Gauge
}

// New creates a store bounded to maxBytes of resident values. covers is
// the hit rule for a request at pos wanting the want positions from it:
//   - nil (checkpoints): only the entry at exactly pos hits, and a
//     missing request's producer receives the nearest resident entry
//     below pos to start from;
//   - non-nil (trace regions): any resident entry at or below pos whose
//     value covers [pos, pos+want) hits, and the producer receives none.
func New[V Value](maxBytes int64, kind Kind, covers func(v V, pos, want uint64) bool) *Store[V] {
	return &Store[V]{
		kind:     kind,
		covers:   covers,
		maxBytes: maxBytes,
		lru:      list.New(),
		entries:  make(map[Key]*list.Element),
		byProg:   make(map[ProgID][]uint64),
		inflight: make(map[Key]*flight[V]),
	}
}

// initMetrics binds the registry series (lazily, so Obs can be assigned
// after construction).
func (s *Store[V]) initMetrics() {
	s.metricsOnce.Do(func() {
		r := s.Obs
		if r == nil {
			r = obs.Default
		}
		m := s.kind.Metric
		s.mHits = r.Counter(m + "_hits_total")
		s.mMisses = r.Counter(m + "_misses_total")
		s.mEvictions = r.Counter(m + "_evictions_total")
		s.mWaits = r.Counter(m + "_singleflight_waits_total")
		s.mBytes = r.Gauge(m + "_resident_bytes")
		s.mEntries = r.Gauge(m + "_entries")
	})
}

// record emits one store event when the flight recorder is on.
func (s *Store[V]) record(kind obs.EventKind, k Key, n int64) {
	j := s.Journal
	if j == nil {
		j = obs.DefaultJournal
	}
	if j.Enabled() {
		subject := k.Prog.Name + "@" + strconv.FormatUint(k.Pos, 10)
		j.Record(obs.Event{Kind: kind, Actor: -1, Subject: subject, N: n})
	}
}

// Get returns the value serving a request at pos for want positions,
// producing it when absent. On a hit (including a successful
// single-flight wait) it returns (v, false, nil). On a miss this caller
// becomes the owner: produce is invoked with the nearest resident entry
// below pos (exact hit rule only; zero and 0 otherwise) and returns the
// value for pos, or zero to cache nothing. The owner gets (v, true, err)
// back: it produced v on its own machine. When a waited-on owner fails,
// panics, or produces a value that does not serve the request, waiters
// get (zero, false, nil) and fall back to doing the work themselves. A
// cancelled ctx aborts a wait with its error; the owner's population
// continues for the owner.
func (s *Store[V]) Get(ctx context.Context, id ProgID, pos, want uint64, produce func(near V, nearPos uint64) (V, error)) (V, bool, error) {
	s.initMetrics()
	k := Key{Prog: id, Pos: pos}
	var zero V

	s.mu.Lock()
	if v, ok := s.lookupLocked(id, pos, want); ok {
		s.hits++
		s.mu.Unlock()
		s.mHits.Inc()
		s.record(s.kind.Hit, k, v.Bytes())
		return v, false, nil
	}
	if f, ok := s.inflight[k]; ok {
		s.waits++
		s.mu.Unlock()
		s.mWaits.Inc()
		select {
		case <-f.done:
		case <-ctx.Done():
			return zero, false, ctx.Err()
		}
		if f.v == zero || (s.covers != nil && !s.covers(f.v, pos, want)) {
			return zero, false, nil // owner failed or fell short; caller falls back
		}
		s.mu.Lock()
		s.hits++
		s.mu.Unlock()
		s.mHits.Inc()
		s.record(s.kind.Hit, k, f.v.Bytes())
		return f.v, false, nil
	}
	f := &flight[V]{done: make(chan struct{})}
	s.inflight[k] = f
	s.misses++
	var near V
	var nearPos uint64
	missN := int64(want) // a miss journals what it lacks: the window, or the nearest start
	if s.covers == nil {
		near, nearPos = s.nearestLocked(id, pos)
		missN = int64(nearPos)
	}
	s.mu.Unlock()
	s.mMisses.Inc()
	s.record(s.kind.Miss, k, missN)

	completed := false
	defer func() {
		if !completed { // produce panicked: release waiters empty-handed
			s.finishFlight(k, f, zero)
		}
	}()
	v, err := produce(near, nearPos)
	if err != nil {
		v = zero
	}
	completed = true
	s.finishFlight(k, f, v)
	return v, true, err
}

// finishFlight publishes a population result and releases the key. It is
// also invoked from a deferred guard so a panicking produce cannot strand
// waiters on a flight that will never complete.
func (s *Store[V]) finishFlight(k Key, f *flight[V], v V) {
	var zero V
	s.mu.Lock()
	delete(s.inflight, k)
	f.v = v
	close(f.done)
	if v != zero {
		s.recordedBytes += v.Bytes()
		s.putLocked(k, v)
	}
	s.mu.Unlock()
	if v != zero {
		s.updateGauges()
	}
}

// Peek returns the resident value serving a request at pos for want
// positions, counting neither hit nor miss, or (zero, false).
func (s *Store[V]) Peek(id ProgID, pos, want uint64) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lookupLocked(id, pos, want)
}

// lookupLocked applies the hit rule under s.mu, touching the LRU on
// success. Under the covering rule it scans resident entries at or below
// pos from the nearest backwards; entries per program are few (one per
// distinct position a sweep uses), so the scan is short.
func (s *Store[V]) lookupLocked(id ProgID, pos, want uint64) (V, bool) {
	var zero V
	if s.covers == nil {
		el, ok := s.entries[Key{Prog: id, Pos: pos}]
		if !ok {
			return zero, false
		}
		s.lru.MoveToFront(el)
		return el.Value.(*entry[V]).v, true
	}
	ps := s.byProg[id]
	for j := sort.Search(len(ps), func(i int) bool { return ps[i] > pos }) - 1; j >= 0; j-- {
		el := s.entries[Key{Prog: id, Pos: ps[j]}]
		if v := el.Value.(*entry[V]).v; s.covers(v, pos, want) {
			s.lru.MoveToFront(el)
			return v, true
		}
	}
	return zero, false
}

// nearestLocked returns the resident entry with the largest position <=
// pos for the program, or (zero, 0), touching the LRU on success.
func (s *Store[V]) nearestLocked(id ProgID, pos uint64) (V, uint64) {
	ps := s.byProg[id]
	i := sort.Search(len(ps), func(i int) bool { return ps[i] > pos })
	if i == 0 {
		var zero V
		return zero, 0
	}
	el := s.entries[Key{Prog: id, Pos: ps[i-1]}]
	s.lru.MoveToFront(el)
	return el.Value.(*entry[V]).v, ps[i-1]
}

// Put inserts a value directly (tests; Get owners insert through their
// produce return).
func (s *Store[V]) Put(id ProgID, pos uint64, v V) {
	s.initMetrics()
	s.mu.Lock()
	s.putLocked(Key{Prog: id, Pos: pos}, v)
	s.mu.Unlock()
	s.updateGauges()
}

// putLocked inserts under s.mu, evicting LRU entries past the byte bound.
// Values larger than the whole budget are not cached at all. When the
// key is already resident the larger value stays: racing recordings at
// one start keep the longer region, and identical checkpoints keep the
// existing one. A replacement is not an eviction.
func (s *Store[V]) putLocked(k Key, v V) {
	cost := v.Bytes()
	if cost > s.maxBytes {
		return
	}
	if el, ok := s.entries[k]; ok {
		s.lru.MoveToFront(el)
		en := el.Value.(*entry[V])
		if cost <= en.bytes {
			return
		}
		s.bytes += cost - en.bytes
		en.v, en.bytes = v, cost
	} else {
		s.entries[k] = s.lru.PushFront(&entry[V]{key: k, v: v, bytes: cost})
		s.insertPosLocked(k)
		s.bytes += cost
	}
	for s.bytes > s.maxBytes && s.lru.Len() > 1 {
		s.evictLocked(s.lru.Back())
	}
}

// evictLocked removes one LRU element under s.mu.
func (s *Store[V]) evictLocked(el *list.Element) {
	en := el.Value.(*entry[V])
	s.lru.Remove(el)
	delete(s.entries, en.key)
	s.removePosLocked(en.key)
	s.bytes -= en.bytes
	s.evictions++
	s.mEvictions.Inc()
	s.record(s.kind.Evict, en.key, en.bytes)
}

// insertPosLocked records a resident position in the per-program sorted
// index.
func (s *Store[V]) insertPosLocked(k Key) {
	ps := s.byProg[k.Prog]
	i := sort.Search(len(ps), func(i int) bool { return ps[i] >= k.Pos })
	ps = append(ps, 0)
	copy(ps[i+1:], ps[i:])
	ps[i] = k.Pos
	s.byProg[k.Prog] = ps
}

// removePosLocked drops a position from the per-program sorted index.
func (s *Store[V]) removePosLocked(k Key) {
	ps := s.byProg[k.Prog]
	i := sort.Search(len(ps), func(i int) bool { return ps[i] >= k.Pos })
	if i < len(ps) && ps[i] == k.Pos {
		ps = append(ps[:i], ps[i+1:]...)
	}
	if len(ps) == 0 {
		delete(s.byProg, k.Prog)
	} else {
		s.byProg[k.Prog] = ps
	}
}

// updateGauges publishes the resident size outside s.mu.
func (s *Store[V]) updateGauges() {
	s.mu.Lock()
	b, n := s.bytes, s.lru.Len()
	s.mu.Unlock()
	s.mBytes.Set(float64(b))
	s.mEntries.Set(float64(n))
}

// Stats snapshots the store's accounting.
func (s *Store[V]) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:       s.lru.Len(),
		Bytes:         s.bytes,
		MaxBytes:      s.maxBytes,
		Hits:          s.hits,
		Misses:        s.misses,
		Evictions:     s.evictions,
		Waits:         s.waits,
		RecordedBytes: s.recordedBytes,
	}
}

// MaxBytes returns the store's resident-byte budget. Producing callers
// consult it up front: a value that could never fit is not worth
// producing for the store at all.
func (s *Store[V]) MaxBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxBytes
}

// Counters returns the hit/miss counters and the cumulative produced
// bytes. The scheduler brackets every cell with this read to attribute
// store traffic, so it skips the full Stats construction.
func (s *Store[V]) Counters() (hits, misses, recordedBytes int64) {
	s.mu.Lock()
	hits, misses, recordedBytes = s.hits, s.misses, s.recordedBytes
	s.mu.Unlock()
	return hits, misses, recordedBytes
}

// Reset drops every resident value and zeroes the counters (tests and
// sweep teardown). In-progress populations are unaffected: their waiters
// still receive the produced value, it just is not cached.
func (s *Store[V]) Reset() {
	s.initMetrics()
	s.mu.Lock()
	s.lru.Init()
	s.entries = make(map[Key]*list.Element)
	s.byProg = make(map[ProgID][]uint64)
	s.bytes = 0
	s.hits, s.misses, s.evictions, s.waits, s.recordedBytes = 0, 0, 0, 0, 0
	s.mu.Unlock()
	s.updateGauges()
}
