package store

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// blob is a test artifact spanning n positions from start. Its size grows
// with n, so "keep the larger value" keeps the longer blob, as with trace
// regions.
type blob struct{ start, n uint64 }

func (b *blob) Bytes() int64 { return int64(b.n) + 1 }

func (b *blob) Covers(pos, want uint64) bool {
	return b.start <= pos && b.start+b.n >= pos+want
}

// rule is one hit rule the suite runs under: exact (checkpoints) or
// covering (trace regions).
type rule struct {
	name   string
	covers func(*blob, uint64, uint64) bool
}

func (r rule) exact() bool { return r.covers == nil }

// eachRule runs f as one subtest per hit rule, on a fresh store with a
// private registry and an enabled private journal.
func eachRule(t *testing.T, maxBytes int64, f func(t *testing.T, r rule, s *Store[*blob])) {
	for _, r := range []rule{{"exact", nil}, {"covering", (*blob).Covers}} {
		t.Run(r.name, func(t *testing.T) {
			s := New(maxBytes, Kind{Metric: "test", Hit: obs.EvCkptHit, Miss: obs.EvCkptMiss, Evict: obs.EvCkptEvict}, r.covers)
			s.Obs = obs.NewRegistry()
			s.Journal = obs.NewJournal(64)
			s.Journal.SetEnabled(true)
			f(t, r, s)
		})
	}
}

var prog = ProgID{Name: "p", FP: 1}

// produceBlob returns a producer of b that counts its calls.
func produceBlob(b *blob, calls *atomic.Int64) func(*blob, uint64) (*blob, error) {
	return func(*blob, uint64) (*blob, error) {
		calls.Add(1)
		return b, nil
	}
}

// waitFor polls cond until it holds or ten seconds pass.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

func inflight(s *Store[*blob]) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

func TestHitMissAndNearest(t *testing.T) {
	eachRule(t, 1<<20, func(t *testing.T, r rule, s *Store[*blob]) {
		ctx := context.Background()
		var calls atomic.Int64
		b := &blob{start: 100, n: 50}

		v, owned, err := s.Get(ctx, prog, 100, 50, func(near *blob, nearPos uint64) (*blob, error) {
			if near != nil || nearPos != 0 {
				t.Errorf("empty store offered nearest (%v, %d)", near, nearPos)
			}
			calls.Add(1)
			return b, nil
		})
		if err != nil || !owned || v != b {
			t.Fatalf("first Get = (%v, %v, %v), want owned %v", v, owned, err, b)
		}
		if v, owned, err := s.Get(ctx, prog, 100, 50, produceBlob(nil, &calls)); err != nil || owned || v != b {
			t.Fatalf("second Get = (%v, %v, %v), want a hit", v, owned, err)
		}
		if n := calls.Load(); n != 1 {
			t.Fatalf("produce ran %d times, want 1", n)
		}
		if st := s.Stats(); st.Hits != 1 || st.Misses != 1 || st.Entries != 1 || st.RecordedBytes != b.Bytes() {
			t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry / %d recorded bytes", st, b.Bytes())
		}

		// A later position inside b: the covering rule replays b; the
		// exact rule misses and hands the producer b as the nearest entry.
		var near *blob
		var nearPos uint64
		v, owned, err = s.Get(ctx, prog, 120, 30, func(n *blob, p uint64) (*blob, error) {
			near, nearPos = n, p
			return &blob{start: 120, n: 30}, nil
		})
		switch {
		case err != nil:
			t.Fatal(err)
		case r.exact() && (!owned || near != b || nearPos != 100):
			t.Fatalf("exact Get(120): owned=%v near=(%v, %d), want owned with nearest %v at 100", owned, near, nearPos, b)
		case !r.exact() && (owned || v != b):
			t.Fatalf("covering Get(120) = (%v, %v), want a hit on %v", v, owned, b)
		}
		if _, ok := s.Peek(prog, 99, 1); ok {
			t.Fatal("Peek before every resident position hit")
		}
		// A window reaching past b's end never hits it.
		if v, ok := s.Peek(prog, 140, 20); ok && v == b {
			t.Fatalf("Peek(140, 20) hit %v, which ends at 150", b)
		}
	})
}

func TestCrossProgramIsolation(t *testing.T) {
	eachRule(t, 1<<20, func(t *testing.T, r rule, s *Store[*blob]) {
		other := ProgID{Name: prog.Name, FP: prog.FP + 1} // same name, different image
		s.Put(prog, 100, &blob{start: 100, n: 50})
		if _, ok := s.Peek(other, 100, 1); ok {
			t.Fatal("value leaked across program identities")
		}
		_, owned, err := s.Get(context.Background(), other, 120, 1, func(near *blob, _ uint64) (*blob, error) {
			if near != nil {
				t.Errorf("producer offered another program's value %v", near)
			}
			return nil, nil
		})
		if err != nil || !owned {
			t.Fatalf("Get for the other program: owned=%v err=%v, want a miss", owned, err)
		}
		if _, ok := s.Peek(prog, 100, 1); !ok {
			t.Fatal("own program lookup failed")
		}
	})
}

func TestBudgetAndLRUEviction(t *testing.T) {
	const size = 10 // blob{n: 9}.Bytes()
	eachRule(t, 3*size, func(t *testing.T, r rule, s *Store[*blob]) {
		put := func(pos uint64) { s.Put(prog, pos, &blob{start: pos, n: 9}) }
		for i := uint64(0); i < 8; i++ {
			put(i * 100)
			if st := s.Stats(); st.Bytes > st.MaxBytes {
				t.Fatalf("after put %d: resident %d exceeds budget %d", i, st.Bytes, st.MaxBytes)
			}
		}
		st := s.Stats()
		if st.Entries != 3 || st.Evictions != 5 || st.Bytes != 3*size {
			t.Fatalf("stats = %+v, want 3 resident / 5 evicted / %d bytes", st, 3*size)
		}
		if n := s.Obs.Counter("test_evictions_total").Value(); n != 5 {
			t.Fatalf("test_evictions_total = %d, want 5", n)
		}
		// The survivors are the newest, and the position index followed
		// the evictions.
		if _, ok := s.Peek(prog, 400, 1); ok {
			t.Fatal("evicted position still resolvable")
		}
		_, _, _ = s.Get(context.Background(), prog, 450, 1, func(near *blob, nearPos uint64) (*blob, error) {
			if near != nil {
				t.Errorf("producer offered evicted value at %d", nearPos)
			}
			return nil, nil
		})

		// Touching the oldest survivor makes the next-oldest the victim.
		if _, ok := s.Peek(prog, 500, 1); !ok {
			t.Fatal("survivor at 500 missing")
		}
		put(800)
		if _, ok := s.Peek(prog, 600, 1); ok {
			t.Fatal("LRU evicted the recently used entry instead of the stale one")
		}
		for _, pos := range []uint64{500, 700, 800} {
			if _, ok := s.Peek(prog, pos, 1); !ok {
				t.Fatalf("entry at %d evicted out of LRU order", pos)
			}
		}

		// A value larger than the whole budget is not cached at all.
		s.Put(prog, 900, &blob{start: 900, n: 3 * size})
		if _, ok := s.Peek(prog, 900, 1); ok {
			t.Fatal("over-budget value was cached")
		}
	})
}

func TestSingleFlight(t *testing.T) {
	eachRule(t, 1<<20, func(t *testing.T, r rule, s *Store[*blob]) {
		const callers = 16
		b := &blob{start: 0, n: 100}
		var calls atomic.Int64
		release := make(chan struct{})
		var wg sync.WaitGroup
		got := make([]*blob, callers)
		for i := range got {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, _, err := s.Get(context.Background(), prog, 0, 100, func(*blob, uint64) (*blob, error) {
					calls.Add(1)
					<-release
					return b, nil
				})
				if err != nil {
					t.Errorf("caller %d: %v", i, err)
				}
				got[i] = v
			}(i)
		}
		waitFor(t, "callers to join the flight", func() bool { return s.Stats().Waits == callers-1 })
		close(release)
		wg.Wait()

		if n := calls.Load(); n != 1 {
			t.Fatalf("produce ran %d times under %d concurrent callers, want 1", n, callers)
		}
		for i, v := range got {
			if v != b {
				t.Errorf("caller %d got %v, want the produced value", i, v)
			}
		}
		if st := s.Stats(); st.Misses != 1 || st.Hits != callers-1 {
			t.Fatalf("stats = %+v, want 1 miss / %d hits", st, callers-1)
		}
	})
}

func TestOwnerFailureFallsBack(t *testing.T) {
	eachRule(t, 1<<20, func(t *testing.T, r rule, s *Store[*blob]) {
		ctx := context.Background()
		boom := errors.New("boom")
		_, owned, err := s.Get(ctx, prog, 0, 100, func(*blob, uint64) (*blob, error) {
			return &blob{n: 100}, boom
		})
		if !owned || !errors.Is(err, boom) {
			t.Fatalf("owner failure: owned=%v err=%v, want its own error back", owned, err)
		}
		if st := s.Stats(); st.Entries != 0 || st.RecordedBytes != 0 {
			t.Fatalf("failed population was cached: %+v", st)
		}
		// The key is released: the next caller owns a fresh population.
		var calls atomic.Int64
		if v, owned, err := s.Get(ctx, prog, 0, 100, produceBlob(&blob{n: 100}, &calls)); err != nil || !owned || v == nil {
			t.Fatalf("retry after failure = (%v, %v, %v), want fresh ownership", v, owned, err)
		}

		// An owner whose value falls short of a waiter's window: the
		// covering waiter falls back, the exact waiter (same position)
		// takes it.
		release := make(chan struct{})
		ownerDone := make(chan struct{})
		short := &blob{start: 500, n: 10}
		go func() {
			defer close(ownerDone)
			s.Get(ctx, prog, 500, 10, func(*blob, uint64) (*blob, error) {
				<-release
				return short, nil
			})
		}()
		waitFor(t, "the owner's flight", func() bool { return inflight(s) == 1 })
		done := make(chan struct{})
		go func() {
			defer close(done)
			v, owned, err := s.Get(ctx, prog, 500, 100, nil)
			want := short
			if !r.exact() {
				want = nil
			}
			if v != want || owned || err != nil {
				t.Errorf("waiter got (%v, %v, %v), want (%v, false, nil)", v, owned, err, want)
			}
		}()
		waitFor(t, "the waiter", func() bool { return s.Stats().Waits == 1 })
		close(release)
		<-done
		<-ownerDone
	})
}

func TestWaiterCancellation(t *testing.T) {
	eachRule(t, 1<<20, func(t *testing.T, r rule, s *Store[*blob]) {
		release := make(chan struct{})
		ownerDone := make(chan struct{})
		go func() {
			defer close(ownerDone)
			s.Get(context.Background(), prog, 0, 100, func(*blob, uint64) (*blob, error) {
				<-release
				return &blob{n: 100}, nil
			})
		}()
		waitFor(t, "the owner's flight", func() bool { return inflight(s) == 1 })
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, _, err := s.Get(ctx, prog, 0, 100, func(*blob, uint64) (*blob, error) {
			t.Error("cancelled waiter must not own the population")
			return nil, nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled wait returned %v, want context.Canceled", err)
		}
		close(release)
		<-ownerDone
	})
}

// TestWaiterReleasedOnOwnerCancellation: when the populating owner is
// cancelled mid-produce (the hang watchdog's signature move), it must
// still release the flight — waiters unblock promptly with the
// owner-failed fallback (nil, false, nil) instead of waiting forever on a
// population that will never arrive.
func TestWaiterReleasedOnOwnerCancellation(t *testing.T) {
	eachRule(t, 1<<20, func(t *testing.T, r rule, s *Store[*blob]) {
		octx, cancelOwner := context.WithCancel(context.Background())
		ownerDone := make(chan error, 1)
		go func() {
			_, owned, err := s.Get(octx, prog, 1, 1, func(*blob, uint64) (*blob, error) {
				<-octx.Done() // a watchdog-cancelled populate unwinds here
				return nil, octx.Err()
			})
			if !owned {
				t.Error("first caller did not own the population")
			}
			ownerDone <- err
		}()
		waitFor(t, "the owner's flight", func() bool { return inflight(s) == 1 })

		waiterDone := make(chan struct{})
		go func() {
			defer close(waiterDone)
			v, owned, err := s.Get(context.Background(), prog, 1, 1, func(*blob, uint64) (*blob, error) {
				t.Error("waiter must not own the population while the flight is live")
				return nil, nil
			})
			if v != nil || owned || err != nil {
				t.Errorf("waiter got (%v, %v, %v), want the owner-failed fallback (nil, false, nil)", v, owned, err)
			}
		}()
		// Only cancel once the waiter is provably parked on the flight,
		// so the test never degenerates into two sequential owners.
		waitFor(t, "the waiter", func() bool { return s.Stats().Waits == 1 })
		cancelOwner()
		select {
		case err := <-ownerDone:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("owner returned %v, want context.Canceled", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("cancelled owner never returned")
		}
		select {
		case <-waiterDone:
		case <-time.After(10 * time.Second):
			t.Fatal("waiter still blocked after the owner was cancelled: flight never released")
		}

		// The key is free again: a fresh caller owns a successful population.
		var calls atomic.Int64
		if v, owned, err := s.Get(context.Background(), prog, 1, 1, produceBlob(&blob{start: 1, n: 1}, &calls)); err != nil || !owned || v == nil {
			t.Fatalf("retry after cancelled owner = (%v, %v, %v), want fresh ownership", v, owned, err)
		}
	})
}

// TestProducePanicReleasesWaiters: a panicking producer propagates its
// panic to the owner, but the deferred guard still releases the flight:
// waiters fall back empty-handed, the key leaves inflight, and the next
// caller owns a fresh population.
func TestProducePanicReleasesWaiters(t *testing.T) {
	eachRule(t, 1<<20, func(t *testing.T, r rule, s *Store[*blob]) {
		ctx := context.Background()
		release := make(chan struct{})
		recovered := make(chan any, 1)
		go func() {
			defer func() { recovered <- recover() }()
			s.Get(ctx, prog, 0, 100, func(*blob, uint64) (*blob, error) {
				<-release
				panic("produce blew up")
			})
		}()
		waitFor(t, "the owner's flight", func() bool { return inflight(s) == 1 })

		const waiters = 4
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				v, owned, err := s.Get(ctx, prog, 0, 100, func(*blob, uint64) (*blob, error) {
					t.Errorf("waiter %d became an owner while the flight was live", i)
					return nil, nil
				})
				if v != nil || owned || err != nil {
					t.Errorf("waiter %d got (%v, %v, %v), want the owner-failed fallback (nil, false, nil)", i, v, owned, err)
				}
			}(i)
		}
		waitFor(t, "the waiters", func() bool { return s.Stats().Waits == waiters })
		close(release)
		if p := <-recovered; p == nil {
			t.Fatal("the producer's panic did not reach the owner")
		}
		waitersDone := make(chan struct{})
		go func() { wg.Wait(); close(waitersDone) }()
		select {
		case <-waitersDone:
		case <-time.After(10 * time.Second):
			t.Fatal("waiters still blocked after the producer panicked: flight never released")
		}

		if n := inflight(s); n != 0 {
			t.Fatalf("%d keys left in flight after the panic", n)
		}
		if st := s.Stats(); st.Entries != 0 {
			t.Fatalf("panicked population was cached: %+v", st)
		}
		var calls atomic.Int64
		if v, owned, err := s.Get(ctx, prog, 0, 100, produceBlob(&blob{n: 100}, &calls)); err != nil || !owned || v == nil || calls.Load() != 1 {
			t.Fatalf("caller after the panic = (%v, %v, %v), want fresh ownership", v, owned, err)
		}
	})
}

func TestReset(t *testing.T) {
	eachRule(t, 1<<20, func(t *testing.T, r rule, s *Store[*blob]) {
		var calls atomic.Int64
		if _, _, err := s.Get(context.Background(), prog, 0, 100, produceBlob(&blob{n: 100}, &calls)); err != nil {
			t.Fatal(err)
		}
		s.Put(prog, 500, &blob{start: 500, n: 10})
		s.Reset()
		if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Hits != 0 || st.Misses != 0 || st.RecordedBytes != 0 {
			t.Fatalf("Reset left state behind: %+v", st)
		}
		for _, pos := range []uint64{0, 500} {
			if _, ok := s.Peek(prog, pos, 1); ok {
				t.Fatalf("Reset left a resident value at %d", pos)
			}
		}
	})
}

// TestPutKeepsLarger: when two values land on one key the larger stays
// (racing recordings at one start keep the longer region), and a
// replacement is not an eviction in the stats, the metric series, or the
// journal.
func TestPutKeepsLarger(t *testing.T) {
	eachRule(t, 1<<20, func(t *testing.T, r rule, s *Store[*blob]) {
		long, short, longer := &blob{n: 500}, &blob{n: 100}, &blob{n: 800}
		s.Put(prog, 0, long)
		s.Put(prog, 0, short)
		if v, _ := s.Peek(prog, 0, 1); v != long {
			t.Fatalf("smaller value displaced the larger one: %v", v)
		}
		s.Put(prog, 0, &blob{n: 500}) // an equal one leaves the entry in place
		if v, _ := s.Peek(prog, 0, 1); v != long {
			t.Fatalf("equal-size value displaced the resident one: %v", v)
		}
		s.Put(prog, 0, longer)
		if v, _ := s.Peek(prog, 0, 1); v != longer {
			t.Fatalf("larger value did not replace: %v", v)
		}
		if st := s.Stats(); st.Entries != 1 || st.Bytes != longer.Bytes() || st.Evictions != 0 {
			t.Fatalf("stats = %+v, want one entry of %d bytes and no evictions", st, longer.Bytes())
		}
		if n := s.Obs.Counter("test_evictions_total").Value(); n != 0 {
			t.Fatalf("test_evictions_total = %d after a replacement, want 0", n)
		}
		for _, ev := range s.Journal.Tail(64) {
			if ev.Kind == obs.EvCkptEvict {
				t.Fatalf("replacement journaled an eviction: %+v", ev)
			}
		}
	})
}
