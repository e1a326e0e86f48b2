package sched

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/store"
)

// planOf builds n distinct dummy cells (the pool never interprets the
// fields beyond passing them through).
func planOf(n int) []Cell {
	cells := make([]Cell, n)
	for i := range cells {
		cells[i] = Cell{Artifact: "T", Phase: "technique", Bench: bench.Mcf,
			Config: sim.Config{Name: "cfg-" + strconv.Itoa(i)}}
	}
	return cells
}

// TestPoolRunsEveryCellExactlyOnce: every cell appears in the outcomes at
// its own plan index, exactly once, regardless of worker count.
func TestPoolRunsEveryCellExactlyOnce(t *testing.T) {
	const n = 200
	ran := make([]atomic.Int64, n)
	p := &Pool{Workers: 8, Obs: obs.NewRegistry()}
	outs, tel := p.Run(context.Background(), planOf(n),
		func(ctx context.Context, w *Worker, c Cell) (core.Result, error) {
			idx, _ := strconv.Atoi(c.Config.Name[len("cfg-"):])
			ran[idx].Add(1)
			return core.Result{Stats: sim.Stats{Cycles: uint64(idx) + 1, Instructions: 1}}, nil
		})
	if len(outs) != n {
		t.Fatalf("got %d outcomes, want %d", len(outs), n)
	}
	for i, o := range outs {
		if o.Index != i {
			t.Fatalf("outcome %d has index %d", i, o.Index)
		}
		if o.Err != nil {
			t.Fatalf("cell %d failed: %v", i, o.Err)
		}
		if got := o.Res.Stats.Cycles; got != uint64(i)+1 {
			t.Errorf("cell %d result %d, want %d (results must land at their own index)", i, got, i+1)
		}
		if o.Worker < 0 || o.Worker >= 8 {
			t.Errorf("cell %d ran on worker %d", i, o.Worker)
		}
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Errorf("cell %d ran %d times, want exactly 1", i, got)
		}
	}
	if tel.Cells != n || tel.Failed != 0 || tel.Cancelled != 0 {
		t.Errorf("telemetry = %+v, want %d cells, clean", tel, n)
	}
	if tel.Workers != 8 {
		t.Errorf("telemetry workers = %d, want 8", tel.Workers)
	}
	if got := p.Obs.Counter("sched_cells_total").Value(); got != n {
		t.Errorf("sched_cells_total = %d, want %d", got, n)
	}
	if got := p.Obs.Histogram("sched_cell_seconds", obs.LatencyBuckets).Count(); got != n {
		t.Errorf("sched_cell_seconds count = %d, want %d", got, n)
	}
}

// TestPoolWorkerStreamsDisjointAndStable: worker RNG streams are (a) the
// same across two pools with the same seed and (b) different across
// workers, so no xrand state is ever shared.
func TestPoolWorkerStreamsDisjointAndStable(t *testing.T) {
	p1 := &Pool{Workers: 4, Seed: 42}
	p2 := &Pool{Workers: 4, Seed: 42}
	seen := map[uint64]int{}
	for i := 0; i < 4; i++ {
		a, b := p1.NewWorker(i).RNG.Uint64(), p2.NewWorker(i).RNG.Uint64()
		if a != b {
			t.Errorf("worker %d stream differs across identically-seeded pools: %d vs %d", i, a, b)
		}
		if prev, dup := seen[a]; dup {
			t.Errorf("workers %d and %d share a stream", prev, i)
		}
		seen[a] = i
	}
	if v := (&Pool{Workers: 4, Seed: 7}).NewWorker(0).RNG.Uint64(); v == (&Pool{Workers: 4, Seed: 42}).NewWorker(0).RNG.Uint64() {
		t.Error("different pool seeds produced the same worker stream")
	}
}

// TestPoolPanicIsolated: a panicking cell fails alone; its neighbours
// complete and the pool keeps its outcome-count invariant.
func TestPoolPanicIsolated(t *testing.T) {
	const n = 20
	p := &Pool{Workers: 4, Obs: obs.NewRegistry()}
	outs, tel := p.Run(context.Background(), planOf(n),
		func(ctx context.Context, w *Worker, c Cell) (core.Result, error) {
			if c.Config.Name == "cfg-7" {
				panic("cell bomb")
			}
			return core.Result{Stats: sim.Stats{Cycles: 1, Instructions: 1}}, nil
		})
	var pe *CellPanicError
	if outs[7].Err == nil || !errors.As(outs[7].Err, &pe) {
		t.Fatalf("panicking cell outcome = %+v, want *CellPanicError", outs[7].Err)
	}
	if len(pe.Stack) == 0 {
		t.Error("panic stack not captured")
	}
	for i, o := range outs {
		if i == 7 {
			continue
		}
		if o.Err != nil {
			t.Errorf("healthy cell %d failed: %v", i, o.Err)
		}
	}
	if tel.Failed != 1 {
		t.Errorf("telemetry failed = %d, want 1", tel.Failed)
	}
	if got := p.Obs.Counter("sched_cell_failures_total").Value(); got != 1 {
		t.Errorf("sched_cell_failures_total = %d, want 1", got)
	}
}

// TestPoolCancelDrainsQueue: once the context is cancelled, in-flight
// cells finish (or abort) and every queued cell is marked with the
// context error quickly — the pool must not run the tail of a dead
// campaign.
func TestPoolCancelDrainsQueue(t *testing.T) {
	const n = 64
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{}, n)
	var ran atomic.Int64
	p := &Pool{Workers: 2, Obs: obs.NewRegistry()}

	go func() {
		<-started // at least one cell is running
		cancel()
	}()
	start := time.Now()
	outs, tel := p.Run(ctx, planOf(n),
		func(ctx context.Context, w *Worker, c Cell) (core.Result, error) {
			ran.Add(1)
			started <- struct{}{}
			select {
			case <-ctx.Done():
				return core.Result{}, ctx.Err()
			case <-time.After(20 * time.Millisecond):
				return core.Result{Stats: sim.Stats{Cycles: 1, Instructions: 1}}, nil
			}
		})
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Fatalf("cancelled pool took %v to drain", elapsed)
	}
	if len(outs) != n {
		t.Fatalf("got %d outcomes, want %d (drain must not lose cells)", len(outs), n)
	}
	cancelled := 0
	for _, o := range outs {
		if o.Worker == -1 {
			if !errors.Is(o.Err, context.Canceled) {
				t.Fatalf("drained cell %d err = %v, want context.Canceled", o.Index, o.Err)
			}
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Error("no cells were drained; cancellation arrived too late to test")
	}
	if tel.Cancelled != cancelled {
		t.Errorf("telemetry cancelled = %d, want %d", tel.Cancelled, cancelled)
	}
	if int(ran.Load())+cancelled != n {
		t.Errorf("ran %d + drained %d != %d cells", ran.Load(), cancelled, n)
	}
}

// TestPoolZeroValueAndEmptyPlan: the zero pool sizes itself and an empty
// plan completes immediately.
func TestPoolZeroValueAndEmptyPlan(t *testing.T) {
	var p Pool
	outs, tel := p.Run(context.Background(), nil,
		func(ctx context.Context, w *Worker, c Cell) (core.Result, error) {
			return core.Result{}, nil
		})
	if len(outs) != 0 || tel.Cells != 0 {
		t.Errorf("empty plan produced %d outcomes, telemetry %+v", len(outs), tel)
	}
	if p.workers() < 1 {
		t.Errorf("zero pool workers = %d, want >= 1", p.workers())
	}
}

// TestTelemetryMath checks the derived speedup/utilization figures and
// the merge used by multi-plan CLIs.
func TestTelemetryMath(t *testing.T) {
	tel := Telemetry{Workers: 4, Cells: 8, Wall: time.Second, CellWall: 3 * time.Second}
	if got := tel.Concurrency(); got < 2.99 || got > 3.01 {
		t.Errorf("speedup = %.2f, want 3.0", got)
	}
	if got := tel.Utilization(); got < 0.74 || got > 0.76 {
		t.Errorf("utilization = %.2f, want 0.75", got)
	}
	var zero Telemetry
	if zero.Concurrency() != 0 || zero.Utilization() != 0 {
		t.Error("zero telemetry must not divide by zero")
	}
	agg := Telemetry{}
	agg.Merge(tel)
	agg.Merge(Telemetry{Workers: 2, Cells: 2, Failed: 1, Wall: time.Second, CellWall: time.Second})
	if agg.Cells != 10 || agg.Failed != 1 || agg.Workers != 4 || agg.Wall != 2*time.Second {
		t.Errorf("merged telemetry = %+v", agg)
	}
	if agg.String() == "" {
		t.Error("empty telemetry string")
	}
}

// TestMapOrderAndErrors: Map returns results in item order with per-item
// errors, and recovers per-item panics.
func TestMapOrderAndErrors(t *testing.T) {
	items := []int{0, 1, 2, 3, 4, 5, 6, 7}
	p := &Pool{Workers: 3}
	res, errs := Map(context.Background(), p, items,
		func(ctx context.Context, w *Worker, it int) (string, error) {
			switch it {
			case 3:
				return "", fmt.Errorf("item %d failed", it)
			case 5:
				panic("item bomb")
			}
			return fmt.Sprintf("row-%d", it), nil
		})
	for i, r := range res {
		switch i {
		case 3:
			if errs[i] == nil {
				t.Error("item 3 error lost")
			}
		case 5:
			if errs[i] == nil {
				t.Error("item 5 panic not converted to error")
			}
		default:
			if errs[i] != nil || r != fmt.Sprintf("row-%d", i) {
				t.Errorf("item %d = %q (%v), want row-%d", i, r, errs[i], i)
			}
		}
	}
}

// TestMapCancelDrains: cancelled Map marks remaining items with ctx.Err.
func TestMapCancelDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, errs := Map(ctx, &Pool{Workers: 2}, []int{1, 2, 3},
		func(ctx context.Context, w *Worker, it int) (int, error) { return it, nil })
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Errorf("item %d err = %v, want context.Canceled", i, err)
		}
	}
}

// TestPoolCostAttribution: every completed cell carries a CostReport with
// its wall time, its instruction counts, the ns/instr quotient, and the
// RunFunc's Notes (retries, dedup) — and Notes are reset between cells,
// so one cell's annotations never leak into the next.
func TestPoolCostAttribution(t *testing.T) {
	p := &Pool{Workers: 1, Obs: obs.NewRegistry()}
	outs, _ := p.Run(context.Background(), planOf(3),
		func(ctx context.Context, w *Worker, c Cell) (core.Result, error) {
			if w.Notes != (CellNotes{}) {
				t.Errorf("Notes not reset before cell %s: %+v", c.Config.Name, w.Notes)
			}
			if c.Config.Name == "cfg-1" {
				w.Notes.Retries = 2
				w.Notes.Dedup = true
			}
			time.Sleep(time.Millisecond)
			return core.Result{DetailedInstr: 1000, FunctionalInstr: 3000}, nil
		})
	for i, o := range outs {
		cost := o.Cost
		if cost.WallNS <= 0 || cost.WallNS != int64(o.Wall) {
			t.Errorf("cell %d wall_ns = %d (Wall %v)", i, cost.WallNS, o.Wall)
		}
		if cost.DetailedInstr != 1000 || cost.FunctionalInstr != 3000 || cost.SimulatedInstr != 4000 {
			t.Errorf("cell %d instr = %+v", i, cost)
		}
		if want := float64(cost.WallNS) / 4000; cost.NSPerInstr != want {
			t.Errorf("cell %d ns/instr = %v, want %v", i, cost.NSPerInstr, want)
		}
		if cost.AllocBytes < 0 {
			t.Errorf("cell %d alloc delta %d < 0", i, cost.AllocBytes)
		}
		wantRetries, wantDedup := int64(0), false
		if i == 1 {
			wantRetries, wantDedup = 2, true
		}
		if cost.Retries != wantRetries || cost.Dedup != wantDedup {
			t.Errorf("cell %d notes = retries %d dedup %v, want %d %v",
				i, cost.Retries, cost.Dedup, wantRetries, wantDedup)
		}
	}
}

// TestPoolCostCkptDeltas: cells that hit or miss the shared checkpoint
// store see those events in their own cost bracket.
func TestPoolCostCkptDeltas(t *testing.T) {
	old := core.CheckpointStore()
	defer core.SetCheckpointStore(old)
	st := core.NewCheckpointStore(1 << 20)
	core.SetCheckpointStore(st)

	p := &Pool{Workers: 1}
	outs, _ := p.Run(context.Background(), planOf(2),
		func(ctx context.Context, w *Worker, c Cell) (core.Result, error) {
			// First cell misses (and populates), second hits.
			_, _, err := st.Get(ctx, store.ProgID{Name: "t"}, 100, 0,
				func(near *cpu.Checkpoint, nearPos uint64) (*cpu.Checkpoint, error) {
					return &cpu.Checkpoint{Count: 100}, nil
				})
			return core.Result{}, err
		})
	if h, m := outs[0].Cost.CkptHits, outs[0].Cost.CkptMisses; h != 0 || m != 1 {
		t.Errorf("cell 0 ckpt deltas = %d hits %d misses, want 0/1", h, m)
	}
	if h, m := outs[1].Cost.CkptHits, outs[1].Cost.CkptMisses; h != 1 || m != 0 {
		t.Errorf("cell 1 ckpt deltas = %d hits %d misses, want 1/0", h, m)
	}
}
