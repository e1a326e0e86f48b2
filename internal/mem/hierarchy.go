package mem

import "fmt"

// PrefetchPolicy selects the hardware prefetcher modelled by the hierarchy.
type PrefetchPolicy uint8

// Prefetch policies. NextLine implements Jouppi-style next-line prefetching
// [Jouppi90]: on a demand miss in a cache, the sequentially next block is
// fetched into that cache as well.
const (
	PrefetchNone PrefetchPolicy = iota
	PrefetchNextLine
)

// String names the policy.
func (p PrefetchPolicy) String() string {
	switch p {
	case PrefetchNone:
		return "none"
	case PrefetchNextLine:
		return "next-line"
	default:
		return fmt.Sprintf("prefetch(%d)", uint8(p))
	}
}

// HierarchyConfig configures the full memory system.
type HierarchyConfig struct {
	L1I CacheConfig
	L1D CacheConfig
	L2  CacheConfig

	// Main memory latency: the first word of a block costs MemFirst cycles
	// and each following word MemFollow cycles, as in Table 3.
	MemFirst  int
	MemFollow int

	// TLBs: entry counts and the shared miss penalty.
	ITLBEntries   int
	DTLBEntries   int
	TLBMissCycles int

	Prefetch PrefetchPolicy
}

// Hierarchy wires the two L1 caches, the unified L2, the TLBs, and main
// memory together and computes access latencies.
type Hierarchy struct {
	L1I, L1D, L2 *Cache
	ITLB, DTLB   *TLB
	cfg          HierarchyConfig
	memFillLat   int // first + (words-1)*follow for an L2 block
}

// NewHierarchy constructs and validates the memory system.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) {
	if cfg.MemFirst <= 0 || cfg.MemFollow < 0 {
		return nil, fmt.Errorf("mem: memory latencies must be positive: first=%d follow=%d", cfg.MemFirst, cfg.MemFollow)
	}
	l1i, err := NewCache(cfg.L1I, "L1I")
	if err != nil {
		return nil, err
	}
	l1d, err := NewCache(cfg.L1D, "L1D")
	if err != nil {
		return nil, err
	}
	l2, err := NewCache(cfg.L2, "L2")
	if err != nil {
		return nil, err
	}
	itlb, err := NewTLB(cfg.ITLBEntries)
	if err != nil {
		return nil, fmt.Errorf("mem: ITLB: %w", err)
	}
	dtlb, err := NewTLB(cfg.DTLBEntries)
	if err != nil {
		return nil, fmt.Errorf("mem: DTLB: %w", err)
	}
	words := cfg.L2.BlockBytes / 8
	if words < 1 {
		words = 1
	}
	return &Hierarchy{
		L1I: l1i, L1D: l1d, L2: l2,
		ITLB: itlb, DTLB: dtlb,
		cfg:        cfg,
		memFillLat: cfg.MemFirst + (words-1)*cfg.MemFollow,
	}, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierarchyConfig { return h.cfg }

// SetAssumeHit toggles the assume-hit cold-start policy on every level.
func (h *Hierarchy) SetAssumeHit(on bool) {
	h.L1I.AssumeHit = on
	h.L1D.AssumeHit = on
	h.L2.AssumeHit = on
}

// Level identifies the hierarchy level that served a data access, for
// per-component cycle attribution (the CPI stack): an L1 hit, an L2 hit,
// or a fill from main memory.
type Level uint8

// The serving levels.
const (
	LevelL1 Level = iota
	LevelL2
	LevelMem
)

// String names the level.
func (l Level) String() string {
	switch l {
	case LevelL1:
		return "L1"
	case LevelL2:
		return "L2"
	case LevelMem:
		return "mem"
	default:
		return fmt.Sprintf("level(%d)", uint8(l))
	}
}

// accessL2Level handles an L1 miss: it looks up L2, fills from memory if
// needed, and returns the additional latency beyond the L1 hit cost and
// whether the block came from L2 or from main memory.
func (h *Hierarchy) accessL2Level(addr uint64, write bool) (int, Level) {
	hit, _, _ := h.L2.Access(addr, write)
	if hit {
		return h.L2.Latency(), LevelL2
	}
	lat := h.L2.Latency() + h.memFillLat
	if h.cfg.Prefetch == PrefetchNextLine {
		h.L2.Prefetch(addr + uint64(h.L2.BlockBytes()))
	}
	return lat, LevelMem
}

// AccessI performs an instruction fetch of the block containing addr and
// returns its latency in cycles.
func (h *Hierarchy) AccessI(addr uint64) int {
	lat := h.L1I.Latency()
	if !h.ITLB.Access(addr) {
		lat += h.cfg.TLBMissCycles
	}
	hit, _, _ := h.L1I.Access(addr, false)
	if hit {
		return lat
	}
	l2lat, _ := h.accessL2Level(addr, false)
	lat += l2lat
	if h.cfg.Prefetch == PrefetchNextLine {
		h.L1I.Prefetch(addr + uint64(h.L1I.BlockBytes()))
	}
	return lat
}

// AccessD performs a data access and returns its latency in cycles. Dirty
// evictions from L1D are written through to L2 (counted, not timed: write
// buffers hide their latency).
func (h *Hierarchy) AccessD(addr uint64, write bool) int {
	lat, _ := h.AccessDLevel(addr, write)
	return lat
}

// AccessDLevel is AccessD additionally reporting which level served the
// access (L1 hit, L2 hit, or memory fill) so the core can attribute the
// stall cycles of a long-latency load to the right CPI-stack component.
// State changes and the returned latency are identical to AccessD.
func (h *Hierarchy) AccessDLevel(addr uint64, write bool) (int, Level) {
	lat := h.L1D.Latency()
	if !h.DTLB.Access(addr) {
		lat += h.cfg.TLBMissCycles
	}
	hit, wb, evicted := h.L1D.Access(addr, write)
	if wb {
		h.L2.Access(evicted, true)
	}
	if hit {
		return lat, LevelL1
	}
	l2lat, level := h.accessL2Level(addr, false)
	lat += l2lat
	if h.cfg.Prefetch == PrefetchNextLine {
		h.L1D.Prefetch(addr + uint64(h.L1D.BlockBytes()))
	}
	return lat, level
}

// WarmI updates instruction-side state without computing latency, for
// functional warming.
func (h *Hierarchy) WarmI(addr uint64) {
	h.ITLB.Access(addr)
	hit, _, _ := h.L1I.Access(addr, false)
	if !hit {
		h.accessL2Level(addr, false)
		if h.cfg.Prefetch == PrefetchNextLine {
			h.L1I.Prefetch(addr + uint64(h.L1I.BlockBytes()))
		}
	}
}

// WarmD updates data-side state without computing latency, for functional
// warming (the SMARTS warming path).
func (h *Hierarchy) WarmD(addr uint64, write bool) {
	h.DTLB.Access(addr)
	hit, wb, evicted := h.L1D.Access(addr, write)
	if wb {
		h.L2.Access(evicted, true)
	}
	if !hit {
		h.accessL2Level(addr, false)
		if h.cfg.Prefetch == PrefetchNextLine {
			h.L1D.Prefetch(addr + uint64(h.L1D.BlockBytes()))
		}
	}
}

// ReqKind classifies one batched memory request.
type ReqKind uint8

// Request kinds: an instruction fetch, a data load, or a data store.
const (
	ReqIFetch ReqKind = iota
	ReqLoad
	ReqStore
)

// MemReq is one element of a batched request stream: an address plus the
// access kind. The simulator's warm loops call WarmI/WarmD per retired
// instruction; request slabs exist for harnesses that replay a recorded
// stream straight into the hierarchy (the study benchmark's per-layer
// probes and the mem tests).
type MemReq struct {
	Addr uint64
	Kind ReqKind
}

// WarmBatch applies a request slab to the hierarchy in order, updating
// cache and TLB state without computing latencies (the functional-warming
// contract of WarmI/WarmD). State and statistics after WarmBatch are
// identical to issuing the same requests through WarmI/WarmD one at a
// time, because the per-request work is exactly the same.
func (h *Hierarchy) WarmBatch(reqs []MemReq) {
	for i := range reqs {
		r := &reqs[i]
		switch r.Kind {
		case ReqIFetch:
			h.WarmI(r.Addr)
		case ReqLoad:
			h.WarmD(r.Addr, false)
		case ReqStore:
			h.WarmD(r.Addr, true)
		}
	}
}

// AccessBatch applies a request slab in order, computing latencies. When
// lats is non-nil it must have len(reqs) and receives the per-request
// latency; the return value is the total. State changes are identical to
// issuing the same requests through AccessI/AccessD individually.
func (h *Hierarchy) AccessBatch(reqs []MemReq, lats []int) int {
	total := 0
	for i := range reqs {
		r := &reqs[i]
		var lat int
		switch r.Kind {
		case ReqIFetch:
			lat = h.AccessI(r.Addr)
		case ReqLoad:
			lat = h.AccessD(r.Addr, false)
		case ReqStore:
			lat = h.AccessD(r.Addr, true)
		}
		if lats != nil {
			lats[i] = lat
		}
		total += lat
	}
	return total
}

// Snapshot captures the statistics of every level for delta accounting.
type Snapshot struct {
	L1I, L1D, L2 CacheStats
	ITLBMisses   uint64
	DTLBMisses   uint64
}

// Snap returns the current statistics.
func (h *Hierarchy) Snap() Snapshot {
	return Snapshot{
		L1I: h.L1I.Stats, L1D: h.L1D.Stats, L2: h.L2.Stats,
		ITLBMisses: h.ITLB.Misses, DTLBMisses: h.DTLB.Misses,
	}
}

// Delta returns the statistics accumulated since the snapshot.
func (h *Hierarchy) Delta(s Snapshot) Snapshot {
	return Snapshot{
		L1I:        h.L1I.Stats.Sub(s.L1I),
		L1D:        h.L1D.Stats.Sub(s.L1D),
		L2:         h.L2.Stats.Sub(s.L2),
		ITLBMisses: h.ITLB.Misses - s.ITLBMisses,
		DTLBMisses: h.DTLB.Misses - s.DTLBMisses,
	}
}
