// Package mem models the memory hierarchy: set-associative write-back
// caches with LRU replacement, translation lookaside buffers, and a main
// memory with distinct first/following-word latencies, matching the memory
// system parameters characterized by the paper's Plackett-Burman design.
//
// The structures are laid out for the host, not the guest: caches keep
// their tags and LRU stamps in dense struct-of-arrays slices (a way scan is
// a short linear read, not a pointer hop per line struct), dirty bits live
// in a bitset, and the hot paths carry semantics-preserving memos (a
// last-block way memo per cache, a last-page deferred-stamp memo in the
// TLB). Every memo is stat-identical to the plain scan it skips: the mem
// tests check each against a memo-less reference, and the core golden
// digests pin the end-to-end statistics.
package mem

import "fmt"

// Replacement selects a cache replacement policy.
type Replacement uint8

// Replacement policies. LRU is the default (and what the paper's
// configurations use); FIFO and Random exist for the replacement ablation.
const (
	ReplaceLRU Replacement = iota
	ReplaceFIFO
	ReplaceRandom
)

// String names the policy.
func (r Replacement) String() string {
	switch r {
	case ReplaceLRU:
		return "lru"
	case ReplaceFIFO:
		return "fifo"
	case ReplaceRandom:
		return "random"
	default:
		return fmt.Sprintf("replace(%d)", uint8(r))
	}
}

// CacheConfig describes one cache level.
type CacheConfig struct {
	SizeKB     int // total capacity in kilobytes
	Assoc      int // ways per set
	BlockBytes int // line size in bytes (power of two)
	Latency    int // access (hit) latency in cycles

	// Replace selects the replacement policy; the zero value is LRU.
	Replace Replacement
}

// Validate reports configuration errors.
func (c CacheConfig) Validate(name string) error {
	if c.SizeKB <= 0 || c.Assoc <= 0 || c.BlockBytes <= 0 || c.Latency <= 0 {
		return fmt.Errorf("mem: %s: all of size/assoc/block/latency must be positive: %+v", name, c)
	}
	if c.BlockBytes&(c.BlockBytes-1) != 0 {
		return fmt.Errorf("mem: %s: block size %d not a power of two", name, c.BlockBytes)
	}
	bytes := c.SizeKB * 1024
	if bytes%(c.BlockBytes*c.Assoc) != 0 {
		return fmt.Errorf("mem: %s: size %dKB not divisible into %d-way sets of %dB blocks",
			name, c.SizeKB, c.Assoc, c.BlockBytes)
	}
	sets := bytes / (c.BlockBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("mem: %s: set count %d not a power of two", name, sets)
	}
	return nil
}

// CacheStats counts cache events. Reads of these fields are cheap, so the
// measurement windows snapshot and subtract them.
type CacheStats struct {
	Accesses    uint64
	Misses      uint64
	Writebacks  uint64
	Prefetches  uint64
	AssumedHits uint64 // cold-start misses converted to hits by the assume-hit policy
}

// HitRate returns the fraction of accesses that hit, or 1 when idle.
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 1
	}
	return 1 - float64(s.Misses)/float64(s.Accesses)
}

// Sub returns s - t, used to extract the deltas of a measurement window.
func (s CacheStats) Sub(t CacheStats) CacheStats {
	return CacheStats{
		Accesses:    s.Accesses - t.Accesses,
		Misses:      s.Misses - t.Misses,
		Writebacks:  s.Writebacks - t.Writebacks,
		Prefetches:  s.Prefetches - t.Prefetches,
		AssumedHits: s.AssumedHits - t.AssumedHits,
	}
}

// Cache is a set-associative, write-back, write-allocate cache with true LRU
// replacement.
//
// Lines live in struct-of-arrays form: tags and LRU stamps are dense
// uint64 slices (sets*assoc entries, flattened) and dirty bits a bitset,
// so the way scan that dominates every access is a short branch-predictable
// linear read over one or two cache lines of host memory instead of a hop
// per 17-byte line struct.
type Cache struct {
	cfg        CacheConfig
	tags       []uint64 // block address per line; valid iff stamp != 0
	stamps     []uint64 // LRU timestamp; 0 means invalid
	dirty      []uint64 // bitset, one bit per line
	sets       int
	assoc      int
	blockShift uint
	setMask    uint64
	clock      uint64
	rngState   uint64 // deterministic stream for random replacement

	// Last-block way memo: most access streams hit the same block
	// repeatedly (stack frames, streaming reads, I-fetch fall-through).
	// memoBlk holds that block address +1 (0 = none) and memoIdx its line
	// index; a memo hit still verifies tag+valid, still bumps the LRU
	// stamp and the Accesses counter, and still sets the dirty bit, so it
	// is stat-identical to the full scan — it only skips the scan itself.
	// The memo is a hint: installs may steal the line, and the
	// verification catches that, so no invalidation bookkeeping exists.
	memoBlk uint64
	memoIdx int32

	// AssumeHit implements the paper's SimPoint cold-start policy
	// ("Warm-Up: assume cache hit"): while enabled, a miss whose victim
	// way is still invalid (i.e. the access is to genuinely unknown cold
	// state rather than a capacity/conflict miss) is installed but reported
	// as a hit, modelling an optimistically warm cache after fast-forwarding.
	AssumeHit bool

	Stats CacheStats
}

// NewCache builds a cache; the configuration must be valid.
func NewCache(cfg CacheConfig, name string) (*Cache, error) {
	if err := cfg.Validate(name); err != nil {
		return nil, err
	}
	sets := cfg.SizeKB * 1024 / (cfg.BlockBytes * cfg.Assoc)
	shift := uint(0)
	for 1<<shift < cfg.BlockBytes {
		shift++
	}
	lines := sets * cfg.Assoc
	return &Cache{
		cfg:        cfg,
		tags:       make([]uint64, lines),
		stamps:     make([]uint64, lines),
		dirty:      make([]uint64, (lines+63)/64),
		sets:       sets,
		assoc:      cfg.Assoc,
		blockShift: shift,
		setMask:    uint64(sets - 1),
		rngState:   0x9e3779b97f4a7c15,
	}, nil
}

func (c *Cache) isDirty(i int) bool { return c.dirty[i>>6]&(1<<(uint(i)&63)) != 0 }
func (c *Cache) setDirty(i int)     { c.dirty[i>>6] |= 1 << (uint(i) & 63) }
func (c *Cache) clearDirty(i int)   { c.dirty[i>>6] &^= 1 << (uint(i) & 63) }

// victimIdx selects the way to replace in the set starting at base,
// honouring the replacement policy. Invalid ways are always used first.
func (c *Cache) victimIdx(base int) int {
	idx := base
	oldest := ^uint64(0)
	for i := base; i < base+c.assoc; i++ {
		s := c.stamps[i]
		if s == 0 {
			return i // invalid way: free slot
		}
		if s < oldest {
			oldest = s
			idx = i
		}
	}
	if c.cfg.Replace == ReplaceRandom {
		// xorshift64 step; deterministic per cache instance.
		c.rngState ^= c.rngState << 13
		c.rngState ^= c.rngState >> 7
		c.rngState ^= c.rngState << 17
		return base + int(c.rngState%uint64(c.assoc))
	}
	return idx // LRU and FIFO both evict the smallest stamp
}

// Config returns the cache's configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// Latency returns the hit latency.
func (c *Cache) Latency() int { return c.cfg.Latency }

// BlockBytes returns the line size.
func (c *Cache) BlockBytes() int { return c.cfg.BlockBytes }

// Access looks up the block containing addr, installing it on a miss.
// It returns hit=false when the block had to be fetched from below and
// writeback=true when the installation evicted a dirty line (whose block
// address is then evicted). The write flag sets the dirty bit.
func (c *Cache) Access(addr uint64, write bool) (hit bool, writeback bool, evicted uint64) {
	c.Stats.Accesses++
	c.clock++
	blk := addr >> c.blockShift
	if blk+1 == c.memoBlk {
		// Way memo: verified same-block hit without the set scan. The
		// bookkeeping below is exactly the scan's hit path.
		i := int(c.memoIdx)
		if c.stamps[i] != 0 && c.tags[i] == blk {
			if c.cfg.Replace == ReplaceLRU {
				c.stamps[i] = c.clock
			}
			if write {
				c.setDirty(i)
			}
			return true, false, 0
		}
		c.memoBlk = 0 // line was stolen by an install; fall through
	}
	set := blk & c.setMask
	base := int(set) * c.assoc

	for i := base; i < base+c.assoc; i++ {
		if c.stamps[i] != 0 && c.tags[i] == blk {
			if c.cfg.Replace == ReplaceLRU {
				c.stamps[i] = c.clock // FIFO/random keep the insertion stamp
			}
			if write {
				c.setDirty(i)
			}
			c.memoBlk, c.memoIdx = blk+1, int32(i)
			return true, false, 0
		}
	}
	// Miss: install in the policy-selected victim way.
	c.Stats.Misses++
	v := c.victimIdx(base)
	coldVictim := c.stamps[v] == 0
	if !coldVictim && c.isDirty(v) {
		writeback = true
		evicted = c.tags[v] << c.blockShift
		c.Stats.Writebacks++
	}
	c.tags[v] = blk
	c.stamps[v] = c.clock
	if write {
		c.setDirty(v)
	} else {
		c.clearDirty(v)
	}
	c.memoBlk, c.memoIdx = blk+1, int32(v)
	if c.AssumeHit && coldVictim {
		c.Stats.AssumedHits++
		return true, writeback, evicted
	}
	return false, writeback, evicted
}

// Probe reports whether the block containing addr is present, without
// modifying any state or statistics.
func (c *Cache) Probe(addr uint64) bool {
	blk := addr >> c.blockShift
	set := blk & c.setMask
	base := int(set) * c.assoc
	for i := base; i < base+c.assoc; i++ {
		if c.stamps[i] != 0 && c.tags[i] == blk {
			return true
		}
	}
	return false
}

// Prefetch installs the block containing addr if absent, counting it as a
// prefetch rather than a demand access. It returns true when the block was
// absent (i.e. the prefetch was useful work). Residency check and victim
// selection share a single set scan.
func (c *Cache) Prefetch(addr uint64) bool {
	blk := addr >> c.blockShift
	set := blk & c.setMask
	base := int(set) * c.assoc

	// One scan finds a resident copy (prefetch is then a no-op), the
	// victim way (invalid-first, else oldest stamp), and the oldest live
	// stamp used for the LRU-friendly insertion below.
	victim := base
	oldest := ^uint64(0)
	minLive := ^uint64(0)
	haveInvalid := false
	for i := base; i < base+c.assoc; i++ {
		s := c.stamps[i]
		if s == 0 {
			if !haveInvalid {
				victim = i
				haveInvalid = true
			}
			continue
		}
		if c.tags[i] == blk {
			return false // resident: nothing mutated yet
		}
		if s < minLive {
			minLive = s
		}
		if !haveInvalid && s < oldest {
			oldest = s
			victim = i
		}
	}
	if !haveInvalid && c.cfg.Replace == ReplaceRandom {
		c.rngState ^= c.rngState << 13
		c.rngState ^= c.rngState >> 7
		c.rngState ^= c.rngState << 17
		victim = base + int(c.rngState%uint64(c.assoc))
	}
	if c.stamps[victim] != 0 && c.isDirty(victim) {
		c.Stats.Writebacks++
	}
	// Install at LRU-friendly position — strictly older than every live
	// line in the set — so a never-used prefetch is the next victim
	// instead of being shielded behind an MRU stamp. The floor of 1 keeps
	// the stamp distinct from the invalid sentinel; at the floor the
	// prefetch ties the set's oldest line and may outlive it by index
	// order, which only happens before the set's first few accesses.
	stamp := uint64(1)
	if minLive != ^uint64(0) && minLive > 1 {
		stamp = minLive - 1
	}
	c.tags[victim] = blk
	c.stamps[victim] = stamp
	c.clearDirty(victim)
	c.Stats.Prefetches++
	return true
}
