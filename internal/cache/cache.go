// Package cache implements the set-associative cache model used by the
// system simulator, plus the racetrack-memory LLC organization with the
// paper's data mapping: each 64-byte line is interleaved over a group of
// 512 stripes that shift together, each stripe contributing one bit per
// line across its 64 data domains (8 segments of 8 by default).
package cache

import (
	"fmt"
	"math/bits"
	"sync"
)

// Stats counts cache events.
type Stats struct {
	Hits, Misses  uint64
	Evictions     uint64
	Writebacks    uint64
	ReadAccesses  uint64
	WriteAccesses uint64
}

// MissRate returns misses / accesses, or 0 when idle.
func (s Stats) MissRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Misses) / float64(total)
}

// A tag word packs one line's state as tag<<tagShift | dirty | valid.
const (
	validBit = 1
	dirtyBit = 2
	tagShift = 2
	maxWays  = 256 // ranks are uint8
)

// Cache is a blocking set-associative cache with true-LRU replacement.
//
// The tag store is two flat set-major arrays: one packed tag word per
// line (a 16-way set is 128 B) and one uint8 recency rank per line (0 =
// MRU among the set's valid lines; the rank of an invalid line is
// meaningless and never read). Replacement fills the lowest-index invalid
// way first, otherwise evicts the way ranked ways-1.
type Cache struct {
	sets, ways int
	lineBytes  int
	lineShift  uint
	setShift   uint
	setMask    uint64
	tags       []uint64   // sets * ways
	ranks      []uint8    // sets * ways
	arrays     *tagArrays // the reusable backing of tags/ranks; nil once released
	Stats      Stats
}

// tagArrays is what a Cache borrows from, and Release returns to, the
// free list for its line count. Every word of a free tags/ranks pair is
// zero.
type tagArrays struct {
	tags  []uint64
	ranks []uint8
	// filled lists the sets filled since New, so Release can clear just
	// those. A set's first fill lands in way 0, which is where it is
	// recorded; a set may repeat after Invalidate empties way 0.
	filled []int
}

// The free lists are shared by every goroutine, unlike a sync.Pool,
// whose per-P private slot hides an array released on one P from a New
// on another: that allocated a second paper-size L3 array in about one
// in four processes that ran a sweep. Released arrays stay for the life
// of the process, and a list never holds more arrays of a size than
// were live at once.
var (
	freeMu sync.Mutex
	free   = map[int][]*tagArrays{} // line count -> released arrays
)

// takeArrays returns released arrays of the given line count, or nil.
func takeArrays(lines int) *tagArrays {
	freeMu.Lock()
	defer freeMu.Unlock()
	l := free[lines]
	if len(l) == 0 {
		return nil
	}
	free[lines] = l[:len(l)-1]
	return l[len(l)-1]
}

// New builds a cache of the given capacity. capacity must be divisible by
// ways*lineBytes, the set count and lineBytes must be powers of two, and
// ways must not exceed 256. The tag arrays are those of a released cache
// of the same size when one is available.
func New(capacityB int64, ways, lineBytes int) *Cache {
	if capacityB <= 0 || ways <= 0 || lineBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	if ways > maxWays {
		panic(fmt.Sprintf("cache: %d ways exceeds %d", ways, maxWays))
	}
	setBytes := int64(ways * lineBytes)
	if capacityB%setBytes != 0 {
		panic(fmt.Sprintf("cache: capacity %d not divisible by way size %d", capacityB, setBytes))
	}
	sets := int(capacityB / setBytes)
	if sets&(sets-1) != 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: %d sets of %d-byte lines: both must be powers of two", sets, lineBytes))
	}
	lineShift := uint(bits.TrailingZeros(uint(lineBytes)))
	setShift := uint(bits.TrailingZeros(uint(sets)))
	if lineShift+setShift < tagShift {
		panic(fmt.Sprintf("cache: %d sets of %d-byte lines leave no room for the tag's state bits", sets, lineBytes))
	}
	lines := sets * ways
	a := takeArrays(lines)
	if a == nil {
		a = &tagArrays{tags: make([]uint64, lines), ranks: make([]uint8, lines)}
	}
	return &Cache{
		sets:      sets,
		ways:      ways,
		lineBytes: lineBytes,
		lineShift: lineShift,
		setShift:  setShift,
		setMask:   uint64(sets - 1),
		tags:      a.tags,
		ranks:     a.ranks,
		arrays:    a,
	}
}

// Release clears the sets filled since New and returns the tag arrays to
// the free list for the next New of the same size. The cache must not be
// used afterwards; a second Release is a no-op. Releasing is optional:
// an unreleased cache is simply garbage-collected.
func (c *Cache) Release() {
	a := c.arrays
	if a == nil {
		return
	}
	for _, set := range a.filled {
		base := set * c.ways
		clear(a.tags[base : base+c.ways])
		clear(a.ranks[base : base+c.ways])
	}
	a.filled = a.filled[:0]
	c.tags, c.ranks, c.arrays = nil, nil, nil
	freeMu.Lock()
	free[len(a.tags)] = append(free[len(a.tags)], a)
	freeMu.Unlock()
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

// index splits an address into set index and tag.
func (c *Cache) index(addr uint64) (set int, tag uint64) {
	lineAddr := addr >> c.lineShift
	return int(lineAddr & c.setMask), lineAddr >> c.setShift
}

// lines returns the tag words and ranks of one set.
func (c *Cache) lines(set int) ([]uint64, []uint8) {
	base := set * c.ways
	end := base + c.ways
	return c.tags[base:end:end], c.ranks[base:end:end]
}

// lookup returns the way holding tag in the set's tag words, or -1.
func lookup(tags []uint64, tag uint64) int {
	want := tag<<tagShift | validBit
	for w, t := range tags {
		if (t^want)&^dirtyBit == 0 {
			return w
		}
	}
	return -1
}

// Result describes one access.
type Result struct {
	Hit bool
	// Way is the way the line occupies after the access.
	Way int
	// Set is the set index.
	Set int
	// Evicted reports a valid line was displaced.
	Evicted bool
	// Writeback reports the displaced line was dirty.
	Writeback bool
	// EvictedAddr reconstructs the displaced line's address.
	EvictedAddr uint64
}

// Access looks up addr, allocating on miss (write-allocate, writeback).
func (c *Cache) Access(addr uint64, write bool) Result {
	set, tag := c.index(addr)
	tags, ranks := c.lines(set)
	if write {
		c.Stats.WriteAccesses++
	} else {
		c.Stats.ReadAccesses++
	}
	if w := lookup(tags, tag); w >= 0 {
		if write {
			tags[w] |= dirtyBit
		}
		// Lines more recent than w age by one; w becomes the MRU.
		r := ranks[w]
		for i, ri := range ranks {
			if ri < r {
				ranks[i] = ri + 1
			}
		}
		ranks[w] = 0
		c.Stats.Hits++
		return Result{Hit: true, Way: w, Set: set}
	}
	c.Stats.Misses++
	// Victim: invalid way first, else LRU.
	victim := -1
	for w, t := range tags {
		if t&validBit == 0 {
			victim = w
			break
		}
	}
	res := Result{Set: set}
	switch {
	case victim < 0:
		victim = lru(ranks)
		t := tags[victim]
		res.Evicted = true
		res.Writeback = t&dirtyBit != 0
		if res.Writeback {
			c.Stats.Writebacks++
		}
		c.Stats.Evictions++
		res.EvictedAddr = (t>>tagShift<<c.setShift | uint64(set)) << c.lineShift
	case victim == 0 && tags[0] == 0:
		c.arrays.filled = append(c.arrays.filled, set)
	}
	res.Way = victim
	tags[victim] = tag<<tagShift | validBit
	if write {
		tags[victim] |= dirtyBit
	}
	// Every other line ages by one: with a free way that is each valid
	// line, and on eviction none exceeds ways-1 once the LRU is gone.
	for i := range ranks {
		ranks[i]++
	}
	ranks[victim] = 0
	return res
}

// lru returns the way ranked last in a full set.
func lru(ranks []uint8) int {
	last := uint8(len(ranks) - 1)
	for w, r := range ranks {
		if r == last {
			return w
		}
	}
	panic("cache: full set has no LRU way")
}

// Contains reports whether addr is resident (no state change).
func (c *Cache) Contains(addr uint64) bool {
	set, tag := c.index(addr)
	tags, _ := c.lines(set)
	return lookup(tags, tag) >= 0
}

// Invalidate drops addr if resident, reporting whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (resident, dirty bool) {
	set, tag := c.index(addr)
	tags, ranks := c.lines(set)
	w := lookup(tags, tag)
	if w < 0 {
		return false, false
	}
	dirty = tags[w]&dirtyBit != 0
	tags[w] &^= validBit
	// Lines older than w move up one rank.
	r := ranks[w]
	for i, ri := range ranks {
		if ri > r {
			ranks[i] = ri - 1
		}
	}
	return true, dirty
}
