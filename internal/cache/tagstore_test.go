package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"racetrack/hifi/internal/sim"
)

// refCache is the naive model the packed tag store is checked against: a
// map from line address to its way and dirty bit, plus one recency list
// of resident line addresses per set (MRU first).
type refCache struct {
	sets, ways, lineBytes uint64
	lines                 map[uint64]*refLine
	recency               [][]uint64
	stats                 Stats
}

type refLine struct {
	way   int
	dirty bool
}

func newRef(sets, ways, lineBytes int) *refCache {
	return &refCache{
		sets: uint64(sets), ways: uint64(ways), lineBytes: uint64(lineBytes),
		lines:   map[uint64]*refLine{},
		recency: make([][]uint64, sets),
	}
}

func (r *refCache) touch(set, la uint64) {
	list := r.recency[set]
	for i, x := range list {
		if x == la {
			copy(list[1:i+1], list[:i])
			list[0] = la
			return
		}
	}
	r.recency[set] = append([]uint64{la}, list...)
}

func (r *refCache) drop(set, la uint64) {
	list := r.recency[set]
	for i, x := range list {
		if x == la {
			r.recency[set] = append(list[:i], list[i+1:]...)
			break
		}
	}
	delete(r.lines, la)
}

func (r *refCache) access(addr uint64, write bool) Result {
	la := addr / r.lineBytes
	set := la % r.sets
	if write {
		r.stats.WriteAccesses++
	} else {
		r.stats.ReadAccesses++
	}
	if l, ok := r.lines[la]; ok {
		r.stats.Hits++
		l.dirty = l.dirty || write
		r.touch(set, la)
		return Result{Hit: true, Way: l.way, Set: int(set)}
	}
	r.stats.Misses++
	res := Result{Set: int(set)}
	list := r.recency[set]
	if uint64(len(list)) == r.ways {
		victim := list[len(list)-1]
		v := r.lines[victim]
		res.Way = v.way
		res.Evicted = true
		res.Writeback = v.dirty
		res.EvictedAddr = victim * r.lineBytes
		r.stats.Evictions++
		if v.dirty {
			r.stats.Writebacks++
		}
		r.drop(set, victim)
	} else {
		used := map[int]bool{}
		for _, x := range list {
			used[r.lines[x].way] = true
		}
		for used[res.Way] {
			res.Way++
		}
	}
	r.lines[la] = &refLine{way: res.Way, dirty: write}
	r.touch(set, la)
	return res
}

func (r *refCache) invalidate(addr uint64) (resident, dirty bool) {
	la := addr / r.lineBytes
	l, ok := r.lines[la]
	if !ok {
		return false, false
	}
	r.drop(la%r.sets, la)
	return true, l.dirty
}

// diffTraffic drives c and a fresh reference with n random reads, writes,
// invalidations and residency checks over a pool of lines about twice
// the cache's capacity, and reports the first disagreement.
func diffTraffic(c *Cache, rng *sim.RNG, n int) error {
	ref := newRef(c.Sets(), c.Ways(), c.LineBytes())
	pool := 2 * c.Sets() * c.Ways()
	lb := uint64(c.LineBytes())
	for i := 0; i < n; i++ {
		// Line addresses span the high bits too, so tags are wide.
		line := uint64(rng.Intn(pool))
		if rng.Bool(0.2) {
			line |= uint64(rng.Intn(4)) << 50
		}
		addr := line*lb + rng.Uint64n(lb)
		switch op := rng.Intn(10); {
		case op == 0:
			gr, gd := c.Invalidate(addr)
			wr, wd := ref.invalidate(addr)
			if gr != wr || gd != wd {
				return fmt.Errorf("op %d: Invalidate(%#x) = %v,%v, reference %v,%v", i, addr, gr, gd, wr, wd)
			}
		case op == 1:
			_, want := ref.lines[addr/lb]
			if got := c.Contains(addr); got != want {
				return fmt.Errorf("op %d: Contains(%#x) = %v, reference %v", i, addr, got, want)
			}
		default:
			write := op >= 7
			got, want := c.Access(addr, write), ref.access(addr, write)
			if got != want {
				return fmt.Errorf("op %d: Access(%#x, %v) = %+v, reference %+v", i, addr, write, got, want)
			}
		}
	}
	if c.Stats != ref.stats {
		return fmt.Errorf("stats %+v, reference %+v", c.Stats, ref.stats)
	}
	return nil
}

func TestDifferentialAgainstReference(t *testing.T) {
	rng := sim.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		ways := []int{1, 2, 4, 16}[rng.Intn(4)]
		sets := 1 << rng.Intn(7) // 1..64
		lineBytes := []int{16, 64}[rng.Intn(2)]
		t.Run(fmt.Sprintf("%d/%dx%dx%d", trial, sets, ways, lineBytes), func(t *testing.T) {
			c := New(int64(sets*ways*lineBytes), ways, lineBytes)
			if err := diffTraffic(c, rng, 2000); err != nil {
				t.Fatal(err)
			}
			c.Release()
		})
	}
}

func TestMaxWays(t *testing.T) {
	c := New(256*64, 256, 64) // 1 set
	for i := uint64(0); i < 256; i++ {
		c.Access(i*64, false)
	}
	c.Access(0, false) // line 1 is now the LRU
	r := c.Access(256*64, false)
	if !r.Evicted || r.EvictedAddr != 64 || r.Way != 1 {
		t.Errorf("256-way LRU eviction: %+v", r)
	}
}

func TestReleaseLeavesZeroedArrays(t *testing.T) {
	c := New(64*4*64, 4, 64)
	if err := diffTraffic(c, sim.NewRNG(3), 5000); err != nil {
		t.Fatal(err)
	}
	a := c.arrays
	c.Release()
	c.Release() // no-op
	for i, w := range a.tags {
		if w != 0 || a.ranks[i] != 0 {
			t.Fatalf("line %d not cleared: tag %#x rank %d", i, w, a.ranks[i])
		}
	}
	if len(a.filled) != 0 {
		t.Fatalf("filled list kept %d sets", len(a.filled))
	}
}

func TestReuseMatchesFresh(t *testing.T) {
	const sets, ways, lineBytes = 32, 4, 64
	replay := func(access func(uint64, bool) Result) []Result {
		rng := sim.NewRNG(11)
		out := make([]Result, 3000)
		for i := range out {
			out[i] = access(rng.Uint64n(4*sets*ways)*lineBytes, rng.Bool(0.3))
		}
		return out
	}
	fresh := replay(newRef(sets, ways, lineBytes).access)
	// The pool may drop what is put in it, so go round until a New
	// actually gets back the arrays the previous Release returned.
	reused := false
	for round := 0; round < 20 && !reused; round++ {
		c := New(sets*ways*lineBytes, ways, lineBytes)
		if err := diffTraffic(c, sim.NewRNG(uint64(round)), 3000); err != nil {
			t.Fatal(err)
		}
		arrays := c.arrays
		c.Release()
		c = New(sets*ways*lineBytes, ways, lineBytes)
		reused = c.arrays == arrays
		got := replay(c.Access)
		for i := range got {
			if got[i] != fresh[i] {
				t.Fatalf("round %d access %d: cache after reuse %+v, fresh %+v", round, i, got[i], fresh[i])
			}
		}
		c.Release()
	}
	if !reused {
		t.Fatal("New never reused released arrays")
	}
}

// TestReuseAcrossGoroutines: arrays released on one goroutine serve the
// next New on another, whichever processors the two run on.
func TestReuseAcrossGoroutines(t *testing.T) {
	const capacityB, ways, lineBytes = 8 * 8 * 16, 8, 16 // a size no other test uses
	for i := 0; i < 50; i++ {
		c := New(capacityB, ways, lineBytes)
		c.Access(uint64(i)*lineBytes, true)
		arrays := c.arrays
		var released atomic.Bool
		go func() {
			c.Release()
			released.Store(true)
		}()
		// Spin rather than block, so that with more than one processor
		// the Release runs on another one than the New below.
		for !released.Load() {
		}
		c = New(capacityB, ways, lineBytes)
		if c.arrays != arrays {
			t.Fatalf("round %d: New allocated fresh arrays after a Release on another goroutine", i)
		}
		c.Release()
	}
}

func TestConcurrentNewAccessRelease(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := sim.NewRNG(uint64(100 + g))
			for i := 0; i < 20; i++ {
				c := New(16*4*64, 4, 64)
				err := diffTraffic(c, rng, 500)
				c.Release()
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

var sinkResult Result

// BenchmarkAccessPaperL3 is one L3 lifetime at the Table 4 geometry (128
// MB, 16 ways, 64 B lines): New, a fixed seeded stream, Release.
func BenchmarkAccessPaperL3(b *testing.B) {
	const n = 1 << 16
	type ref struct {
		addr  uint64
		write bool
	}
	rng := sim.NewRNG(1)
	stream := make([]ref, n)
	for i := range stream {
		// Three quarters of the lines come from a 32 MB hot region that
		// fits, the rest from 1 GB that does not.
		region := uint64(1 << 30)
		if rng.Bool(0.75) {
			region = 32 << 20
		}
		stream[i] = ref{addr: rng.Uint64n(region) &^ 63, write: rng.Bool(0.3)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := New(128<<20, 16, 64)
		for _, r := range stream {
			sinkResult = c.Access(r.addr, r.write)
		}
		c.Release()
	}
}
