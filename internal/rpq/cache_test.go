package rpq

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/regex"
)

func TestEngineCacheReusesAndInvalidates(t *testing.T) {
	g := figure1(t)
	c := NewCache(g)
	q := regex.MustParse("(tram+bus)*.cinema")
	e1 := c.Get(q)
	e2 := c.Get(regex.MustParse("(tram+bus)*.cinema"))
	if e1 != e2 {
		t.Fatal("equal canonical queries must share one engine")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Size != 1 {
		t.Fatalf("stats = %d hits, %d misses, %d entries; want 1, 1, 1", st.Hits, st.Misses, st.Size)
	}
	assertEnginesIdentical(t, "cached", g, q, queueOracle(g, q), e1)
}

func TestEngineCacheConcurrentGets(t *testing.T) {
	g := figure1(t)
	c := NewCache(g)
	queries := []string{"(tram+bus)*.cinema", "bus", "restaurant", "bus.restaurant"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				q := regex.MustParse(queries[(w+i)%len(queries)])
				e := c.Get(q)
				if e == nil || e.Selected() == nil {
					t.Error("cache returned an unusable engine")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if size := c.Stats().Size; size != len(queries) {
		t.Fatalf("cache holds %d entries, want %d", size, len(queries))
	}
}

// TestCompiledQuerySharedAcrossGoroutines builds engines for the same
// queries from several goroutines at once, so their sweeps read one
// memoised compilation's reverse table and accepting mask together.
func TestCompiledQuerySharedAcrossGoroutines(t *testing.T) {
	g := figure1(t)
	queries := []string{"(tram+bus)*.cinema", "bus*.restaurant", "tram.bus*"}
	want := make([][]graph.NodeID, len(queries))
	for i, q := range queries {
		want[i] = queueOracle(g, regex.MustParse(q)).Selected()
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				k := (w + i) % len(queries)
				if got := New(g, regex.MustParse(queries[k])).Selected(); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("%s: Selected() = %v, oracle %v", queries[k], got, want[k])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestEngineCacheLRUEviction(t *testing.T) {
	g := figure1(t)
	c := NewCacheWith(g, CacheOptions{Capacity: 2})
	qa := regex.MustParse("bus")
	qb := regex.MustParse("tram")
	qc := regex.MustParse("restaurant")
	ea := c.Get(qa)
	c.Get(qb)
	// Touch qa so qb becomes the least recently used entry.
	if c.Get(qa) != ea {
		t.Fatal("hit must return the resident engine")
	}
	c.Get(qc) // evicts qb
	st := c.Stats()
	if st.Evictions != 1 || st.Size != 2 {
		t.Fatalf("stats = %+v; want 1 eviction, size 2", st)
	}
	if c.Get(qa) != ea {
		t.Fatal("recently used entry must survive the eviction")
	}
	eb := c.Get(qb) // miss: rebuilds
	if st := c.Stats(); st.Evictions != 2 {
		t.Fatalf("refetching the evicted query must evict again (LRU), stats = %+v", st)
	}
	if eb == nil || len(eb.Selected()) == 0 {
		t.Fatal("rebuilt engine must be usable")
	}
}

func TestEngineCacheConcurrentEvictions(t *testing.T) {
	g := figure1(t)
	c := NewCacheWith(g, CacheOptions{Capacity: 2})
	queries := []string{"bus", "tram", "restaurant", "cinema", "bus.restaurant", "(tram+bus)*.cinema"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				q := regex.MustParse(queries[(w+i)%len(queries)])
				e := c.Get(q)
				if e == nil {
					t.Error("cache returned nil engine")
					return
				}
				if got, want := e.Selected(), queueOracle(g, q).Selected(); !reflect.DeepEqual(got, want) {
					t.Errorf("engine for %s returned %v, want %v", q, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Size > 2 {
		t.Fatalf("cache exceeded its capacity: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("expected evictions under churn, stats = %+v", st)
	}
}

// TestEngineCacheSingleflight pins the in-flight coalescing: concurrent
// cold misses on one key must build the engine exactly once and all share
// the same instance.
func TestEngineCacheSingleflight(t *testing.T) {
	g := figure1(t)
	c := NewCache(g)
	q := regex.MustParse("(tram+bus)*.cinema")
	const n = 16
	engines := make([]*Engine, n)
	var wg sync.WaitGroup
	var start sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start.Wait()
			engines[i] = c.Get(q)
		}(i)
	}
	start.Done()
	wg.Wait()
	for i := 1; i < n; i++ {
		if engines[i] != engines[0] {
			t.Fatal("concurrent gets must share one engine instance")
		}
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != n-1 {
		t.Fatalf("stats = %+v; want exactly 1 miss and %d hits", st, n-1)
	}
}

func TestConsistentThroughCache(t *testing.T) {
	g := figure1(t)
	c := NewCache(g)
	q := regex.MustParse("(tram+bus)*.cinema")
	if !c.Get(q).ConsistentWith([]graph.NodeID{"N1", "N2"}, []graph.NodeID{"C1", "R1"}) {
		t.Fatal("goal query should be consistent with the paper's examples")
	}
	if c.Get(q).ConsistentWith([]graph.NodeID{"C1"}, nil) {
		t.Fatal("facility node is not selected and cannot be a positive")
	}
}

func TestEngineCacheGetText(t *testing.T) {
	g := figure1(t)
	c := NewCacheWith(g, CacheOptions{Capacity: 2})
	parses := 0
	parse := func(s string) (*regex.Expr, error) {
		parses++
		return regex.Parse(s)
	}
	// Two spellings of one query share the engine Get returns; each is
	// parsed once, then served from the cache.
	want := c.Get(regex.MustParse("(tram+bus)*.cinema"))
	for _, text := range []string{"(tram+bus)*.cinema", "(bus+tram)*.cinema", "(tram+bus)*.cinema", "(bus+tram)*.cinema"} {
		e, err := c.GetText(text, parse)
		if err != nil || e != want {
			t.Fatalf("GetText(%q) = %p, %v; want the cached engine %p", text, e, err, want)
		}
	}
	if parses != 2 {
		t.Fatalf("two spellings parsed %d times, want 2", parses)
	}
	if _, err := c.GetText("((", parse); err == nil {
		t.Fatal("a malformed query must return the parse error")
	}
	// Evicting the entry forgets its spellings: the next call parses again
	// and gets the rebuilt engine.
	c.Get(regex.MustParse("bus"))
	c.Get(regex.MustParse("tram"))
	e, err := c.GetText("(tram+bus)*.cinema", parse)
	if err != nil || e == want || parses != 4 {
		t.Fatalf("after eviction: engine reused %v, err %v, %d parses; want a rebuilt engine after 4 parses", e == want, err, parses)
	}
}

func TestSelectedJSON(t *testing.T) {
	g := figure1(t)
	for _, q := range []string{"(tram+bus)*.cinema", "metro"} {
		e := New(g, regex.MustParse(q))
		want, _ := json.Marshal(e.Selected())
		// Concurrent first calls build the encoding once and share it.
		got := make([][]byte, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i] = e.SelectedJSON()
			}()
		}
		wg.Wait()
		for _, b := range got {
			if !bytes.Equal(b, want) || &b[0] != &got[0][0] {
				t.Fatalf("%s: SelectedJSON = %s (shared %v), want %s built once", q, b, &b[0] == &got[0][0], want)
			}
		}
	}
}

// maxRetainedPerEngine bounds the heap one cached 60x60 cold-mix engine
// keeps alive: the per-state reach rows (985 B each), the compiled query
// (DFA, reverse table, accepting mask) and the cache's bookkeeping.
const maxRetainedPerEngine = 40 << 10

// TestEngineCacheRetainedBytes fills an EngineCache with 1,024 distinct
// eval-cold-grammar engines on transport 60x60, served the way a
// truncated /evaluate serves them (count and the first 16 nodes), and
// pins the heap the full cache retains per entry.
func TestEngineCacheRetainedBytes(t *testing.T) {
	g := dataset.Transport(dataset.TransportOptions{Rows: 60, Cols: 60, Seed: 1, FacilityRate: 0.3})
	g.Indexed()
	dfaMu.Lock()
	dfaCache = make(map[string]*compiledQuery) // count the entries' compiled queries
	dfaMu.Unlock()
	c := NewCache(g)
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	rng := rand.New(rand.NewSource(1))
	for c.Stats().Size < DefaultCacheCapacity {
		e, err := c.GetText(coldGrammarQuery(rng), regex.Parse)
		if err != nil {
			t.Fatal(err)
		}
		if len(e.FirstSelected(16)) > e.NumSelected() {
			t.Fatal("FirstSelected exceeds the answer")
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	perEntry := (int64(ms.HeapAlloc) - int64(before)) / DefaultCacheCapacity
	runtime.KeepAlive(c)
	t.Logf("%d bytes retained per cached engine", perEntry)
	if perEntry > maxRetainedPerEngine {
		t.Fatalf("%d bytes retained per cached 60x60 engine, budget %d", perEntry, maxRetainedPerEngine)
	}
}
