package rpq

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

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
	// Structural mutation must flush the cache and re-evaluate.
	g.MustAddEdge("N5", "cinema", "C1")
	e3 := c.Get(q)
	if e3 == e1 {
		t.Fatal("graph mutation must invalidate cached engines")
	}
	if !e3.Selects("N5") {
		t.Fatal("rebuilt engine must see the new edge")
	}
	if !reflect.DeepEqual(e3.Selected(), Evaluate(g, q)) {
		t.Fatal("cached engine must agree with a fresh evaluation")
	}
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
				if got, want := e.Selected(), Evaluate(g, q); !reflect.DeepEqual(got, want) {
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
	if !c.Consistent(q, []graph.NodeID{"N1", "N2"}, []graph.NodeID{"C1", "R1"}) {
		t.Fatal("goal query should be consistent with the paper's examples")
	}
	if c.Consistent(q, []graph.NodeID{"C1"}, nil) {
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
	// A graph mutation flushes spellings with the entries.
	g.MustAddEdge("N5", "cinema", "C1")
	e2, _ := c.GetText("(tram+bus)*.cinema", parse)
	if e2 == e || !e2.Selects("N5") {
		t.Fatal("GetText must not serve an engine of an older graph version")
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
