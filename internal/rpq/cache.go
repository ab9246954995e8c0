package rpq

import (
	"container/list"
	"strings"
	"sync"

	"repro/internal/automaton"
	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/rpq/index"
)

// Query compilation and evaluation caches. The interactive learner calls
// the evaluator inside every iteration, every consistency check and every
// strategy probe, frequently with a query it has already seen; both caches
// key on the canonical query string so those repeats cost one map lookup.

// dfaCacheCap bounds the compiled-DFA memo; the whole memo is dropped when
// the bound is hit (queries are tiny, eviction precision is not worth the
// bookkeeping).
const dfaCacheCap = 4096

var (
	dfaMu    sync.Mutex
	dfaCache = make(map[string]*automaton.DFA)
)

// compiledDFA returns the minimal complete DFA of the query over the given
// alphabet, memoised by (canonical query string text, alphabet). The
// returned DFA is shared and must be treated as immutable.
func compiledDFA(text string, query *regex.Expr, alphabet []string) *automaton.DFA {
	var sb strings.Builder
	sb.WriteString(text)
	for _, l := range alphabet {
		sb.WriteByte(0)
		sb.WriteString(l)
	}
	key := sb.String()
	dfaMu.Lock()
	if d, ok := dfaCache[key]; ok {
		dfaMu.Unlock()
		return d
	}
	dfaMu.Unlock()
	d := automaton.FromRegex(query).Determinize(alphabet).Minimize()
	dfaMu.Lock()
	if len(dfaCache) >= dfaCacheCap {
		dfaCache = make(map[string]*automaton.DFA)
	}
	dfaCache[key] = d
	dfaMu.Unlock()
	return d
}

// EngineCache memoises fully evaluated engines for one graph, keyed by the
// canonical query string. The learner and the interactive strategies probe
// the same candidate queries over and over (the hypothesis after each
// merge, the goal query of a simulated user, the learned query after each
// interaction); the cache turns each repeat into a map lookup.
//
// Eviction is least-recently-used: when the capacity is reached the entry
// that has gone longest without a Get is dropped, so many concurrent
// sessions sharing one cache keep their hot hypothesis queries resident
// instead of periodically losing the whole working set to a flush.
//
// The cache watches the graph's structural version: any mutation of the
// graph flushes every entry, so a stale engine is never returned. It is
// safe for concurrent use.
type EngineCache struct {
	g       *graph.Graph
	cap     int
	workers int
	index   func() *index.Index

	mu      sync.Mutex
	version uint64
	// entries maps canonical query string to its *list.Element whose Value
	// is a *cacheEntry; lru orders elements most-recently-used first.
	entries map[string]*list.Element
	lru     *list.List
	// inflight coalesces concurrent misses on one key: the first misser
	// builds, later missers wait on done and share the result instead of
	// burning a full product sweep each. Flushed alongside entries on a
	// version change so nobody joins a stale build.
	inflight map[string]*inflightBuild
	// spellings maps query text seen by GetText to the element of the entry
	// that text parses to, so a repeated text skips the parse. Each entry
	// lists its spellings and takes them along when it is evicted.
	spellings map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// inflightBuild is one engine build in progress; e is valid once done is
// closed.
type inflightBuild struct {
	done chan struct{}
	e    *Engine
}

// cacheEntry is one resident engine together with its key and spellings,
// so that evicting the list tail can also delete its map entries.
type cacheEntry struct {
	key       string
	engine    *Engine
	spellings []string
}

// maxSpellings bounds the query texts remembered per entry: a client that
// spells one query in ever new ways keeps paying the parse, not memory.
const maxSpellings = 4

// DefaultCacheCapacity bounds the number of cached engines per graph when
// CacheOptions.Capacity is zero.
const DefaultCacheCapacity = 1024

// CacheOptions configures an EngineCache.
type CacheOptions struct {
	// Capacity is the maximum number of resident engines; the
	// least-recently-used entry is evicted beyond it. 0 means
	// DefaultCacheCapacity.
	Capacity int
	// Workers is passed to NewWith for engines built through the cache;
	// 0 or 1 builds sequentially.
	Workers int
	// Index, when non-nil, is consulted on every engine build for the
	// graph's precomputed reachability index. It returns nil while the
	// index is still building (or disabled); a stale index — one built on
	// a different Indexed view than the graph's current one — is ignored
	// by the engine, so providers only need to be version-aware, not
	// synchronized with the cache's own flushes.
	Index func() *index.Index
}

// NewCache returns an empty engine cache for the graph with default
// options (DefaultCacheCapacity, sequential evaluation).
func NewCache(g *graph.Graph) *EngineCache {
	return NewCacheWith(g, CacheOptions{})
}

// NewCacheWith returns an empty engine cache with explicit capacity and
// evaluation parallelism.
func NewCacheWith(g *graph.Graph, opts CacheOptions) *EngineCache {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCacheCapacity
	}
	return &EngineCache{
		g:         g,
		cap:       opts.Capacity,
		workers:   opts.Workers,
		index:     opts.Index,
		version:   g.Version(),
		entries:   make(map[string]*list.Element),
		lru:       list.New(),
		inflight:  make(map[string]*inflightBuild),
		spellings: make(map[string]*list.Element),
	}
}

// Graph returns the graph the cache evaluates against.
func (c *EngineCache) Graph() *graph.Graph { return c.g }

// flushLocked drops every entry and detaches in-flight builds (their
// builders still complete and wake their waiters, but nobody new joins
// them). Caller holds c.mu.
func (c *EngineCache) flushLocked() {
	c.entries = make(map[string]*list.Element)
	c.lru.Init()
	c.inflight = make(map[string]*inflightBuild)
	c.spellings = make(map[string]*list.Element)
}

// syncVersionLocked flushes every entry once the graph has moved past the
// version they were built at. Caller holds c.mu.
func (c *EngineCache) syncVersionLocked() {
	if v := c.g.Version(); v != c.version {
		c.version = v
		c.flushLocked()
	}
}

// GetText returns the evaluated engine for the query spelled text, which
// parse turns into an expression: the engine Get(parse(text)) returns.
// Once text has been parsed while its engine is resident, later calls with
// the same text are served without parsing it again.
func (c *EngineCache) GetText(text string, parse func(string) (*regex.Expr, error)) (*Engine, error) {
	c.mu.Lock()
	c.syncVersionLocked()
	if el, ok := c.spellings[text]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry).engine
		c.mu.Unlock()
		return e, nil
	}
	c.mu.Unlock()
	query, err := parse(text)
	if err != nil {
		return nil, err
	}
	e := c.Get(query)
	c.mu.Lock()
	if el, ok := c.entries[e.text]; ok {
		ent := el.Value.(*cacheEntry)
		if _, dup := c.spellings[text]; !dup && len(ent.spellings) < maxSpellings {
			ent.spellings = append(ent.spellings, text)
			c.spellings[text] = el
		}
	}
	c.mu.Unlock()
	return e, nil
}

// Get returns the evaluated engine for the query, building and caching it
// on first use.
func (c *EngineCache) Get(query *regex.Expr) *Engine {
	key := query.String()
	c.mu.Lock()
	c.syncVersionLocked()
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry).engine
		c.mu.Unlock()
		return e
	}
	if fl, ok := c.inflight[key]; ok {
		// Another goroutine is already building this engine for the same
		// graph version; share its result instead of building again.
		c.hits++
		c.mu.Unlock()
		<-fl.done
		return fl.e
	}
	c.misses++
	fl := &inflightBuild{done: make(chan struct{})}
	c.inflight[key] = fl
	builtAt := c.version
	workers := c.workers
	c.mu.Unlock()
	var idx *index.Index
	if c.index != nil {
		idx = c.index()
	}
	var e *Engine
	if workers > 1 || idx != nil {
		if workers == 0 {
			workers = 1
		}
		e = NewWith(c.g, query, Options{Workers: workers, Index: idx})
	} else {
		e = New(c.g, query)
	}
	fl.e = e
	close(fl.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inflight[key] == fl {
		delete(c.inflight, key)
	}
	// Only keep the engine if the graph has not moved past the version the
	// miss was observed at AND the build finished at — otherwise the engine
	// may reflect a stale revision and must not enter the cache.
	if c.g.Version() != builtAt || c.version != builtAt {
		return e
	}
	// A concurrent miss on the same key may have inserted first; keep the
	// resident engine so every caller shares one canonical instance.
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*cacheEntry).engine
	}
	c.entries[key] = c.lru.PushFront(&cacheEntry{key: key, engine: e})
	for c.lru.Len() > c.cap {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		ent := tail.Value.(*cacheEntry)
		delete(c.entries, ent.key)
		for _, text := range ent.spellings {
			delete(c.spellings, text)
		}
		c.evictions++
	}
	return e
}

// Consistent reports whether the query selects every positive and no
// negative, evaluating through the cache.
func (c *EngineCache) Consistent(query *regex.Expr, positives, negatives []graph.NodeID) bool {
	return c.Get(query).ConsistentWith(positives, negatives)
}

// CacheStats is a point-in-time snapshot of an EngineCache's counters.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Size      int    `json:"size"`
	Capacity  int    `json:"capacity"`
}

// Stats returns the hit/miss/eviction counters and current size, for
// logging and benchmark plumbing.
func (c *EngineCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      len(c.entries),
		Capacity:  c.cap,
	}
}
