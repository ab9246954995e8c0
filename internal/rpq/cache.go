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
	dfaCache = make(map[string]*compiledQuery)
)

// compiledQuery is a query's minimal complete DFA together with the tables
// every sweep reads from it, built once per compilation. It is shared
// across engines and request goroutines and is immutable.
type compiledQuery struct {
	dfa *automaton.DFA
	// rev is the DFA's reverse transition table.
	rev       *automaton.ReverseTransitions
	accepting []bool
}

// compiledDFA returns the compiled minimal complete DFA of the query over
// the given alphabet, memoised by (canonical query string text, alphabet).
func compiledDFA(text string, query *regex.Expr, alphabet []string) *compiledQuery {
	var sb strings.Builder
	sb.WriteString(text)
	for _, l := range alphabet {
		sb.WriteByte(0)
		sb.WriteString(l)
	}
	key := sb.String()
	dfaMu.Lock()
	if c, ok := dfaCache[key]; ok {
		dfaMu.Unlock()
		return c
	}
	dfaMu.Unlock()
	d := automaton.FromRegex(query).Determinize(alphabet).Minimize()
	c := &compiledQuery{dfa: d, rev: d.Reverse(), accepting: d.AcceptingMask()}
	dfaMu.Lock()
	if len(dfaCache) >= dfaCacheCap {
		dfaCache = make(map[string]*compiledQuery)
	}
	dfaCache[key] = c
	dfaMu.Unlock()
	return c
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
// Evaluating a query freezes the graph (graph.Graph.Indexed), so a cached
// engine never goes stale. The cache is safe for concurrent use.
type EngineCache struct {
	g     *graph.Graph
	cap   int
	index func() *index.Index

	mu sync.Mutex
	// entries maps canonical query string to its *list.Element whose Value
	// is a *cacheEntry; lru orders elements most-recently-used first.
	entries map[string]*list.Element
	lru     *list.List
	// inflight coalesces concurrent misses on one key: the first misser
	// builds, later missers wait on done and share the result instead of
	// burning a full product sweep each.
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
	// Deprecated: ignored. The product sweep is sequential; the field
	// remains only for callers that still set it (ROADMAP 5(g)).
	Workers int
	// Index, when non-nil, is consulted on every engine build for the
	// graph's closure index, which must have been built on the graph's
	// Indexed view. It returns nil while the index is still building (or
	// disabled).
	Index func() *index.Index
}

// NewCache returns an empty engine cache for the graph with default
// options (DefaultCacheCapacity, no index).
func NewCache(g *graph.Graph) *EngineCache {
	return NewCacheWith(g, CacheOptions{})
}

// NewCacheWith returns an empty engine cache with explicit options.
func NewCacheWith(g *graph.Graph, opts CacheOptions) *EngineCache {
	if opts.Capacity <= 0 {
		opts.Capacity = DefaultCacheCapacity
	}
	return &EngineCache{
		g:         g,
		cap:       opts.Capacity,
		index:     opts.Index,
		entries:   make(map[string]*list.Element),
		lru:       list.New(),
		inflight:  make(map[string]*inflightBuild),
		spellings: make(map[string]*list.Element),
	}
}

// Graph returns the graph the cache evaluates against.
func (c *EngineCache) Graph() *graph.Graph { return c.g }

// GetText returns the evaluated engine for the query spelled text, which
// parse turns into an expression: the engine Get(parse(text)) returns.
// Once text has been parsed while its engine is resident, later calls with
// the same text are served without parsing it again.
func (c *EngineCache) GetText(text string, parse func(string) (*regex.Expr, error)) (*Engine, error) {
	c.mu.Lock()
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
	if el, ok := c.entries[key]; ok {
		c.hits++
		c.lru.MoveToFront(el)
		e := el.Value.(*cacheEntry).engine
		c.mu.Unlock()
		return e
	}
	if fl, ok := c.inflight[key]; ok {
		// Another goroutine is already building this engine; share its
		// result instead of building again.
		c.hits++
		c.mu.Unlock()
		<-fl.done
		return fl.e
	}
	c.misses++
	fl := &inflightBuild{done: make(chan struct{})}
	c.inflight[key] = fl
	c.mu.Unlock()
	var idx *index.Index
	if c.index != nil {
		idx = c.index()
	}
	e := NewWith(c.g, query, Options{Index: idx})
	fl.e = e
	close(fl.done)
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.inflight, key)
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
