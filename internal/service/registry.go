package service

import (
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/rpq"
	"repro/internal/rpq/index"
	"repro/internal/store"
)

// GraphHandle is a snapshot-consistent view of one registered graph. The
// service treats registered graphs as immutable: the handle pins the
// structural version observed at registration, and every evaluation path
// checks it, so a graph mutated behind the registry's back is detected
// instead of silently serving mixed-revision answers. Replacing a name
// re-registers a fresh handle; sessions started on the old handle keep
// their old snapshot and cache.
type GraphHandle struct {
	name    string
	g       *graph.Graph
	version uint64
	cache   *rpq.EngineCache
	// owner is the tenant that registered the graph; any tenant may read
	// and evaluate it, but it counts against the owner's MaxGraphs quota.
	owner string
	// idx is the graph's precomputed reachability index (see rpq/index),
	// built in the background after registration; idxState tracks the
	// build. Evaluations consult Index() and simply run without the index
	// until the build lands — results are identical either way.
	idx      atomic.Pointer[index.Index]
	idxState atomic.Int32
}

// Index build states of a GraphHandle.
const (
	indexDisabled int32 = iota
	indexBuilding
	indexReady
)

// indexStateNames renders idxState for JSON views.
var indexStateNames = [...]string{"disabled", "building", "ready"}

// Name returns the registry name of the graph.
func (h *GraphHandle) Name() string { return h.name }

// Graph returns the underlying graph. Callers must not mutate it.
func (h *GraphHandle) Graph() *graph.Graph { return h.g }

// Version returns the structural version the handle was registered at.
func (h *GraphHandle) Version() uint64 { return h.version }

// Cache returns the graph's shared engine cache.
func (h *GraphHandle) Cache() *rpq.EngineCache { return h.cache }

// Index returns the graph's precomputed reachability index, or nil while
// the background build is still running or indexing is disabled. The
// engine cache passes this method as its index provider, so evaluations
// pick the index up the moment it is ready — without flushing anything,
// since indexed and unindexed engines answer identically.
func (h *GraphHandle) Index() *index.Index {
	if h.idxState.Load() != indexReady {
		return nil
	}
	return h.idx.Load()
}

// IndexInfo reports the state of a graph's reachability index for JSON
// views (/v1/graphs, /v1/stats).
type IndexInfo struct {
	State string       `json:"state"`
	Stats *index.Stats `json:"stats,omitempty"`
}

// indexInfo snapshots the handle's index state.
func (h *GraphHandle) indexInfo() IndexInfo {
	info := IndexInfo{State: indexStateNames[h.idxState.Load()]}
	if idx := h.Index(); idx != nil {
		st := idx.Stats()
		info.Stats = &st
	}
	return info
}

// buildIndex runs the background index construction over an Indexed view
// captured synchronously at install time — the goroutine never touches
// the Graph itself, so a caller mutating the graph after registration
// (which Check() reports on the evaluation paths anyway) cannot race the
// build. Indexes are memory-only and never persisted: after a crash
// recovery this runs again rather than trusting stale bytes.
func (h *GraphHandle) buildIndex(ix *graph.Indexed, logger *slog.Logger) {
	idx := index.Build(ix, index.Options{})
	h.idx.Store(idx)
	h.idxState.Store(indexReady)
	st := idx.Stats()
	logger.Info("graph index ready",
		"graph", h.name,
		"bytes", st.Bytes,
		"build_ms", st.BuildMs,
		"closed_labels", st.ClosedLabels)
}

// Check verifies the snapshot invariant: the graph has not been mutated
// since registration.
func (h *GraphHandle) Check() error {
	if v := h.g.Version(); v != h.version {
		return fmt.Errorf("service: graph %q mutated since registration (version %d, registered at %d)", h.name, v, h.version)
	}
	return nil
}

// Engine returns the shared evaluated engine for the query after checking
// the snapshot invariant.
func (h *GraphHandle) Engine(queryStr string) (*rpq.Engine, error) {
	if err := h.Check(); err != nil {
		return nil, err
	}
	return h.cache.GetText(queryStr, parseQuery)
}

// GraphInfo is the JSON-facing summary of one registered graph. Owner uses
// the wire form (the default tenant is elided), keeping open-mode responses
// byte-identical to the pre-tenancy API.
type GraphInfo struct {
	Name    string         `json:"name"`
	Owner   string         `json:"owner,omitempty"`
	Nodes   int            `json:"nodes"`
	Edges   int            `json:"edges"`
	Labels  int            `json:"labels"`
	Version uint64         `json:"version"`
	Cache   rpq.CacheStats `json:"cache"`
	Index   IndexInfo      `json:"index"`
}

func (h *GraphHandle) info() GraphInfo {
	return GraphInfo{
		Name:    h.name,
		Owner:   wireTenant(h.owner),
		Nodes:   h.g.NumNodes(),
		Edges:   h.g.NumEdges(),
		Labels:  len(h.g.Alphabet()),
		Version: h.version,
		Cache:   h.cache.Stats(),
		Index:   h.indexInfo(),
	}
}

// Registry is the concurrent graph store of the service.
type Registry struct {
	opts Options

	// storeMu serializes Register's {persist snapshot, install} against
	// Remove's {uninstall, delete snapshot}, so the on-disk store never
	// falls out of step with the registry map (a concurrent Remove could
	// otherwise delete the snapshot a replacing Register just wrote,
	// leaving a registered graph that silently vanishes at recovery).
	storeMu sync.Mutex
	mu      sync.RWMutex
	graphs  map[string]*GraphHandle
}

// NewRegistry returns an empty registry.
func NewRegistry(opts Options) *Registry {
	return &Registry{opts: opts.withDefaults(), graphs: make(map[string]*GraphHandle)}
}

// Register installs (or replaces) a graph under the given name for the
// default tenant — the open-mode path and the one embedders use.
func (r *Registry) Register(name string, g *graph.Graph) (*GraphHandle, error) {
	return r.RegisterFor(TenantInfo{Name: DefaultTenant}, name, g)
}

// RegisterFor installs (or replaces) a graph under the given name, owned by
// the tenant and counted against its MaxGraphs quota. The graph must not be
// mutated after registration. On a durable service the snapshot is
// persisted before the graph becomes visible, so a name the client saw
// registered is always recoverable.
func (r *Registry) RegisterFor(tn TenantInfo, name string, g *graph.Graph) (*GraphHandle, error) {
	return r.RegisterForWith(tn, name, g, RegisterOptions{})
}

// RegisterOptions carries per-registration knobs.
type RegisterOptions struct {
	// NoIndex opts this graph out of the background reachability-index
	// build (useful for short-lived graphs not worth the build cost).
	NoIndex bool
}

// RegisterForWith is RegisterFor with per-registration options.
func (r *Registry) RegisterForWith(tn TenantInfo, name string, g *graph.Graph, ro RegisterOptions) (*GraphHandle, error) {
	if name == "" {
		return nil, fmt.Errorf("service: empty graph name")
	}
	if g == nil || g.NumNodes() == 0 {
		return nil, fmt.Errorf("service: graph %q is empty", name)
	}
	r.storeMu.Lock()
	defer r.storeMu.Unlock()
	if c := tn.Limits.MaxGraphs; c > 0 {
		// Replacing a name the tenant already owns does not consume a new
		// quota slot.
		owned := 0
		r.mu.RLock()
		for gname, h := range r.graphs {
			if h.owner == tn.Name && gname != name {
				owned++
			}
		}
		r.mu.RUnlock()
		if owned >= c {
			return nil, fmt.Errorf("service: tenant %q has %d registered graphs (quota %d): %w", tn.Name, owned, c, ErrQuota)
		}
	}
	if r.opts.Store != nil {
		if err := r.opts.Store.SaveGraph(name, g); err != nil {
			return nil, fmt.Errorf("service: %w: %w", ErrStore, err)
		}
	}
	h := r.install(name, g, tn.Name, ro.NoIndex)
	if err := r.saveOwnersLocked(); err != nil {
		return nil, err
	}
	return h, nil
}

// restore installs a graph recovered from the store without re-persisting
// its (already durable) snapshot or the ownership sidecar. The
// reachability index is rebuilt from scratch like any fresh registration:
// indexes are derived, memory-only state and are never trusted across a
// crash.
func (r *Registry) restore(name string, g *graph.Graph, owner string) *GraphHandle {
	return r.install(name, g, owner, false)
}

func (r *Registry) install(name string, g *graph.Graph, owner string, noIndex bool) *GraphHandle {
	h := &GraphHandle{
		name:    name,
		g:       g,
		version: g.Version(),
		owner:   owner,
	}
	h.cache = rpq.NewCacheWith(g, rpq.CacheOptions{
		Capacity: r.opts.CacheCapacity,
		Workers:  r.opts.EvalWorkers,
		Index:    h.Index,
	})
	if !r.opts.DisableIndex && !noIndex {
		h.idxState.Store(indexBuilding)
		// Capture the immutable view now, while registration still owns
		// the graph; the background build must not read the Graph.
		go h.buildIndex(g.Indexed(), r.opts.Logger)
	}
	r.mu.Lock()
	r.graphs[name] = h
	r.mu.Unlock()
	return h
}

// saveOwnersLocked rewrites the graph-ownership sidecar from the registry
// map. Caller holds storeMu, so the sidecar tracks the snapshot set.
func (r *Registry) saveOwnersLocked() error {
	if r.opts.Store == nil {
		return nil
	}
	owners := make(map[string]string)
	r.mu.RLock()
	for name, h := range r.graphs {
		owners[name] = wireTenant(h.owner)
	}
	r.mu.RUnlock()
	if err := store.SaveOwners(r.opts.Store.Dir(), owners); err != nil {
		return fmt.Errorf("service: %w: %w", ErrStore, err)
	}
	return nil
}

// Get returns the handle registered under name.
func (r *Registry) Get(name string) (*GraphHandle, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	h, ok := r.graphs[name]
	return h, ok
}

// Remove drops the name from the registry (and its persisted snapshot, on
// a durable service). Sessions holding the handle keep working on their
// snapshot.
func (r *Registry) Remove(name string) bool {
	r.storeMu.Lock()
	defer r.storeMu.Unlock()
	r.mu.Lock()
	_, ok := r.graphs[name]
	delete(r.graphs, name)
	r.mu.Unlock()
	if ok && r.opts.Store != nil {
		// Best effort: a leftover snapshot re-registers the graph on the
		// next recovery, which is annoying but safe.
		_ = r.opts.Store.DeleteGraph(name)
		_ = r.saveOwnersLocked()
	}
	return ok
}

// graphSamples renders one labelled sample per registered graph — the
// scrape-time callback behind the per-graph gpsd_cache_* and gpsd_index_*
// families. The guard caps graph-label cardinality: graphs beyond the cap
// collapse into one summed "_other" sample, mirroring the per-tenant
// guard, so a graph-churning client cannot blow up scrape size.
func (r *Registry) graphSamples(guard *labelGuard, get func(GraphInfo) float64) []obs.Sample {
	infos := r.List()
	out := make([]obs.Sample, 0, len(infos))
	var overflow float64
	seenOverflow := false
	for _, gi := range infos {
		name := guard.label(gi.Name)
		if name == tenantLabelOverflow {
			overflow += get(gi)
			seenOverflow = true
			continue
		}
		out = append(out, obs.Sample{
			Labels: []obs.Label{obs.L("graph", name)},
			Value:  get(gi),
		})
	}
	if seenOverflow {
		out = append(out, obs.Sample{
			Labels: []obs.Label{obs.L("graph", tenantLabelOverflow)},
			Value:  overflow,
		})
	}
	return out
}

// List returns the registered graphs sorted by name.
func (r *Registry) List() []GraphInfo {
	r.mu.RLock()
	handles := make([]*GraphHandle, 0, len(r.graphs))
	for _, h := range r.graphs {
		handles = append(handles, h)
	}
	r.mu.RUnlock()
	sort.Slice(handles, func(i, j int) bool { return handles[i].name < handles[j].name })
	out := make([]GraphInfo, len(handles))
	for i, h := range handles {
		out[i] = h.info()
	}
	return out
}

// LoadSpec describes a graph to load: either inline data in one of the
// text formats, or a named synthetic dataset.
type LoadSpec struct {
	// Format is "text", "csv", "tsv" or "triples" for inline Data, or
	// "dataset" (also implied when Dataset.Kind is set).
	Format string `json:"format"`
	// Data is the inline serialised graph for the text formats.
	Data string `json:"data,omitempty"`
	// Dataset selects a built-in generator.
	Dataset DatasetSpec `json:"dataset,omitzero"`
	// NoIndex opts the graph out of the background reachability-index
	// build.
	NoIndex bool `json:"no_index,omitempty"`
}

// DatasetSpec parameterises the built-in graph generators.
type DatasetSpec struct {
	// Kind is "figure1", "transport", "random" or "scale-free".
	Kind string `json:"kind"`
	// Rows and Cols shape the transport grid.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Nodes sizes the random and scale-free generators.
	Nodes int `json:"nodes,omitempty"`
	// Seed drives all randomness.
	Seed int64 `json:"seed,omitempty"`
	// FacilityRate is the transport facility probability.
	FacilityRate float64 `json:"facility_rate,omitempty"`
}

// BuildGraph materialises a LoadSpec.
func BuildGraph(spec LoadSpec) (*graph.Graph, error) {
	format := spec.Format
	if format == "" && spec.Dataset.Kind != "" {
		format = "dataset"
	}
	switch format {
	case "text":
		return graph.ParseText(spec.Data)
	case "csv":
		return graph.ReadCSV(strings.NewReader(spec.Data), graph.CSVOptions{})
	case "tsv":
		return graph.ReadCSV(strings.NewReader(spec.Data), graph.CSVOptions{Comma: '\t'})
	case "triples":
		return graph.ReadTriples(strings.NewReader(spec.Data))
	case "dataset":
		return buildDataset(spec.Dataset)
	default:
		return nil, fmt.Errorf("service: unknown graph format %q (want text, csv, tsv, triples or dataset)", spec.Format)
	}
}

func buildDataset(spec DatasetSpec) (*graph.Graph, error) {
	switch spec.Kind {
	case "figure1":
		return dataset.Figure1(), nil
	case "transport":
		return dataset.Transport(dataset.TransportOptions{
			Rows:         spec.Rows,
			Cols:         spec.Cols,
			Seed:         spec.Seed,
			FacilityRate: spec.FacilityRate,
		}), nil
	case "random":
		return dataset.Random(dataset.RandomOptions{Nodes: spec.Nodes, Seed: spec.Seed}), nil
	case "scale-free":
		return dataset.ScaleFree(dataset.ScaleFreeOptions{Nodes: spec.Nodes, Seed: spec.Seed}), nil
	default:
		return nil, fmt.Errorf("service: unknown dataset kind %q (want figure1, transport, random or scale-free)", spec.Kind)
	}
}
