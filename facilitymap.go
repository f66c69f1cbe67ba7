// Package facilitymap is a reproduction of "Mapping Peering
// Interconnections to a Facility" (Giotsas, Smaragdakis, Huffaker,
// Luckie, claffy — CoNEXT 2015): an implementation of Constrained
// Facility Search (CFS), the algorithm that infers the physical
// colocation facility where an interconnection between two networks is
// established, and the engineering approach used (public peering over an
// IXP, private cross-connect, tethering, or remote peering).
//
// Because the original study consumes the live Internet, this module
// ships a full synthetic substrate with known ground truth: an Internet
// generator (internal/world), a BGP and traceroute simulator, alias
// resolution, a PeeringDB-style registry with realistic gaps, and the
// four validation sources of the paper's §6. The CFS core consumes only
// the noisy observational views; the ground truth is used exclusively
// for validation.
//
// This package is the high-level facade: build a System, run the
// mapping, inspect per-interface inferences, validate, and print the
// paper's tables. The sub-packages under internal/ expose the full
// machinery for finer control (see the examples/ directory).
package facilitymap

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"facilitymap/internal/cfs"
	"facilitymap/internal/delta"
	"facilitymap/internal/experiments"
	"facilitymap/internal/netaddr"
	"facilitymap/internal/stats"
	"facilitymap/internal/validation"
	"facilitymap/internal/world"
)

// Config selects the world profile and search parameters.
type Config struct {
	// Profile is "small", "medium", "default", "paper" or "large"
	// (dataset scale; "large" is the internet-scale world — expect
	// generation alone to take seconds and the default iteration budget
	// to run for a long time).
	Profile string
	// Seed drives every random choice; equal seeds give equal worlds
	// and equal inferences. Every value — including 0 — is honored
	// verbatim: NewSystem never substitutes the profile's built-in
	// seed, so Config{Profile: "small"} and Config{Profile: "small",
	// Seed: 0} mean the same (seed-0) world. Use DefaultConfig for the
	// paper's canonical operating point (seed 42).
	Seed int64
	// MaxIterations bounds the CFS loop (paper: 100).
	MaxIterations int
	// Deprecated: has no effect; CFS runs serially.
	Workers int
	// Deprecated: has no effect; CFS runs serially.
	Engine string
	// Deprecated: has no effect; CFS runs serially.
	Shards int
	// Explain records, per interface, the constraints that produced its
	// inference; Lookup then returns them as Evidence.
	Explain bool
}

// DefaultConfig mirrors the paper's operating point on the default
// world profile.
func DefaultConfig() Config {
	return Config{Profile: "default", Seed: 42, MaxIterations: 100}
}

// System is a fully wired synthetic Internet plus measurement stack.
//
// After MapInterconnections, the System retains the live pipeline and
// the latest versioned snapshot: Apply folds registry or observation
// deltas in and re-converges incrementally, Current returns the most
// recently published mapping. Apply calls are serialized internally;
// Current is safe from any goroutine and always sees a complete,
// immutable snapshot.
type System struct {
	// Env exposes the underlying environment for advanced use (the
	// experiment harnesses, the raw world, the measurement service).
	Env *experiments.Env
	cfg Config

	mu   sync.Mutex // serializes MapInterconnections / Apply
	pipe *cfs.Pipeline
	cur  atomic.Pointer[Mapping]
}

// NewSystem generates the world and deploys the measurement platforms.
func NewSystem(cfg Config) (*System, error) {
	var wcfg world.Config
	switch cfg.Profile {
	case "", "default":
		wcfg = world.Default()
	case "small":
		wcfg = world.Small()
	case "medium":
		wcfg = world.Medium()
	case "paper":
		wcfg = world.PaperScale()
	case "large":
		wcfg = world.Large()
	default:
		return nil, fmt.Errorf("facilitymap: unknown profile %q", cfg.Profile)
	}
	// The configured seed is honored verbatim, zero included: silently
	// falling back to the profile default made Seed==0 the one value
	// that could not be asked for, and masked forgotten-seed bugs in
	// reproducibility harnesses.
	wcfg.Seed = cfg.Seed
	return &System{Env: experiments.NewEnv(wcfg, wcfg.Seed), cfg: cfg}, nil
}

// MapInterconnections runs the measurement campaigns and the CFS search,
// returning the converged mapping.
func (s *System) MapInterconnections() *Mapping {
	c := cfs.DefaultConfig()
	if s.cfg.MaxIterations > 0 {
		c.MaxIterations = s.cfg.MaxIterations
	}
	c.TraceProvenance = s.cfg.Explain
	s.mu.Lock()
	defer s.mu.Unlock()
	pipe, res := s.Env.RunCFSPipeline(c)
	m := &Mapping{sys: s, res: res}
	s.pipe = pipe
	s.publish(m)
	return m
}

// Apply folds a batch of deltas — facility-list edits, IXP membership
// changes, BGP sessions coming or going, cross-connects appearing or
// vanishing — into the system's view and re-converges incrementally,
// publishing and returning the next epoch's snapshot. The result is
// bit-for-bit the mapping a fresh run over the mutated inputs would
// produce (see the cfs package's differential tests for the exact
// regime). Requires a prior MapInterconnections and an incremental
// engine (the default).
func (s *System) Apply(log []delta.Delta) (*Mapping, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pipe == nil {
		return nil, fmt.Errorf("facilitymap: Apply before MapInterconnections")
	}
	res, err := s.pipe.ApplyDelta(log)
	if err != nil {
		return nil, err
	}
	m := &Mapping{sys: s, res: res}
	s.publish(m)
	return m, nil
}

// publish makes m the current snapshot, then builds its serving tables
// while the caller still holds s.mu: the next Apply cannot touch the
// registry describe reads until this epoch is complete. Storing first
// makes the epoch visible without waiting for the build; a reader that
// loads it inside that window waits on the snapshot's build instead.
func (s *System) publish(m *Mapping) {
	s.cur.Store(m)
	m.tables()
}

// Current returns the most recently published mapping snapshot, or nil
// before the first MapInterconnections. Snapshots are immutable; a
// concurrent Apply publishes a new one rather than mutating this one.
func (s *System) Current() *Mapping { return s.cur.Load() }

// Mapping is the outcome of one CFS run.
type Mapping struct {
	sys *System
	res *cfs.Result

	// The serving tables are built exactly once per snapshot: at
	// publish (MapInterconnections, Apply) or before MergeMappings
	// returns. Every accessor reads them through tables(), so a reader
	// that loads a snapshot before its build finishes waits on the same
	// Once and never sees a partial table.
	once sync.Once
	tab  tables
}

// tables is a snapshot's query-serving state, derived once from res so
// the request hot path never re-describes an interface: the describe()
// formatting, provenance dedup and JSON marshaling all happen at
// publish, not per request.
type tables struct {
	// index maps an interface address to its position in the listing
	// order: resolved first, then ascending address.
	index map[netaddr.IP]int
	// infos[i] is the described record at listing position i; blobs[i]
	// is its JSON rendering. Both are shared, immutable, and live
	// exactly as long as the snapshot.
	infos []InterfaceInfo
	blobs [][]byte
	// summary is the snapshot digest, pre-computed so /v1/snapshot
	// never re-walks the router census per query.
	summary SnapshotSummary
	// pairs maps a normalized AS pair to its indices into res.Links,
	// in ascending link order.
	pairs map[asPair][]int
}

// asPair is a normalized (lo <= hi) AS pair, the interconnection
// index key.
type asPair struct{ lo, hi world.ASN }

func pairKey(a, b world.ASN) asPair {
	if a > b {
		a, b = b, a
	}
	return asPair{a, b}
}

// Result exposes the raw CFS result for advanced consumers.
func (m *Mapping) Result() *cfs.Result { return m.res }

// Epoch is the snapshot's version number: 0 for the initial
// convergence, incremented by every Apply.
func (m *Mapping) Epoch() int { return m.res.Epoch }

// InterfaceInfo is the human-readable inference for one interface.
type InterfaceInfo struct {
	IP        string
	Owner     string // "AS64500 (Some Network)"
	Resolved  bool
	Facility  string // facility name when resolved
	City      string // metro when resolved or city-constrained
	Candidate []string
	Remote    bool // member reaches its IXP through a reseller
	Heuristic bool // placed by a §4.3/§4.4 heuristic, not set intersection
	// Evidence lists the constraints behind the inference when the
	// System was built with Explain.
	Evidence []string
}

// Lookup reports the inference for one interface address, read from
// the snapshot's table. Returned records share their slices with the
// snapshot — treat them as read-only.
//
//cfslint:hotpath
func (m *Mapping) Lookup(ip string) (InterfaceInfo, bool) {
	addr, err := netaddr.ParseIP(ip)
	if err != nil {
		return InterfaceInfo{}, false
	}
	t := m.tables()
	i, ok := t.index[addr]
	if !ok {
		return InterfaceInfo{}, false
	}
	return t.infos[i], true
}

// interfaceOrder returns the snapshot's canonical listing order —
// resolved first, then ascending address — as a pre-sorted slice. The
// (ip, resolved) pairs are captured up front so the comparator never
// does map lookups (two per comparison adds up over n·log n compares
// on the internet-scale profile).
func interfaceOrder(interfaces map[netaddr.IP]*cfs.InterfaceResult) []netaddr.IP {
	type sortKey struct {
		ip       netaddr.IP
		resolved bool
	}
	keys := make([]sortKey, 0, len(interfaces))
	for ip, ir := range interfaces {
		keys = append(keys, sortKey{ip, ir.Resolved})
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].resolved != keys[j].resolved {
			return keys[i].resolved
		}
		return keys[i].ip < keys[j].ip
	})
	out := make([]netaddr.IP, len(keys))
	for i, k := range keys {
		out[i] = k.ip
	}
	return out
}

// Interfaces lists every inference, resolved first, in address order.
func (m *Mapping) Interfaces() []InterfaceInfo {
	infos := m.tables().infos
	out := make([]InterfaceInfo, len(infos))
	copy(out, infos)
	return out
}

// tables returns the snapshot's serving tables, building them on the
// first call. Publish makes that call, so readers of a published
// snapshot find them built or wait for the build in progress.
func (m *Mapping) tables() *tables {
	m.once.Do(m.build)
	return &m.tab
}

// Materialize makes sure the snapshot's serving tables are built.
//
// Deprecated: tables are built at publish; workers is ignored.
func (m *Mapping) Materialize(workers int) { m.tables() }

// build renders the serving tables in one serial pass: every
// interface's described record and JSON blob in listing order, the
// digest, and the AS-pair index.
func (m *Mapping) build() {
	order := interfaceOrder(m.res.Interfaces)
	t := tables{
		index: make(map[netaddr.IP]int, len(order)),
		infos: make([]InterfaceInfo, len(order)),
		blobs: make([][]byte, len(order)),
		pairs: make(map[asPair][]int),
	}
	for i, ip := range order {
		t.index[ip] = i
		t.infos[i] = m.describe(m.res.Interfaces[ip])
		t.blobs[i], _ = json.Marshal(&t.infos[i])
	}
	t.summary = m.computeSummary()
	for i, l := range m.res.Links {
		far := m.farASOf(l)
		if l.NearAS == 0 || far == 0 || far == l.NearAS {
			continue
		}
		key := pairKey(l.NearAS, far)
		t.pairs[key] = append(t.pairs[key], i)
	}
	m.tab = t
}

// InterfaceJSON returns the pre-rendered JSON record (the InterfaceInfo
// shape) for one interface address. The returned bytes are shared and
// immutable.
//
//cfslint:hotpath
func (m *Mapping) InterfaceJSON(ip string) ([]byte, bool) {
	addr, err := netaddr.ParseIP(ip)
	if err != nil {
		return nil, false
	}
	t := m.tables()
	i, ok := t.index[addr]
	if !ok {
		return nil, false
	}
	return t.blobs[i], true
}

// EachInterfaceJSON calls yield with every interface's pre-rendered
// JSON record in the snapshot's listing order (resolved first, then
// ascending address) until yield returns false. The bytes are shared
// and immutable; the daemon's stream endpoint writes them verbatim.
//
//cfslint:hotpath
func (m *Mapping) EachInterfaceJSON(yield func(rec []byte) bool) {
	for _, b := range m.tables().blobs {
		if !yield(b) {
			return
		}
	}
}

func (m *Mapping) describe(ir *cfs.InterfaceResult) InterfaceInfo {
	env := m.sys.Env
	info := InterfaceInfo{
		IP:        ir.IP.String(),
		Resolved:  ir.Resolved,
		Remote:    ir.RemoteMember,
		Heuristic: ir.ViaFarEnd || ir.ViaProximity,
	}
	if ir.Owner != 0 {
		info.Owner = fmt.Sprintf("%v (%s)", ir.Owner, env.DB.ASName(ir.Owner))
	}
	for _, f := range ir.Candidates {
		if rec, ok := env.DB.Facilities[f]; ok {
			info.Candidate = append(info.Candidate, rec.Name)
		}
	}
	if ir.Resolved {
		if rec, ok := env.DB.Facilities[ir.Facility]; ok {
			info.Facility = rec.Name
		}
		if c, ok := env.DB.MetroClusterOf(ir.Facility); ok {
			info.City = env.DB.ClusterName(c)
		}
	} else if ir.CityConstrain {
		info.City = env.DB.ClusterName(ir.CityCluster)
	}
	if m.res.Provenance != nil {
		// Deduplicate: constraints reapply every iteration.
		seen := make(map[string]bool)
		for _, ev := range m.res.Provenance[ir.IP] {
			if !seen[ev] {
				seen[ev] = true
				info.Evidence = append(info.Evidence, ev)
			}
		}
	}
	return info
}

// Interconnection is one classified peering link between two ASes, in
// the JSON shape the query API serves.
type Interconnection struct {
	// NearIP is the near-end peering interface; FarIP is the far
	// interface (private links) or the far member's IXP port (public
	// links), empty when the far side was never observed.
	NearIP string `json:"near_ip"`
	FarIP  string `json:"far_ip,omitempty"`
	NearAS int    `json:"near_as"`
	FarAS  int    `json:"far_as"`
	// Type is the engineering approach: public-local, public-remote,
	// cross-connect, tethering or private-unknown.
	Type string `json:"type"`
	// IXP names the exchange crossed by a public link.
	IXP string `json:"ixp,omitempty"`
	// Facility and City locate the link where its near end resolved.
	Facility string `json:"facility,omitempty"`
	City     string `json:"city,omitempty"`
	Resolved bool   `json:"resolved"`
}

// Interconnections lists every classified link between the two ASes
// (order-insensitive), in the snapshot's deterministic link order. The
// paper's §8 query — "which interconnections does this AS pair have,
// and where are they established" — served from the epoch's immutable
// snapshot.
func (m *Mapping) Interconnections(a, b int) []Interconnection {
	idx := m.tables().pairs[pairKey(world.ASN(a), world.ASN(b))]
	out := make([]Interconnection, 0, len(idx))
	for _, i := range idx {
		out = append(out, m.describeLink(m.res.Links[i]))
	}
	return out
}

// ASPairs returns the number of distinct AS pairs with at least one
// classified interconnection in this snapshot.
func (m *Mapping) ASPairs() int {
	return len(m.tables().pairs)
}

// farASOf is the far-end AS of a link. For a public link that is the
// owner of the replying IXP port, resolved through the snapshot's own
// interface inferences (the same rule the resilience analyzer applies).
func (m *Mapping) farASOf(l *cfs.Adjacency) world.ASN {
	if !l.Public {
		return l.FarAS
	}
	if ir := m.res.Interfaces[l.FarPort]; ir != nil {
		return ir.Owner
	}
	return 0
}

// describeLink renders one adjacency in the query-API shape.
func (m *Mapping) describeLink(l *cfs.Adjacency) Interconnection {
	env := m.sys.Env
	out := Interconnection{
		NearIP: l.Near.String(),
		NearAS: int(l.NearAS),
		FarAS:  int(m.farASOf(l)),
		Type:   l.Type.String(),
	}
	if l.Public {
		if l.FarPort != 0 {
			out.FarIP = l.FarPort.String()
		}
		if rec, ok := env.DB.IXPs[l.IXP]; ok {
			out.IXP = rec.Name
		}
	} else if l.Far != 0 {
		out.FarIP = l.Far.String()
	}
	if ir := m.res.Interfaces[l.Near]; ir != nil && ir.Resolved {
		out.Resolved = true
		if rec, ok := env.DB.Facilities[ir.Facility]; ok {
			out.Facility = rec.Name
		}
		if c, ok := env.DB.MetroClusterOf(ir.Facility); ok {
			out.City = env.DB.ClusterName(c)
		}
	}
	return out
}

// ValidationSummary condenses the §6 validation of a run.
type ValidationSummary struct {
	Overall       validation.Count
	BySource      map[string]validation.Count
	CityLevel     validation.Count
	RemotePeering validation.Count
}

// Validate scores the mapping against the paper's four ground-truth
// sources (direct feedback, BGP communities, DNS records, IXP websites).
func (m *Mapping) Validate() ValidationSummary {
	rep := m.sys.Env.Validator().Validate(m.res)
	out := ValidationSummary{
		Overall:       rep.Overall(),
		BySource:      make(map[string]validation.Count),
		CityLevel:     rep.CityLevel,
		RemotePeering: rep.RemotePeering,
	}
	for cell, c := range rep.Cells {
		got := out.BySource[cell.Source.String()]
		got.Correct += c.Correct
		got.Total += c.Total
		out.BySource[cell.Source.String()] = got
	}
	return out
}

// Summary renders a short report: coverage, convergence, router roles.
func (m *Mapping) Summary() string {
	res := m.res
	census := res.Census()
	t := stats.NewTable("Constrained Facility Search — run summary", "metric", "value")
	t.AddRow("peering interfaces observed", fmt.Sprint(len(res.Interfaces)))
	t.AddRow("resolved to a single facility", fmt.Sprint(res.Resolved()))
	t.AddRow("resolved fraction", stats.Pct(res.ResolvedFraction()))
	t.AddRow("CFS iterations", fmt.Sprint(len(res.History)))
	t.AddRow("routers observed", fmt.Sprint(census.Routers))
	t.AddRow("multi-role routers", fmt.Sprint(census.MultiRole))
	t.AddRow("multi-IXP routers", fmt.Sprint(census.MultiIXP))
	t.AddRow("far-end placements (§4.3)", fmt.Sprint(res.FarEndInferences))
	t.AddRow("proximity placements (§4.4)", fmt.Sprint(res.ProximityInferences))
	return t.Render()
}

// MergeMappings combines several runs into one incremental map (§8 of
// the paper): candidate facility sets intersect across runs, so a later
// campaign can collapse interfaces an earlier one left ambiguous. All
// mappings must come from the same System.
func MergeMappings(mappings ...*Mapping) *Mapping {
	if len(mappings) == 0 {
		return nil
	}
	results := make([]*cfs.Result, 0, len(mappings))
	for _, m := range mappings {
		results = append(results, m.res)
	}
	m := &Mapping{sys: mappings[0].sys, res: cfs.Merge(results...)}
	m.tables()
	return m
}

// SnapshotSummary is the JSON-shaped digest of one snapshot: the epoch
// stamp plus coverage and convergence statistics. It is the "summary"
// block of WriteJSON and the body of the daemon's /v1/snapshot.
type SnapshotSummary struct {
	// Epoch identifies which versioned snapshot this summary (and any
	// dump carrying it) describes — without it, tooling replaying a
	// delta log cannot tell which epoch a JSON dump belongs to.
	Epoch               int     `json:"epoch"`
	Interfaces          int     `json:"interfaces"`
	Resolved            int     `json:"resolved"`
	ResolvedFraction    float64 `json:"resolved_fraction"`
	Iterations          int     `json:"iterations"`
	Routers             int     `json:"routers"`
	MultiRoleRouters    int     `json:"multi_role_routers"`
	MultiIXPRouters     int     `json:"multi_ixp_routers"`
	FarEndPlacements    int     `json:"far_end_placements"`
	ProximityPlacements int     `json:"proximity_placements"`
}

// Summarize returns the snapshot's pre-computed JSON-shaped digest.
func (m *Mapping) Summarize() SnapshotSummary { return m.tables().summary }

func (m *Mapping) computeSummary() SnapshotSummary {
	census := m.res.Census()
	return SnapshotSummary{
		Epoch:               m.res.Epoch,
		Interfaces:          len(m.res.Interfaces),
		Resolved:            m.res.Resolved(),
		ResolvedFraction:    m.res.ResolvedFraction(),
		Iterations:          len(m.res.History),
		Routers:             census.Routers,
		MultiRoleRouters:    census.MultiRole,
		MultiIXPRouters:     census.MultiIXP,
		FarEndPlacements:    m.res.FarEndInferences,
		ProximityPlacements: m.res.ProximityInferences,
	}
}

// WriteJSON emits the mapping as machine-readable JSON: a summary
// (epoch first, so dumps from different epochs are distinguishable)
// plus one record per interface (resolved first). Downstream tooling
// can consume this instead of the text tables.
func (m *Mapping) WriteJSON(w io.Writer) error {
	doc := struct {
		Summary    SnapshotSummary `json:"summary"`
		Interfaces []InterfaceInfo `json:"interfaces"`
	}{Summary: m.Summarize(), Interfaces: m.Interfaces()}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
