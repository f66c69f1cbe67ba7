package alias

import (
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"facilitymap/internal/netaddr"
	"facilitymap/internal/world"
)

func resolveWorld(t *testing.T, seed int64) (*world.World, *Sets) {
	t.Helper()
	w := world.Generate(world.Small())
	p := NewProber(w, seed)
	var ips []netaddr.IP
	for _, ifc := range w.Interfaces {
		ips = append(ips, ifc.IP)
	}
	return w, Resolve(p, ips)
}

// TestNoFalsePositives: no alias set may span two ground-truth routers.
// MIDAR's design goal is "very few false positives" (§4.1); in the
// simulation the probability is negligible.
func TestNoFalsePositives(t *testing.T) {
	w, sets := resolveWorld(t, 3)
	for _, set := range sets.All() {
		var owner world.RouterID = -1
		for _, ip := range set {
			r := w.RouterOfIP(ip)
			if r == nil {
				t.Fatalf("unknown ip %v in alias set", ip)
			}
			if owner == -1 {
				owner = r.ID
			} else if owner != r.ID {
				t.Fatalf("alias set %v spans routers %d and %d", set, owner, r.ID)
			}
		}
	}
}

// TestSharedCounterRoutersResolve: multi-interface routers with shared
// counters must collapse to one set.
func TestSharedCounterRoutersResolve(t *testing.T) {
	w, sets := resolveWorld(t, 3)
	resolved, total := 0, 0
	for _, r := range w.Routers {
		if r.IPID != world.IPIDSharedCounter || len(r.Interfaces) < 2 {
			continue
		}
		total++
		id := sets.SetID(w.Interfaces[r.Interfaces[0]].IP)
		same := true
		for _, i := range r.Interfaces[1:] {
			if sets.SetID(w.Interfaces[i].IP) != id {
				same = false
			}
		}
		if same {
			resolved++
		}
	}
	if total == 0 {
		t.Skip("no shared-counter multi-interface routers")
	}
	if resolved*10 < total*9 {
		t.Errorf("only %d/%d shared-counter routers fully resolved", resolved, total)
	}
}

// TestDefeatedBehaviors: random/constant/unresponsive routers must stay
// as singletons (false negatives, like Google's routers in the paper).
func TestDefeatedBehaviors(t *testing.T) {
	w, sets := resolveWorld(t, 3)
	for _, r := range w.Routers {
		if r.IPID == world.IPIDSharedCounter || len(r.Interfaces) < 2 {
			continue
		}
		for _, i := range r.Interfaces {
			ip := w.Interfaces[i].IP
			if others := sets.Aliases(ip); len(others) != 0 {
				t.Fatalf("router %d (%v) interface %v resolved aliases %v",
					r.ID, r.IPID, ip, others)
			}
		}
	}
}

func TestAllInputsCovered(t *testing.T) {
	w, sets := resolveWorld(t, 3)
	for _, ifc := range w.Interfaces {
		if sets.SetID(ifc.IP) < 0 {
			t.Fatalf("input %v missing from output partition", ifc.IP)
		}
	}
	if sets.SetID(netaddr.MustParseIP("203.0.113.1")) != -1 {
		t.Error("foreign IP should have no set")
	}
	if sets.Aliases(netaddr.MustParseIP("203.0.113.1")) != nil {
		t.Error("foreign IP should have no aliases")
	}
	if sets.NonTrivial() == 0 {
		t.Error("expected some non-trivial alias sets")
	}
}

// TestPartitionProperty: Resolve must produce a partition — every input
// in exactly one set — for arbitrary subsets of interfaces.
func TestPartitionProperty(t *testing.T) {
	w := world.Generate(world.Small())
	all := w.Interfaces
	f := func(seed int64, mask uint16) bool {
		p := NewProber(w, seed)
		var ips []netaddr.IP
		for i, ifc := range all {
			if (uint16(i)^mask)%7 == 0 {
				ips = append(ips, ifc.IP)
				ips = append(ips, ifc.IP) // duplicates must be tolerated
			}
		}
		sets := Resolve(p, ips)
		seen := make(map[netaddr.IP]int)
		for _, set := range sets.All() {
			for _, ip := range set {
				seen[ip]++
			}
		}
		for _, ip := range ips {
			if seen[ip] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateVelocity(t *testing.T) {
	// A clean 1000/s counter.
	var s []sample
	for i := 0; i < 5; i++ {
		s = append(s, sample{t: float64(i) * 0.005, id: uint16(i * 5)})
	}
	v, ok := estimateVelocity(s)
	if !ok || v < 500 || v > 2000 {
		t.Errorf("velocity = %v,%v want ~1000", v, ok)
	}
	// Constant counter: unusable.
	for i := range s {
		s[i].id = 42
	}
	if _, ok := estimateVelocity(s); ok {
		t.Error("constant series should be unusable")
	}
	// Random-looking jump: unusable.
	s[2].id = 40000
	if _, ok := estimateVelocity(s); ok {
		t.Error("wild series should be unusable")
	}
	if _, ok := estimateVelocity(s[:1]); ok {
		t.Error("single sample should be unusable")
	}
}

func TestCounterWraparound(t *testing.T) {
	// Force a counter close to 2^16 and confirm resolution still works
	// across the wrap (deltas are mod-2^16).
	w := world.Generate(world.Small())
	var target *world.Router
	for _, r := range w.Routers {
		if r.IPID == world.IPIDSharedCounter && len(r.Interfaces) >= 2 {
			target = r
			break
		}
	}
	if target == nil {
		t.Skip("no shared-counter router")
	}
	p := NewProber(w, 9)
	p.counter(target.ID).base = 65530 // will wrap within a few probes
	var ips []netaddr.IP
	for _, i := range target.Interfaces {
		ips = append(ips, w.Interfaces[i].IP)
	}
	sets := Resolve(p, ips)
	if len(sets.All()) != 1 {
		t.Errorf("wraparound broke resolution: %d sets for one router", len(sets.All()))
	}
}

func TestProbeAccounting(t *testing.T) {
	w := world.Generate(world.Small())
	p := NewProber(w, 1)
	before := p.Probes
	p.Probe(w.Interfaces[0].IP)
	p.Probe(netaddr.MustParseIP("203.0.113.9"))
	if p.Probes != before+2 {
		t.Errorf("probe counter = %d, want %d", p.Probes, before+2)
	}
	if p.Clock() <= 0 {
		t.Error("clock did not advance")
	}
}

// refResolve is the IP-keyed Resolve the probe handles replaced: every
// sample goes through Probe (one world lookup per probe) and the
// union-find is keyed by address. It is kept as the differential
// reference for the handle path.
func refResolve(p *Prober, ips []netaddr.IP) *Sets {
	uniq := make(map[netaddr.IP]bool, len(ips))
	for _, ip := range ips {
		uniq[ip] = true
	}
	var targets []netaddr.IP
	for ip := range uniq {
		targets = append(targets, ip)
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i] < targets[j] })

	type candidate struct {
		ip  netaddr.IP
		vel float64
	}
	var cands []candidate
	for _, ip := range targets {
		var series []sample
		ok := true
		for i := 0; i < estimationProbes; i++ {
			id, responded := p.Probe(ip)
			if !responded {
				ok = false
				break
			}
			series = append(series, sample{p.Clock(), id})
		}
		if !ok {
			continue
		}
		vel, usable := estimateVelocity(series)
		if !usable {
			continue
		}
		cands = append(cands, candidate{ip, vel})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].vel != cands[j].vel {
			return cands[i].vel < cands[j].vel
		}
		return cands[i].ip < cands[j].ip
	})
	parent := make(map[netaddr.IP]netaddr.IP, len(cands))
	var find func(netaddr.IP) netaddr.IP
	find = func(x netaddr.IP) netaddr.IP {
		if parent[x] == x {
			return x
		}
		parent[x] = find(parent[x])
		return parent[x]
	}
	for _, c := range cands {
		parent[c.ip] = c.ip
	}
	mbt := func(a, b netaddr.IP, vel float64) bool {
		var merged []sample
		for i := 0; i < mbtProbes; i++ {
			ip := a
			if i%2 == 1 {
				ip = b
			}
			id, ok := p.Probe(ip)
			if !ok {
				return false
			}
			merged = append(merged, sample{p.Clock(), id})
		}
		for i := 1; i < len(merged); i++ {
			dt := merged[i].t - merged[i-1].t
			delta := float64(uint16(merged[i].id - merged[i-1].id))
			if delta > vel*dt*3+16 {
				return false
			}
		}
		return true
	}
	type edge struct {
		a, b netaddr.IP
		vel  float64
	}
	var passed []edge
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			if !velocityCompatible(cands[i].vel, cands[j].vel) {
				break
			}
			v := (cands[i].vel + cands[j].vel) / 2
			if mbt(cands[i].ip, cands[j].ip, v) {
				passed = append(passed, edge{cands[i].ip, cands[j].ip, v})
			}
		}
	}
	for _, e := range passed {
		ra, rb := find(e.a), find(e.b)
		if ra == rb {
			continue
		}
		if mbt(e.a, e.b, e.vel) {
			parent[rb] = ra
		}
	}
	s := &Sets{byIP: make(map[netaddr.IP]int, len(targets))}
	groups := make(map[netaddr.IP][]netaddr.IP)
	for _, c := range cands {
		root := find(c.ip)
		groups[root] = append(groups[root], c.ip)
	}
	var roots []netaddr.IP
	for r := range groups {
		roots = append(roots, r)
	}
	sort.Slice(roots, func(i, j int) bool { return roots[i] < roots[j] })
	for _, r := range roots {
		set := groups[r]
		sort.Slice(set, func(i, j int) bool { return set[i] < set[j] })
		id := len(s.sets)
		s.sets = append(s.sets, set)
		for _, ip := range set {
			s.byIP[ip] = id
		}
	}
	for _, ip := range targets {
		if _, done := s.byIP[ip]; !done {
			id := len(s.sets)
			s.sets = append(s.sets, []netaddr.IP{ip})
			s.byIP[ip] = id
		}
	}
	return s
}

// TestResolveMatchesReference drives Resolve and refResolve over twin
// probers through three calls over a growing pool (counter state and
// the RNG stream carry over between calls) and one call after
// ResetStream. After every call the sets, the probe ledger, the clock,
// every router's counter state and the next probe's answer must agree.
func TestResolveMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  world.Config
	}{{"small", world.Small()}, {"medium", world.Medium()}} {
		t.Run(tc.name, func(t *testing.T) {
			w := world.Generate(tc.cfg)
			got, want := NewProber(w, 5), NewProber(w, 5)
			// Discovery order, as the CFS pool grows it: a strided walk
			// so each step adds addresses of routers seen before.
			var order []netaddr.IP
			for s := 0; s < 3; s++ {
				for i := s; i < len(w.Interfaces); i += 3 {
					order = append(order, w.Interfaces[i].IP)
				}
			}
			order = append(order, netaddr.MustParseIP("203.0.113.7")) // on no interface
			var shared netaddr.IP
			for _, r := range w.Routers {
				if r.IPID == world.IPIDSharedCounter && len(r.Interfaces) >= 2 {
					shared = w.Interfaces[r.Interfaces[0]].IP
					break
				}
			}
			step := func(label string, pool []netaddr.IP) {
				t.Helper()
				gs, ws := Resolve(got, pool), refResolve(want, pool)
				if !reflect.DeepEqual(gs, ws) {
					t.Fatalf("%s: sets differ (%d vs %d sets, %d vs %d non-trivial)",
						label, len(gs.All()), len(ws.All()), gs.NonTrivial(), ws.NonTrivial())
				}
				if ws.NonTrivial() == 0 {
					t.Fatalf("%s: no multi-address set: the comparison would not reach union-find order", label)
				}
				if got.Probes != want.Probes || got.Clock() != want.Clock() {
					t.Fatalf("%s: probes/clock %d/%v, reference %d/%v",
						label, got.Probes, got.Clock(), want.Probes, want.Clock())
				}
				if len(got.state) != len(want.state) {
					t.Fatalf("%s: %d counter states, reference %d", label, len(got.state), len(want.state))
				}
				for r, cs := range want.state {
					if g := got.state[r]; g == nil || *g != *cs {
						t.Fatalf("%s: router %d counter %+v, reference %+v", label, r, g, cs)
					}
				}
				gv, gok := got.Probe(shared)
				wv, wok := want.Probe(shared)
				if gv != wv || gok != wok {
					t.Fatalf("%s: next probe %d/%v, reference %d/%v", label, gv, gok, wv, wok)
				}
			}
			n := len(order)
			step("first third", order[:n/3])
			step("two thirds", order[:2*n/3])
			step("whole pool", order)
			got.ResetStream()
			want.ResetStream()
			step("after ResetStream", order[:2*n/3])
		})
	}
}
