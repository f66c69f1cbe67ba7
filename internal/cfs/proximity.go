package cfs

import "facilitymap/internal/world"

// Proximity is the learned facility-proximity ranking of one IXP:
// counts of how often a resolved near-end facility exchanged traffic
// with each far-end facility (§4.4). IXP fabrics keep traffic local to
// an access or backhaul switch, so the most-traversed far-end facility
// for a given near-end facility is its fabric-proximate one.
type Proximity struct {
	counts map[world.IXPID]map[[2]world.FacilityID]int
}

// NewProximity builds an empty ranking.
func NewProximity() *Proximity {
	return &Proximity{counts: make(map[world.IXPID]map[[2]world.FacilityID]int)}
}

// Observe records one public peering crossing with both ends resolved.
func (px *Proximity) Observe(ix world.IXPID, near, far world.FacilityID) {
	m := px.counts[ix]
	if m == nil {
		m = make(map[[2]world.FacilityID]int)
		px.counts[ix] = m
	}
	m[[2]world.FacilityID{near, far}]++
}

// Unobserve retracts one crossing (used by leave-one-out validation).
func (px *Proximity) Unobserve(ix world.IXPID, near, far world.FacilityID) {
	if m := px.counts[ix]; m != nil {
		if m[[2]world.FacilityID{near, far}] > 0 {
			m[[2]world.FacilityID{near, far}]--
		}
	}
}

// Pick chooses the far-end facility for a crossing whose near end is
// known, among the given candidates. It requires a strict ranking
// winner; ties (facilities on the same backhaul, §4.4) yield ok=false.
func (px *Proximity) Pick(ix world.IXPID, near world.FacilityID, cands []world.FacilityID) (world.FacilityID, bool) {
	m := px.counts[ix]
	if m == nil || len(cands) == 0 {
		return 0, false
	}
	// No defensive copy-and-sort: the winner is the unique maximum count
	// and the tie check trips whenever the maximum recurs, so the answer
	// is the same for any candidate order.
	best, bestN, tie := world.FacilityID(0), 0, false
	for _, c := range cands {
		n := m[[2]world.FacilityID{near, c}]
		switch {
		case n > bestN:
			best, bestN, tie = c, n, false
		case n == bestN && n > 0:
			tie = true
		}
	}
	if bestN == 0 || tie {
		return 0, false
	}
	return best, true
}

// learnProximity builds the ranking from fully-resolved public
// crossings.
func (p *Pipeline) learnProximity(st *state, res *Result) *Proximity {
	px := NewProximity()
	for _, a := range st.adjOrder {
		if !a.Public {
			continue
		}
		near, far := res.Interfaces[a.Near], res.Interfaces[a.FarPort]
		if near != nil && far != nil && near.Resolved && far.Resolved {
			px.Observe(a.IXP, near.Facility, far.Facility)
		}
	}
	return px
}

// applyProximity runs the fallback far-end placement (§4.4): learn the
// proximity ranking from fully-resolved public crossings, then place
// far-end ports that still carry multiple candidate facilities.
// Placing one far port flips it to resolved, which later adjacencies
// sharing the port observe, so adjacency order is semantics. Like applyFarEnd it runs once, after
// the iteration loop reached its fixed point, on the assembled Result —
// outside any engine's dirty-set accounting.
func (p *Pipeline) applyProximity(st *state, res *Result) {
	px := p.learnProximity(st, res)
	for _, a := range st.adjOrder {
		if !a.Public {
			continue
		}
		near, far := res.Interfaces[a.Near], res.Interfaces[a.FarPort]
		if near == nil || far == nil || !near.Resolved || far.Resolved {
			continue
		}
		if len(far.Candidates) < 2 {
			continue
		}
		if f, ok := px.Pick(a.IXP, near.Facility, far.Candidates); ok {
			far.Resolved = true
			far.Facility = f
			far.Candidates = []world.FacilityID{f}
			far.ViaProximity = true
			res.ProximityInferences++
		}
	}
}
