package cfs

import (
	"fmt"

	"facilitymap/internal/netaddr"
	"facilitymap/internal/trace"
	"facilitymap/internal/world"
)

// SessionObservation is one row of a looking glass's BGP summary, as the
// researcher records it: the operator running the glass, the peer's
// address and the peer's ASN (§3.2: BGP-capable LGs "indicate the ASN
// and IP address of the peering router"). LocalIP is the LG router's own
// address on the shared medium when derivable, else zero.
type SessionObservation struct {
	LGAS    world.ASN
	LocalIP netaddr.IP
	PeerIP  netaddr.IP
	PeerAS  world.ASN
}

// Observations bundles everything a run can consume: traceroute paths
// plus looking-glass session listings. Both fold into the state before
// iteration 1, so every adjacency they create enters the worklist
// engine's dirty set on the first constraint pass.
type Observations struct {
	Paths    []trace.Path
	Sessions []SessionObservation
}

// P2PPartner returns the other usable host of a point-to-point /30 given
// one side, or zero when the address is a network/broadcast slot. This
// is the standard measurement-practice derivation of a BGP session's
// local address from the peer address.
func P2PPartner(ip netaddr.IP) netaddr.IP {
	switch ip % 4 {
	case 1:
		return ip + 1
	case 2:
		return ip - 1
	default:
		return 0
	}
}

// processSession folds one BGP-session listing into the adjacency state.
// Session listings are authoritative about ownership: the researcher
// knows which operator runs the glass, and the listing itself names the
// peer ASN — so both addresses get pinned owners that neither longest-
// prefix matching nor alias repair may override.
//
// Sessions fold in after path ingestion and before iteration 1: they
// write the pinned ownership map that constraint computation reads,
// and later pins overwrite earlier ones, so listing order is
// semantics.
func (st *state) processSession(s SessionObservation) int {
	added := 0
	st.pin(s.PeerIP, s.PeerAS)
	if ix, ok := st.p.db.IXPByIP(s.PeerIP); ok {
		// Public session: the peer address is the far port.
		st.addToPool(s.PeerIP)
		st.portOf[portKey{s.PeerAS, ix}] = s.PeerIP
		near := s.LocalIP
		if near != 0 {
			st.pin(near, s.LGAS)
			st.addToPool(near)
			key := adjKey{near, s.PeerIP}
			if _, dup := st.adjs[key]; !dup {
				a := &Adjacency{Near: near, NearAS: s.LGAS, Public: true, IXP: ix, FarPort: s.PeerIP}
				st.adjs[key] = a
				st.adjOrder = append(st.adjOrder, a)
				added++
			}
			return added
		}
		// Far side only: synthesise a far-port adjacency with no near.
		key := adjKey{0, s.PeerIP}
		if _, dup := st.adjs[key]; !dup {
			a := &Adjacency{Public: true, IXP: ix, FarPort: s.PeerIP, FarAS: s.PeerAS}
			st.adjs[key] = a
			st.adjOrder = append(st.adjOrder, a)
			added++
		}
		return added
	}
	// Private session: derive the local /30 side when not supplied.
	near := s.LocalIP
	if near == 0 {
		near = P2PPartner(s.PeerIP)
	}
	if near == 0 {
		return 0
	}
	st.pin(near, s.LGAS)
	st.addToPool(near)
	st.addToPool(s.PeerIP)
	key := adjKey{near, s.PeerIP}
	if _, dup := st.adjs[key]; !dup {
		a := &Adjacency{Near: near, NearAS: s.LGAS, Far: s.PeerIP, FarAS: s.PeerAS}
		st.adjs[key] = a
		st.adjOrder = append(st.adjOrder, a)
		added++
	}
	return added
}

// pin records an authoritative IP-to-ASN mapping.
func (st *state) pin(ip netaddr.IP, asn world.ASN) {
	if st.pinned == nil {
		st.pinned = make(map[netaddr.IP]world.ASN)
	}
	st.pinned[ip] = asn
	if st.prov != nil {
		st.prov[ip] = append(st.prov[ip], fmt.Sprintf("owner pinned to %v by LG session listing", asn))
	}
}

// RunObservations executes CFS over traceroute paths plus looking-glass
// session listings.
func (p *Pipeline) RunObservations(obs Observations) *Result {
	return p.run(obs)
}
