package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"

	"facilitymap"
)

// route is a read route of the query API.
type route uint8

const (
	rInterface route = iota // GET /v1/interface/{ip}
	rIxn                    // GET /v1/interconnections?a=&b=
	rSnapshot               // GET /v1/snapshot
	rBatch                  // POST /v1/interfaces:batch
)

var routeNames = [...]string{"interface", "interconnections", "snapshot", "batch"}

// Read mix, in per mille. Single-record GETs split 70/20/10 over
// interface, interconnections and snapshot; batch POSTs (64 addresses)
// are about 5% of requests when the workload sends them.
const (
	mixBatch     = 50   // of all requests
	mixInterface = 700  // of single-record GETs
	mixIxn       = 200  // of single-record GETs
	absentShare  = 0.10 // share of looked-up addresses absent from the snapshot
	batchSize    = 64
	absentPool   = 16384
	batchPool    = 2048
)

// keySpace is one world's request keys: interface addresses with a
// skewed (Zipf) popularity over the snapshot, a pool of addresses the
// snapshot does not contain, AS pairs with interconnections, and
// pre-rendered batch bodies. Together the distinct keys exceed the
// daemon's 4096-entry epoch cache, so hit ratio and full drops matter.
type keySpace struct {
	addrs    []string // present addresses in popularity order, then absent ones
	nPresent int
	pairs    [][2]int
	batches  [][]byte
	batchIPs [][]int32 // indexes into addrs
	paths    [][]string
}

func newKeySpace(m *facilitymap.Mapping, seed int64) *keySpace {
	rng := rand.New(rand.NewPCG(uint64(seed), 0x6b657973))
	ks := &keySpace{}
	present := make(map[string]bool)
	for _, info := range m.Interfaces() {
		ks.addrs = append(ks.addrs, info.IP)
		present[info.IP] = true
	}
	rng.Shuffle(len(ks.addrs), func(i, j int) { ks.addrs[i], ks.addrs[j] = ks.addrs[j], ks.addrs[i] })
	ks.nPresent = len(ks.addrs)
	for len(ks.addrs) < ks.nPresent+absentPool {
		// 198.18.0.0/15 is reserved for benchmarking and never assigned
		// by the world generator; the membership test makes sure.
		v := rng.Uint32N(1 << 17)
		ip := fmt.Sprintf("198.%d.%d.%d", 18+v>>16, (v>>8)&0xff, v&0xff)
		if !present[ip] {
			present[ip] = true
			ks.addrs = append(ks.addrs, ip)
		}
	}
	seen := make(map[[2]int]bool)
	for _, l := range m.Result().Links {
		a, b := int(l.NearAS), int(l.FarAS)
		if a <= 0 || b <= 0 || a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if !seen[[2]int{a, b}] {
			seen[[2]int{a, b}] = true
			ks.pairs = append(ks.pairs, [2]int{a, b})
		}
	}
	sort.Slice(ks.pairs, func(i, j int) bool {
		if ks.pairs[i][0] != ks.pairs[j][0] {
			return ks.pairs[i][0] < ks.pairs[j][0]
		}
		return ks.pairs[i][1] < ks.pairs[j][1]
	})
	z := ks.zipf(rng)
	for i := 0; i < batchPool; i++ {
		idx := make([]int32, batchSize)
		ips := make([]string, batchSize)
		for j := range idx {
			idx[j] = ks.addr(rng, z)
			ips[j] = ks.addrs[idx[j]]
		}
		body, _ := json.Marshal(ips)
		ks.batches = append(ks.batches, body)
		ks.batchIPs = append(ks.batchIPs, idx)
	}
	ks.paths = make([][]string, 3)
	for _, a := range ks.addrs {
		ks.paths[rInterface] = append(ks.paths[rInterface], "/v1/interface/"+a)
	}
	for _, p := range ks.pairs {
		ks.paths[rIxn] = append(ks.paths[rIxn], fmt.Sprintf("/v1/interconnections?a=%d&b=%d", p[0], p[1]))
	}
	ks.paths[rSnapshot] = []string{"/v1/snapshot"}
	return ks
}

func (ks *keySpace) zipf(rng *rand.Rand) *rand.Zipf {
	return rand.NewZipf(rng, 1.1, 1, uint64(ks.nPresent-1))
}

// addr draws one looked-up address: absent with probability
// absentShare, otherwise Zipf over the present ones.
func (ks *keySpace) addr(rng *rand.Rand, z *rand.Zipf) int32 {
	if rng.Float64() < absentShare {
		return int32(ks.nPresent + rng.IntN(len(ks.addrs)-ks.nPresent))
	}
	return int32(z.Uint64())
}

// req is one request of the read mix.
type req struct {
	route route
	key   int32
}

// keyStream draws one client's request sequence.
type keyStream struct {
	ks      *keySpace
	rng     *rand.Rand
	z       *rand.Zipf
	batches bool
}

func (ks *keySpace) stream(seed int64, client int, batches bool) *keyStream {
	rng := rand.New(rand.NewPCG(uint64(seed), uint64(client)+1))
	return &keyStream{ks: ks, rng: rng, z: ks.zipf(rng), batches: batches}
}

func (s *keyStream) next() req {
	if s.batches && s.rng.IntN(1000) < mixBatch {
		return req{rBatch, int32(s.rng.IntN(len(s.ks.batches)))}
	}
	n := s.rng.IntN(1000)
	switch {
	case n < mixInterface:
		return req{rInterface, s.ks.addr(s.rng, s.z)}
	case n < mixInterface+mixIxn && len(s.ks.pairs) > 0:
		return req{rIxn, int32(s.rng.IntN(len(s.ks.pairs)))}
	default:
		return req{rSnapshot, 0}
	}
}
