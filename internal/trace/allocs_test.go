package trace

import (
	"testing"

	"facilitymap/internal/bgp"
	"facilitymap/internal/world"
)

// TestDisabledTracerAllocatesNothing pins "disabled observability is
// free" on the measurement calls: with no Instrument, event fields are
// never built, so Ping and FabricPing allocate nothing and a traceroute
// allocates only the hop slice of the Path it returns.
func TestDisabledTracerAllocatesNothing(t *testing.T) {
	// A private engine: probes advance the jitter sequence, which the
	// shared fixture's other tests depend on.
	w := world.Generate(world.Small())
	e := New(w, bgp.Compute(w), 7)
	f := &fixture{w: w, e: e}

	pair := samplePairs(f, 1)[0]
	if a := testing.AllocsPerRun(50, func() { e.Ping(pair.src, pair.dst, 3) }); a != 0 {
		t.Errorf("Ping allocates %v per call, want 0", a)
	}
	if _, ok := e.Ping(pair.src, pair.dst, 1); !ok {
		t.Fatal("fixture ping did not answer: the answered path goes unmeasured")
	}

	var member, other *world.Membership
	for _, m := range w.Memberships {
		if member == nil && !m.Remote {
			member = m
		} else if member != nil && m.IXP == member.IXP && m.AS != member.AS {
			other = m
			break
		}
	}
	if other == nil {
		t.Fatal("fixture has no two members on one exchange")
	}
	port := w.Interfaces[other.Port].IP
	if a := testing.AllocsPerRun(50, func() { e.FabricPing(member.Router, port, 3) }); a != 0 {
		t.Errorf("FabricPing allocates %v per call, want 0", a)
	}

	p := e.Traceroute(pair.src, pair.dst)
	if len(p.Hops) < 3 {
		t.Fatalf("fixture path has %d hops; want a multi-AS path", len(p.Hops))
	}
	// The Path's own cost: growing its hop slice one hop at a time.
	pathOnly := testing.AllocsPerRun(50, func() {
		var hops []Hop
		for range p.Hops {
			hops = append(hops, Hop{})
		}
		sinkHops = hops
	})
	if a := testing.AllocsPerRun(50, func() { e.Traceroute(pair.src, pair.dst) }); a != pathOnly {
		t.Errorf("Traceroute allocates %v per call, want %v (its %d-hop Path only)", a, pathOnly, len(p.Hops))
	}
}

// sinkHops keeps the reference hop slice on the heap, as a returned
// Path's is.
var sinkHops []Hop
