package cfs

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"facilitymap/internal/netaddr"
	"facilitymap/internal/world"
)

// refSet is the retired representation — map[FacilityID]bool — kept
// here as the reference model the bitset implementation is checked
// against.
type refSet map[world.FacilityID]bool

func refOf(ids []world.FacilityID) refSet {
	if len(ids) == 0 {
		return nil
	}
	s := make(refSet, len(ids))
	for _, f := range ids {
		s[f] = true
	}
	return s
}

func refIntersect(a, b refSet) refSet {
	out := make(refSet)
	for f := range a {
		if b[f] {
			out[f] = true
		}
	}
	return out
}

func refSorted(s refSet) []world.FacilityID {
	out := make([]world.FacilityID, 0, len(s))
	for f := range s {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func equalIDs(a, b []world.FacilityID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// testIndex builds a facIndex over a contiguous universe of n
// facilities, mimicking what newFacsets derives from a registry.
func testIndex(n int) *facIndex {
	ids := make([]world.FacilityID, n)
	for i := range ids {
		ids[i] = world.FacilityID(i + 1)
	}
	return newFacIndex(ids)
}

// TestFacsetMatchesMapReference cross-checks the bitset facset against
// the retired map representation on 1000 random cases: construction,
// intersection (both the fresh and in-place forms), membership counts,
// and the sorted facility order appendIDs promises. Any divergence
// between the two representations is a correctness bug in the data
// layout, independent of what the CFS pipeline does with it.
func TestFacsetMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 1000; i++ {
		// Universe sizes straddle the one-word boundary (64) so multi-word
		// and partial-last-word paths are both exercised.
		n := 1 + rng.Intn(200)
		fx := testIndex(n)
		draw := func() []world.FacilityID {
			k := rng.Intn(n + 1)
			ids := make([]world.FacilityID, 0, k)
			for j := 0; j < k; j++ {
				ids = append(ids, world.FacilityID(1+rng.Intn(n)))
			}
			return ids
		}
		idsA, idsB := draw(), draw()
		a, b := fx.setOf(idsA), fx.setOf(idsB)
		ra, rb := refOf(idsA), refOf(idsB)

		// Construction: same size, same members, same sorted order.
		if a.count() != len(ra) {
			t.Fatalf("case %d: setOf count %d, reference %d", i, a.count(), len(ra))
		}
		if got, want := fx.appendIDs(a, nil), refSorted(ra); !equalIDs(got, want) {
			t.Fatalf("case %d: appendIDs %v, reference %v", i, got, want)
		}
		if (a == nil) != (ra == nil) {
			t.Fatalf("case %d: nil convention diverged (bitset nil=%v, ref nil=%v)",
				i, a == nil, ra == nil)
		}

		// Intersection, fresh form.
		inter := intersect(a, b)
		rInter := refIntersect(ra, rb)
		if got, want := fx.appendIDs(inter, nil), refSorted(rInter); !equalIDs(got, want) {
			t.Fatalf("case %d: intersect %v, reference %v", i, got, want)
		}
		if inter.count() != len(rInter) {
			t.Fatalf("case %d: intersect count %d, reference %d", i, inter.count(), len(rInter))
		}

		// Intersection, in-place form, must agree with the fresh form and
		// leave its argument untouched.
		ac := a.clone()
		if got := ac.intersectWith(b); got != len(rInter) {
			t.Fatalf("case %d: intersectWith returned %d, reference %d", i, got, len(rInter))
		}
		if !equalIDs(fx.appendIDs(ac, nil), fx.appendIDs(inter, nil)) {
			t.Fatalf("case %d: intersectWith result differs from intersect", i)
		}
		if !equalIDs(fx.appendIDs(b, nil), refSorted(rb)) {
			t.Fatalf("case %d: intersectWith mutated its argument", i)
		}

		// Overlap/subset helpers against the reference model.
		if got := overlapCount(a, b); got != len(rInter) {
			t.Fatalf("case %d: overlapCount %d, reference %d", i, got, len(rInter))
		}
		refSubset := true
		for f := range ra {
			if !rb[f] {
				refSubset = false
			}
		}
		if got := subsetOf(a, b); got != refSubset {
			t.Fatalf("case %d: subsetOf %v, reference %v", i, got, refSubset)
		}

		// Membership via has agrees element-wise.
		for id := world.FacilityID(1); id <= world.FacilityID(n); id++ {
			if a.has(fx.slots[id]) != ra[id] {
				t.Fatalf("case %d: has(%d)=%v, reference %v", i, id, a.has(fx.slots[id]), ra[id])
			}
		}
	}
}

// TestConstrainMonotonic: candidate sets only ever shrink, regardless of
// the constraint sequence — the invariant behind the monotone
// convergence curve of Figure 7.
func TestConstrainMonotonic(t *testing.T) {
	fx := testIndex(32)
	f := func(seqs [][]uint8) bool {
		st := &state{cand: make(map[netaddr.IP]facset)}
		ip := netaddr.MustParseIP("10.0.0.1")
		prevSize := -1
		for _, raw := range seqs {
			var ids []world.FacilityID
			for _, x := range raw {
				ids = append(ids, world.FacilityID(x%32)+1)
			}
			st.constrain(ip, fx.setOf(ids), "prop")
			cur := st.cand[ip]
			if cur == nil {
				// Only legal when every set so far was empty.
				if len(ids) > 0 {
					return false
				}
				continue
			}
			if prevSize >= 0 && cur.count() > prevSize {
				return false
			}
			if cur.count() == 0 {
				return false // never collapses to empty
			}
			prevSize = cur.count()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestIntersectProperties: intersect is commutative, idempotent and
// bounded by its inputs.
func TestIntersectProperties(t *testing.T) {
	fx := testIndex(64)
	f := func(rawA, rawB []uint8) bool {
		toIDs := func(raw []uint8) []world.FacilityID {
			ids := make([]world.FacilityID, 0, len(raw))
			for _, x := range raw {
				ids = append(ids, world.FacilityID(x%64)+1)
			}
			return ids
		}
		a, b := fx.setOf(toIDs(rawA)), fx.setOf(toIDs(rawB))
		ab := intersect(a, b)
		ba := intersect(b, a)
		if !equalIDs(fx.appendIDs(ab, nil), fx.appendIDs(ba, nil)) {
			return false
		}
		for _, f := range fx.appendIDs(ab, nil) {
			if !a.has(fx.slots[f]) || !b.has(fx.slots[f]) {
				return false
			}
		}
		// Idempotence: a ∩ a = a.
		if aa := intersect(a, a); !equalIDs(fx.appendIDs(aa, nil), fx.appendIDs(a, nil)) {
			return false
		}
		// Every common element is present.
		for _, f := range fx.appendIDs(a, nil) {
			if b.has(fx.slots[f]) && !ab.has(fx.slots[f]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestRunDeterministic: identical inputs produce identical inferences.
func TestRunDeterministic(t *testing.T) {
	s1 := buildStack(t, world.Small())
	cfg := DefaultConfig()
	cfg.MaxIterations = 12
	r1 := mustNew(t, cfg, s1.db, s1.ipasn, s1.svc, s1.det, s1.prober).Run(s1.initialCorpus())
	s2 := buildStack(t, world.Small())
	r2 := mustNew(t, cfg, s2.db, s2.ipasn, s2.svc, s2.det, s2.prober).Run(s2.initialCorpus())
	if len(r1.Interfaces) != len(r2.Interfaces) || r1.Resolved() != r2.Resolved() {
		t.Fatalf("non-deterministic run: %d/%d vs %d/%d",
			r1.Resolved(), len(r1.Interfaces), r2.Resolved(), len(r2.Interfaces))
	}
	for ip, a := range r1.Interfaces {
		b := r2.Interfaces[ip]
		if b == nil || a.Resolved != b.Resolved || a.Facility != b.Facility {
			t.Fatalf("interface %v diverged: %+v vs %+v", ip, a, b)
		}
	}
}

// TestDeterministic runs DefaultConfig twice per GOMAXPROCS setting
// (1, 2, 8) with one seed and demands every run be identical —
// scheduling must never leak into results.
func TestDeterministic(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	cfg := DefaultConfig()
	var ref *Result
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for run := 0; run < 2; run++ {
			res := freshRun(t, world.Small(), 23, cfg)
			if ref == nil {
				ref = res
				continue
			}
			requireEqualResults(t, fmt.Sprintf("GOMAXPROCS=%d run=%d", procs, run), ref, res)
		}
	}
}
