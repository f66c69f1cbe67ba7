package cfs

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"facilitymap/internal/netaddr"
	"facilitymap/internal/world"
)

// refPickTargets is pickTargets as it was before the round tables: a
// walk over every origin AS with per-AS footprint and IXP lookups. Kept
// as the differential reference for roundPlan.pickTargets.
func refPickTargets(st *state, ip netaddr.IP, a world.ASN, fa []world.FacilityID, cand facset) []world.ASN {
	fs := st.p.fs
	faSet := fs.ofAS(st.p.db, a)
	candN := cand.count()
	queried := st.queriedIXPs[ip]
	used := st.usedTargets[ip]
	type scored struct {
		asn     world.ASN
		overlap int
		subset  bool
		atQuery bool
	}
	var cands []scored
	for _, rec := range st.allASNs {
		if rec == a || used[rec] {
			continue
		}
		ftSet := fs.ofAS(st.p.db, rec)
		if ftSet.count() == 0 {
			continue
		}
		subset := ftSet.count() < len(fa) && subsetOf(ftSet, faSet)
		overlap := overlapCount(ftSet, cand)
		if overlap == 0 || overlap == candN {
			continue
		}
		atQuery := false
		for _, ix := range st.p.db.IXPsOfAS(rec) {
			if queried[ix] {
				atQuery = true
				break
			}
		}
		cands = append(cands, scored{rec, overlap, subset, atQuery})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].subset != cands[j].subset {
			return cands[i].subset
		}
		if cands[i].atQuery != cands[j].atQuery {
			return !cands[i].atQuery
		}
		if cands[i].overlap != cands[j].overlap {
			return cands[i].overlap < cands[j].overlap
		}
		return cands[i].asn < cands[j].asn
	})
	n := st.p.cfg.TargetsPerInterface
	if n > len(cands) {
		n = len(cands)
	}
	out := make([]world.ASN, 0, n)
	for _, c := range cands[:n] {
		out = append(out, c.asn)
	}
	return out
}

// refTargetAddress is targetAddress as a linear scan of the pool, the
// differential reference for the round's address index.
func refTargetAddress(st *state, asn world.ASN) (netaddr.IP, bool) {
	for _, ip := range st.pool {
		if o, ok := st.ownerOf(ip); ok && o == asn {
			if _, isIXP := st.p.db.IXPByIP(ip); !isIXP {
				return ip, true
			}
		}
	}
	prefixes := st.p.ipasn.PrefixesOf(asn)
	if len(prefixes) == 0 {
		return 0, false
	}
	return prefixes[0].Addr + 1, true
}

// TestRoundPlanMatchesReference checks every pick and every target
// address of every targeted round of DefaultConfig runs against the
// reference scans, at the moment the round makes it. The full corpora
// give every queried AS a pool address before its round starts, so one
// run starts from a twentieth of the corpus: there, follow-up paths
// give ASes their first pool address mid-round, which only an index
// that keeps scanning the growing pool answers correctly.
func TestRoundPlanMatchesReference(t *testing.T) {
	type run struct {
		name  string
		cfg   world.Config
		share int // use 1/share of the initial corpus
	}
	var runs []run
	for _, seed := range []int64{1, 2, 3} {
		c := world.Small()
		c.Seed = seed
		runs = append(runs, run{fmt.Sprintf("small seed %d", seed), c, 1})
	}
	medium := world.Medium()
	medium.Seed = 42
	runs = append(runs, run{"medium seed 42", medium, 1}, run{"small seed 1, 1/20 corpus", world.Small(), 20})
	late := 0 // answers found in the pool past where their round started it
	for _, r := range runs {
		s := buildStack(t, r.cfg)
		p := mustNew(t, DefaultConfig(), s.db, s.ipasn, s.svc, s.det, s.prober)
		picks, answers := 0, 0
		startLen := make(map[*roundPlan]int) // pool length when the round's first pick ran
		p.hooks = &planHooks{
			picked: func(rp *roundPlan, ip netaddr.IP, owner world.ASN, fa []world.FacilityID, cand facset, got []world.ASN) {
				picks++
				if _, seen := startLen[rp]; !seen {
					startLen[rp] = len(rp.st.pool)
				}
				if want := refPickTargets(rp.st, ip, owner, fa, cand); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: targets for %v = %v, reference %v", r.name, ip, got, want)
				}
			},
			addressed: func(rp *roundPlan, asn world.ASN, got netaddr.IP, ok bool) {
				answers++
				want, wantOK := refTargetAddress(rp.st, asn)
				if got != want || ok != wantOK {
					t.Fatalf("%s: address of %v = %v/%v, reference %v/%v", r.name, asn, got, ok, want, wantOK)
				}
				for i, ip := range rp.st.pool {
					if ip == got && i >= startLen[rp] {
						late++
					}
				}
			},
		}
		corpus := s.initialCorpus()
		res := p.Run(corpus[:len(corpus)/r.share])
		rounds := 0
		for _, h := range res.History {
			if h.FollowUps > 0 {
				rounds++
			}
		}
		t.Logf("%s: %d rounds, %d picks, %d addresses", r.name, rounds, picks, answers)
		if rounds < 2 || picks == 0 || answers == 0 {
			t.Fatalf("%s: coverage too thin (rounds %d, picks %d, addresses %d)", r.name, rounds, picks, answers)
		}
	}
	if late == 0 {
		t.Fatal("no address was answered from pool growth inside its round: the resuming scan went unchecked")
	}
	t.Logf("%d addresses answered from pool growth inside their round", late)
}
