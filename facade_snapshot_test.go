package facilitymap

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"facilitymap/internal/cfs"
	"facilitymap/internal/delta"
	"facilitymap/internal/netaddr"
)

// TestTablesMatchOracle pins the snapshot build against its oracle:
// every accessor answers exactly what describe, interfaceOrder,
// computeSummary and describeLink compute directly from the result,
// and two same-seed systems render byte-identical tables.
func TestTablesMatchOracle(t *testing.T) {
	sys := smallSystem(t)
	m := sys.MapInterconnections()
	if m.tab.index == nil {
		t.Fatal("MapInterconnections returned before building the tables")
	}

	order := interfaceOrder(m.res.Interfaces)
	if len(order) == 0 {
		t.Fatal("no interfaces in the snapshot")
	}
	want := make([]InterfaceInfo, len(order))
	for i, ip := range order {
		want[i] = m.describe(m.res.Interfaces[ip])
	}
	if got := m.Interfaces(); !reflect.DeepEqual(got, want) {
		t.Fatal("Interfaces() differs from the described listing")
	}
	for _, info := range want {
		got, ok := m.Lookup(info.IP)
		if !ok || !reflect.DeepEqual(got, info) {
			t.Fatalf("Lookup(%s) = %+v ok=%v, want %+v", info.IP, got, ok, info)
		}
		rec, ok := m.InterfaceJSON(info.IP)
		wantRec, _ := json.Marshal(&info)
		if !ok || !bytes.Equal(rec, wantRec) {
			t.Fatalf("InterfaceJSON(%s) = %s ok=%v, want %s", info.IP, rec, ok, wantRec)
		}
	}
	if got, want := m.Summarize(), m.computeSummary(); got != want {
		t.Fatalf("Summarize() = %+v, want %+v", got, want)
	}

	// The dump iterator yields every record in listing order and honors
	// an early stop.
	i := 0
	m.EachInterfaceJSON(func(rec []byte) bool {
		wantRec, _ := json.Marshal(&want[i])
		if !bytes.Equal(rec, wantRec) {
			t.Fatalf("record %d is %s, want %s", i, rec, wantRec)
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("iterator yielded %d records, want %d", i, len(want))
	}
	i = 0
	m.EachInterfaceJSON(func([]byte) bool { i++; return i < 2 })
	if i != 2 {
		t.Fatalf("early stop after %d records, want 2", i)
	}

	// The AS-pair index against a scan of the links in ascending order.
	oracle := make(map[asPair][]Interconnection)
	for _, l := range m.res.Links {
		far := m.farASOf(l)
		if l.NearAS == 0 || far == 0 || far == l.NearAS {
			continue
		}
		key := pairKey(l.NearAS, far)
		oracle[key] = append(oracle[key], m.describeLink(l))
	}
	if len(oracle) == 0 {
		t.Fatal("no link with two known ASes")
	}
	if m.ASPairs() != len(oracle) {
		t.Fatalf("ASPairs() = %d, want %d", m.ASPairs(), len(oracle))
	}
	for key, links := range oracle {
		if got := m.Interconnections(int(key.hi), int(key.lo)); !reflect.DeepEqual(got, links) {
			t.Fatalf("Interconnections(%v, %v) = %+v, want %+v", key.hi, key.lo, got, links)
		}
	}

	// Misses and garbage stay misses.
	if _, ok := m.Lookup("203.0.113.254"); ok {
		t.Fatal("Lookup resolved an unknown address")
	}
	if _, ok := m.InterfaceJSON("not-an-ip"); ok {
		t.Fatal("InterfaceJSON accepted an unparsable address")
	}
	if got := m.Interconnections(1, 2); len(got) != 0 {
		t.Fatalf("bogus pair returned %d interconnections", len(got))
	}

	// A second same-seed system renders the same bytes.
	m2 := smallSystem(t).MapInterconnections()
	if m2.ASPairs() != m.ASPairs() {
		t.Fatalf("same-seed AS-pair index sizes differ: %d vs %d", m.ASPairs(), m2.ASPairs())
	}
	if !reflect.DeepEqual(m.tab.blobs, m2.tab.blobs) {
		t.Fatal("two same-seed systems rendered different blob tables")
	}

	// MergeMappings builds its result's tables before returning.
	if merged := MergeMappings(m, m2); merged.tab.index == nil {
		t.Fatal("MergeMappings returned before building the tables")
	}
}

// queryKeys are the questions the snapshot tests put to every epoch:
// interface addresses (plus a miss and garbage) and AS pairs drawn from
// the epoch-0 snapshot.
type queryKeys struct {
	ips   []string
	pairs [][2]int
}

func sampleKeys(m *Mapping, nIPs, nPairs int) queryKeys {
	var k queryKeys
	infos := m.Interfaces()
	step := len(infos)/nIPs + 1
	for i := 0; i < len(infos); i += step {
		k.ips = append(k.ips, infos[i].IP)
	}
	k.ips = append(k.ips, "203.0.113.254", "not-an-ip")
	keys := make([]asPair, 0, len(m.tab.pairs))
	for key := range m.tab.pairs {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].lo != keys[j].lo {
			return keys[i].lo < keys[j].lo
		}
		return keys[i].hi < keys[j].hi
	})
	step = len(keys)/nPairs + 1
	for i := 0; i < len(keys); i += step {
		k.pairs = append(k.pairs, [2]int{int(keys[i].lo), int(keys[i].hi)})
	}
	return k
}

// answer renders key number i's answers from one snapshot: the lookup
// and blob of one address, the interconnections of one AS pair, the
// digest and the full dump, as bytes that compare exactly.
func answer(m *Mapping, k queryKeys, i int) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	ip := k.ips[i%len(k.ips)]
	info, ok := m.Lookup(ip)
	enc.Encode(struct {
		Info InterfaceInfo
		OK   bool
	}{info, ok})
	rec, ok := m.InterfaceJSON(ip)
	enc.Encode(struct {
		Rec json.RawMessage
		OK  bool
	}{rec, ok})
	pair := k.pairs[i%len(k.pairs)]
	enc.Encode(m.Interconnections(pair[0], pair[1]))
	enc.Encode(m.Summarize())
	m.EachInterfaceJSON(func(rec []byte) bool {
		buf.Write(rec)
		buf.WriteByte('\n')
		return true
	})
	return buf.Bytes()
}

// numKeys is how many distinct answers one snapshot is asked for.
func (k queryKeys) numKeys() int { return max(len(k.ips), len(k.pairs)) }

// epochAnswers renders every key's answer from one snapshot, plus the
// full listing and the WriteJSON dump.
func epochAnswers(t *testing.T, m *Mapping, k queryKeys) [][]byte {
	t.Helper()
	out := make([][]byte, 0, k.numKeys()+2)
	for i := 0; i < k.numKeys(); i++ {
		out = append(out, answer(m, k, i))
	}
	listing, _ := json.Marshal(m.Interfaces())
	var dump bytes.Buffer
	if err := m.WriteJSON(&dump); err != nil {
		t.Fatal(err)
	}
	return append(out, listing, dump.Bytes())
}

// fullChurn draws a churn log that holds every delta kind.
func fullChurn(t *testing.T, sys *System, n int, seed int64) []delta.Delta {
	t.Helper()
	log, _ := delta.Churn(sys.Env.W, n, seed)
	kinds := make(map[delta.Kind]bool)
	for _, d := range log {
		kinds[d.Kind] = true
	}
	for _, k := range []delta.Kind{
		delta.ASFacilityAdd, delta.ASFacilityRemove, delta.IXPFacilityAdd, delta.IXPFacilityRemove,
		delta.MemberAdd, delta.MemberRemove, delta.SessionUp, delta.SessionDown,
		delta.CrossConnectAdd, delta.CrossConnectRemove,
	} {
		if !kinds[k] {
			t.Fatalf("churn log of %d deltas has no %s", len(log), k)
		}
	}
	return log
}

// TestSnapshotSelfContained: a published snapshot keeps answering
// byte-identically after later epochs have applied every delta kind to
// the registry the System shares across epochs — including
// Interconnections, which renders names per call.
func TestSnapshotSelfContained(t *testing.T) {
	sys := smallSystem(t)
	m0 := sys.MapInterconnections()
	k := sampleKeys(m0, 40, 40)
	log := fullChurn(t, sys, 80, 3)

	snaps := []*Mapping{m0}
	want := [][][]byte{epochAnswers(t, m0, k)}
	for lo := 0; lo < len(log); lo += 16 {
		m, err := sys.Apply(log[lo:min(lo+16, len(log))])
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		snaps = append(snaps, m)
		want = append(want, epochAnswers(t, m, k))
	}
	for e, m := range snaps {
		got := epochAnswers(t, m, k)
		for i := range got {
			if !bytes.Equal(got[i], want[e][i]) {
				t.Fatalf("epoch %d answer %d changed after later deltas:\n%s\nwant\n%s", e, i, got[i], want[e][i])
			}
		}
	}
}

// observation is one reader's answer digest for one key, tagged with
// the epoch of the snapshot that produced it.
type observation struct {
	epoch, key int
	sum        uint64
}

func digest(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// TestSnapshotPublishRace races readers of Current() against a writer
// applying a full-vocabulary churn log. Each reader loads the snapshot
// once per query — possibly inside the publish window, before the
// build has finished — and every answer must equal the one the writer
// captured from that epoch's snapshot after publishing it: no reader
// may see a missing or partial table. Run under -race.
func TestSnapshotPublishRace(t *testing.T) {
	sys := smallSystem(t)
	m0 := sys.MapInterconnections()
	k := sampleKeys(m0, 16, 16)
	log := fullChurn(t, sys, 80, 9)

	want := map[int][]uint64{}
	capture := func(m *Mapping) {
		sums := make([]uint64, k.numKeys())
		for i := range sums {
			sums[i] = digest(answer(m, k, i))
		}
		want[m.Epoch()] = sums
	}
	capture(m0)

	const readers = 4
	var (
		stop atomic.Bool
		seen [readers]atomic.Int64 // last epoch each reader answered from
		obs  [readers][]observation
		wg   sync.WaitGroup
	)
	for r := 0; r < readers; r++ {
		seen[r].Store(-1)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; !stop.Load(); i++ {
				m := sys.Current()
				key := i % k.numKeys()
				obs[r] = append(obs[r], observation{m.Epoch(), key, digest(answer(m, k, key))})
				seen[r].Store(int64(m.Epoch()))
			}
		}(r)
	}

	// Each batch waits until every reader has answered from the epoch
	// before it, so readers overlap every publish.
	epoch := 0
	for lo := 0; lo < len(log); lo += 6 {
		for r := range seen {
			for seen[r].Load() < int64(epoch) {
				runtime.Gosched()
			}
		}
		m, err := sys.Apply(log[lo:min(lo+6, len(log))])
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("Apply: %v", err)
		}
		capture(m)
		epoch = m.Epoch()
	}
	stop.Store(true)
	wg.Wait()

	epochs := make(map[int]bool)
	for r := range obs {
		for _, o := range obs[r] {
			sums, ok := want[o.epoch]
			if !ok {
				t.Fatalf("reader %d answered from unpublished epoch %d", r, o.epoch)
			}
			if o.sum != sums[o.key] {
				t.Fatalf("reader %d: epoch %d key %d answered differently from its snapshot", r, o.epoch, o.key)
			}
			epochs[o.epoch] = true
		}
	}
	if len(epochs) < len(want)-1 {
		t.Fatalf("readers answered from %d of %d epochs", len(epochs), len(want))
	}
}

// ---- Interfaces() ordering benchmark -----------------------------------

// syntheticInterfaces builds an interface map at internet-profile scale
// without paying world generation: the sort cost depends only on the
// key distribution, not on how the inferences were produced.
func syntheticInterfaces(n int) map[netaddr.IP]*cfs.InterfaceResult {
	out := make(map[netaddr.IP]*cfs.InterfaceResult, n)
	ip := uint32(0x0a000000)
	for i := 0; i < n; i++ {
		// An LCG walk spreads keys across the space deterministically.
		ip = ip*1664525 + 1013904223
		out[netaddr.IP(ip)] = &cfs.InterfaceResult{
			IP:       netaddr.IP(ip),
			Resolved: i%3 != 0,
		}
	}
	return out
}

// oldInterfaceOrder is the pre-overhaul comparator — two map lookups
// per comparison — kept as the benchmark baseline for interfaceOrder.
func oldInterfaceOrder(interfaces map[netaddr.IP]*cfs.InterfaceResult) []netaddr.IP {
	ips := make([]netaddr.IP, 0, len(interfaces))
	for ip := range interfaces {
		ips = append(ips, ip)
	}
	sort.Slice(ips, func(i, j int) bool {
		a, b := interfaces[ips[i]], interfaces[ips[j]]
		if a.Resolved != b.Resolved {
			return a.Resolved
		}
		return ips[i] < ips[j]
	})
	return ips
}

func benchInterfaceOrder(b *testing.B, order func(map[netaddr.IP]*cfs.InterfaceResult) []netaddr.IP) {
	// ~the large profile's interface population.
	m := syntheticInterfaces(1 << 17)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := order(m); len(got) != len(m) {
			b.Fatalf("order dropped entries: %d of %d", len(got), len(m))
		}
	}
}

func BenchmarkInterfaceOrder(b *testing.B)    { benchInterfaceOrder(b, interfaceOrder) }
func BenchmarkInterfaceOrderOld(b *testing.B) { benchInterfaceOrder(b, oldInterfaceOrder) }

// TestInterfaceOrderMatchesOld pins that the precomputed-key sort is a
// pure optimization: both comparators produce the identical order.
func TestInterfaceOrderMatchesOld(t *testing.T) {
	m := syntheticInterfaces(4096)
	got, want := interfaceOrder(m), oldInterfaceOrder(m)
	if !reflect.DeepEqual(got, want) {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("order diverges at %d: %v vs %v", i, got[i], want[i])
			}
		}
		t.Fatal("orders differ in length")
	}
}
