package facilitymap

import (
	"encoding/json"
	"reflect"
	"sort"
	"sync"
	"testing"

	"facilitymap/internal/cfs"
	"facilitymap/internal/netaddr"
)

// TestMaterializeEquivalence pins the core materialization contract:
// the swap-time tables answer every accessor bit-for-bit like the lazy
// on-the-fly paths they replace.
func TestMaterializeEquivalence(t *testing.T) {
	sys := smallSystem(t)
	m := sys.MapInterconnections()

	// Capture the lazy answers before any table exists.
	if m.mat.Load() != nil {
		t.Fatal("snapshot materialized before anyone asked")
	}
	lazyInfos := m.Interfaces()
	if len(lazyInfos) == 0 {
		t.Fatal("no interfaces in the snapshot")
	}
	lazyLookups := make(map[string]InterfaceInfo, len(lazyInfos))
	for _, info := range lazyInfos {
		got, ok := m.Lookup(info.IP)
		if !ok {
			t.Fatalf("lazy Lookup missed %s", info.IP)
		}
		lazyLookups[info.IP] = got
	}
	lazySummary := m.Summarize()

	m.Materialize(3)
	if got := m.Summarize(); got != lazySummary {
		t.Fatalf("materialized digest %+v differs from lazy %+v", got, lazySummary)
	}
	if m.mat.Load() == nil {
		t.Fatal("Materialize left no table")
	}

	if got := m.Interfaces(); !reflect.DeepEqual(got, lazyInfos) {
		t.Fatal("materialized Interfaces() differs from the lazy listing")
	}
	for ip, want := range lazyLookups {
		got, ok := m.Lookup(ip)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("materialized Lookup(%s) = %+v ok=%v, want %+v", ip, got, ok, want)
		}
		rec, ok := m.InterfaceJSON(ip)
		if !ok {
			t.Fatalf("InterfaceJSON missed %s", ip)
		}
		var decoded InterfaceInfo
		if err := json.Unmarshal(rec, &decoded); err != nil {
			t.Fatalf("InterfaceJSON(%s): %v", ip, err)
		}
		if !reflect.DeepEqual(decoded, want) {
			t.Fatalf("InterfaceJSON(%s) decodes to %+v, want %+v", ip, decoded, want)
		}
	}

	// The dump iterator yields one record per interface in listing order
	// and honors an early stop.
	i := 0
	m.EachInterfaceJSON(func(rec []byte) bool {
		var decoded InterfaceInfo
		if err := json.Unmarshal(rec, &decoded); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if decoded.IP != lazyInfos[i].IP {
			t.Fatalf("record %d is %s, want %s", i, decoded.IP, lazyInfos[i].IP)
		}
		i++
		return true
	})
	if i != len(lazyInfos) {
		t.Fatalf("iterator yielded %d records, want %d", i, len(lazyInfos))
	}
	i = 0
	m.EachInterfaceJSON(func([]byte) bool { i++; return i < 2 })
	if i != 2 {
		t.Fatalf("early stop after %d records, want 2", i)
	}

	// Misses and garbage stay misses on the table path.
	if _, ok := m.InterfaceJSON("203.0.113.254"); ok {
		t.Fatal("InterfaceJSON resolved an unknown address")
	}
	if _, ok := m.InterfaceJSON("not-an-ip"); ok {
		t.Fatal("InterfaceJSON accepted an unparsable address")
	}
}

// TestMaterializeDeterministic: the rendered tables are byte-identical
// regardless of fold width — the fold is index-addressed, so output
// order never depends on goroutine scheduling.
func TestMaterializeDeterministic(t *testing.T) {
	collect := func(workers int) (blobs [][]byte, pairs int) {
		sys := smallSystem(t)
		m := sys.MapInterconnections()
		m.Materialize(workers)
		m.EachInterfaceJSON(func(rec []byte) bool {
			blobs = append(blobs, rec)
			return true
		})
		return blobs, m.ASPairs()
	}
	b1, p1 := collect(1)
	b7, p7 := collect(7)
	if p1 != p7 {
		t.Fatalf("AS-pair index size differs by fold width: %d vs %d", p1, p7)
	}
	if len(b1) != len(b7) {
		t.Fatalf("table sizes differ: %d vs %d", len(b1), len(b7))
	}
	for i := range b1 {
		if string(b1[i]) != string(b7[i]) {
			t.Fatalf("record %d differs between 1 and 7 workers:\n%s\n%s", i, b1[i], b7[i])
		}
	}
}

// TestMaterializeConcurrent: racing Materialize calls (any worker
// counts) agree on one table, and readers see either nil or the
// complete table — never a partial one.
func TestMaterializeConcurrent(t *testing.T) {
	sys := smallSystem(t)
	m := sys.MapInterconnections()
	want := m.Interfaces()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			m.Materialize(g % 4)
			if got, ok := m.Lookup(want[0].IP); !ok || !reflect.DeepEqual(got, want[0]) {
				t.Errorf("goroutine %d: post-materialize Lookup diverged", g)
			}
		}(g)
	}
	wg.Wait()
	if got := m.Interfaces(); !reflect.DeepEqual(got, want) {
		t.Fatal("concurrent materialization changed the listing")
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
