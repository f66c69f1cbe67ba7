// Package serve deliberately violates the three flow-aware serving
// invariants — snapconsist, goleak and hotalloc — so the
// integration test can watch cfslint report each one, standalone and
// under go vet -vettool. The stubs are self-contained: badmod is its
// own module and must not import facilitymap.
package serve

import "fmt"

// Mapping is the snapshot stub.
type Mapping struct{ epoch int }

func (m *Mapping) Epoch() int     { return m.epoch }
func (m *Mapping) Render() []byte { return nil }

// System is the facade stub.
type System struct{ cur *Mapping }

func (s *System) Current() *Mapping { return s.cur }

type routeKey struct{ path string }

func use(*Mapping) {}

// DoubleLoad takes two snapshots in one request scope: an Apply
// landing between them skews the response (snapconsist).
func DoubleLoad(s *System) {
	m := s.Current()
	use(m)
	m2 := s.Current()
	use(m2)
}

// LeakyWorker spawns a goroutine with no termination edge: no context,
// no done channel, an unconditional loop (goleak).
func LeakyWorker(ch chan int) {
	go func() {
		for {
			use(nil)
			ch <- 1
		}
	}()
}

// HotFormat allocates through fmt.Sprintf on a marked hot path
// (hotalloc).
//
//cfslint:hotpath
func HotFormat(key routeKey) string {
	return fmt.Sprintf("hot:%s", key.path)
}
