// Package serve is hotalloc's fixture; its base name matches the real
// internal/serve. Only the functions carrying //cfslint:hotpath are
// budgeted — the identical constructs in unmarked functions are free.
package serve

import "fmt"

type table struct {
	blobs map[string][]byte
}

func sink([]byte)   {}
func sinkAny(v any) {}
func sinkErr(error) {}

// Flagged: fmt allocates the string and boxes the operands.
//
//cfslint:hotpath
func hotSprintf(n int) string {
	return fmt.Sprintf("n=%d", n) // want `fmt.Sprintf on a hotpath`
}

// Flagged: a capacity-less slice grows by reallocating.
//
//cfslint:hotpath
func hotUnsizedAppend(parts [][]byte) []byte {
	b := []byte{}
	for _, p := range parts {
		b = append(b, p...) // want `append to a provably unsized slice on a hotpath`
	}
	return b
}

// Flagged: a slice declared without a value starts nil and grows.
//
//cfslint:hotpath
func hotNilSliceAppend(parts [][]byte) []byte {
	var b []byte
	for _, p := range parts {
		b = append(b, p...) // want `append to a provably unsized slice on a hotpath`
	}
	return b
}

// Clean: declared without a value, but sized before the first append.
//
//cfslint:hotpath
func hotNilThenSized(parts [][]byte) []byte {
	var b []byte
	b = make([]byte, 0, len(parts))
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// Clean: sized up front, the append chain writes in place.
//
//cfslint:hotpath
func hotSizedAppend(parts [][]byte) []byte {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	b := make([]byte, 0, n)
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// Clean: a parameter-rooted target is the caller's to size.
//
//cfslint:hotpath
func hotAppendToParam(b []byte, p []byte) []byte {
	return append(b, p...)
}

// Flagged: the concrete int boxes into the any parameter.
//
//cfslint:hotpath
func hotBoxing(n int) {
	sinkAny(n) // want `interface boxing on a hotpath`
}

// Clean: interface-to-interface is a copy, not a box.
//
//cfslint:hotpath
func hotInterfacePass(err error) {
	sinkErr(err)
}

// Flagged: the literal captures its enclosing local.
//
//cfslint:hotpath
func hotClosure(key string, fetch func(func() []byte) []byte) []byte {
	return fetch(func() []byte { // want `capturing closure on a hotpath \(captures "key"\)`
		return []byte(key)
	})
}

// Clean: a literal that only touches its own parameters allocates no
// closure header.
//
//cfslint:hotpath
func hotFreeClosure(fetch func(func(int) int) int) int {
	return fetch(func(v int) int { return v + 1 })
}

// Flagged: map allocation, literal and make forms.
//
//cfslint:hotpath
func hotMapAlloc(k string) map[string]int {
	m := map[string]int{k: 1} // want `map literal on a hotpath`
	_ = m
	return make(map[string]int) // want `make\(map\) on a hotpath`
}

// Clean: reading a prebuilt table is the sanctioned shape.
//
//cfslint:hotpath
func hotTableRead(t *table, k string) []byte {
	return t.blobs[k]
}

// Clean: an unmarked function pays no budget.
func coldEverything(n int, k string) {
	_ = fmt.Sprintf("n=%d", n)
	b := []byte{}
	b = append(b, 'x')
	sink(b)
	sinkAny(n)
	_ = map[string]int{k: 1}
}

// Suppressed: a justified swap-time allocation inside a marked
// function.
//
//cfslint:hotpath
func hotJustified(epochChanged bool, k string) map[string]int {
	if epochChanged {
		//cfslint:ignore hotalloc fixture's sanctioned swap-time rebuild, once per epoch
		return map[string]int{k: 1}
	}
	return nil
}
