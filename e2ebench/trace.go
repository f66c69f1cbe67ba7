package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing but still times: every measured call goes through
// the same begin/end pair in traced and untraced runs, so the
// difference between the two is the cost of recording alone.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

// span is one recorded interval. Spans of one request or one pipeline
// run share Trace; Parent is the ID of the span that caused it (0 for a
// root). Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Trace  string `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span.
type open struct {
	t      *tracer
	id     int64
	parent int64
	trace  string
	name   string
	start  time.Time
}

// begin starts a span. On a nil tracer it only notes the start time.
func (t *tracer) begin(trace string, parent int64, name string) open {
	o := open{t: t, parent: parent, trace: trace, name: name}
	if t != nil {
		o.id = t.ids.Add(1)
	}
	o.start = time.Now()
	return o
}

// end closes the span, records it when tracing, and returns its length.
func (o open) end() time.Duration {
	now := time.Now()
	if o.t != nil {
		o.t.mu.Lock()
		o.t.spans = append(o.t.spans, span{
			ID: o.id, Parent: o.parent, Trace: o.trace, Name: o.name,
			Start: int64(o.start.Sub(o.t.t0)), End: int64(now.Sub(o.t.t0)),
		})
		o.t.mu.Unlock()
	}
	return now.Sub(o.start)
}

// do runs f inside a span and returns the span's length.
func (t *tracer) do(trace string, parent int64, name string, f func()) time.Duration {
	o := t.begin(trace, parent, name)
	f()
	return o.end()
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanStat is the aggregate of every span with one name.
type spanStat struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration // Total minus the time covered by child spans
}

// selfTimes aggregates spans by name. A span's self time is its length
// minus the part of it its children cover; children are clipped to the
// parent's interval and overlapping children are merged, so a parent
// with concurrent children is never charged negative time.
func selfTimes(spans []span) []spanStat {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	agg := make(map[string]*spanStat)
	for _, s := range spans {
		st := agg[s.Name]
		if st == nil {
			st = &spanStat{Name: s.Name}
			agg[s.Name] = st
		}
		st.Count++
		st.Total += s.dur()
		st.Self += s.dur() - covered(s, children[s.ID])
	}
	out := make([]spanStat, 0, len(agg))
	for _, st := range agg {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered is the length of the union of the children's intervals
// inside the parent's.
func covered(p span, kids []span) time.Duration {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	first := true
	for _, x := range iv {
		if first || x[0] > curHi {
			if !first {
				total += curHi - curLo
			}
			curLo, curHi, first = x[0], x[1], false
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if !first {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// writeJSONL writes every span, one JSON object per line.
func (t *tracer) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range t.all() {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// reconcile fails when stages do not account for total within ±10%.
func reconcile(what string, total, stages time.Duration) error {
	if total <= 0 {
		return fmt.Errorf("reconcile %s: no traced total", what)
	}
	r := float64(stages) / float64(total)
	if r < 0.9 || r > 1.1 {
		return fmt.Errorf("reconcile %s: stages %v vs total %v (%.3f, want 0.9..1.1)", what, stages, total, r)
	}
	return nil
}

// root starts a request's root span; the request's trace ID is the
// span's own ID.
func (t *tracer) root(name string) open {
	o := t.begin("", 0, name)
	if t != nil {
		o.trace = strconv.FormatInt(o.id, 10)
	}
	return o
}
