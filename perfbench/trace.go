package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// span is one timed call across a layer boundary. Spans of one op share
// Op; Parent indexes the span that caused this one (-1 for the op's
// root). Times are offsets from the tracer's start.
type span struct {
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths pay one nil check per call.
// It is used from one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)} }

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// begin opens a span and returns its index for end; -1 when t is nil.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Op: op, Parent: parent, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t != nil && i >= 0 {
		t.spans[i].End = t.now()
	}
}

// add records a span whose times were taken elsewhere.
func (t *tracer) add(s span) int {
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// selfTime is a span's duration minus the part of its interval that its
// children cover; overlapping children count once.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(children))
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return parent.dur() - covered
}

// selfTimes returns every span's self time, indexed like t.spans.
func (t *tracer) selfTimes() []time.Duration {
	kids := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		out[i] = selfTime(s, kids[i])
	}
	return out
}

// selfByName returns the self times of every span with the given name.
func (t *tracer) selfByName(name string) []time.Duration {
	self := t.selfTimes()
	var out []time.Duration
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, self[i])
		}
	}
	return out
}

// durByName returns the durations of every span with the given name.
func (t *tracer) durByName(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// layer is the module a span name belongs to: the text before the
// first dot.
func layer(name string) string {
	l, _, _ := strings.Cut(name, ".")
	return l
}

// writeAndSummarize writes the spans as JSON lines to path and adds
// each layer's span count and self time to the report.
func (t *tracer) writeAndSummarize(rep *report, path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	self := t.selfTimes()
	type agg struct {
		n    int
		self time.Duration
	}
	byLayer := map[string]*agg{}
	var names []string
	for i, s := range t.spans {
		l := layer(s.Name)
		a := byLayer[l]
		if a == nil {
			a = &agg{}
			byLayer[l] = a
			names = append(names, l)
		}
		a.n++
		a.self += self[i]
	}
	sort.Strings(names)
	rep.logf("trace: %d spans written to %s", len(t.spans), path)
	for _, l := range names {
		a := byLayer[l]
		rep.logf("trace: layer %-10s %6d spans, self time %10.3f ms total, %8.4f ms per span",
			l, a.n, ms(a.self), ms(a.self)/float64(a.n))
	}
	return nil
}

// allocMeter reads the runtime's cumulative heap allocation counters.
type allocMeter struct{ s []metrics.Sample }

func newAllocMeter() *allocMeter {
	return &allocMeter{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
		{Name: "/gc/heap/allocs:bytes"},
	}}
}

// read returns heap objects (tiny ones included, as testing.AllocsPerRun
// counts them) and bytes allocated so far.
func (m *allocMeter) read() (objects, bytes uint64) {
	metrics.Read(m.s)
	return m.s[0].Value.Uint64() + m.s[1].Value.Uint64(), m.s[2].Value.Uint64()
}
