package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/telemetry"
)

// span is one closed interval on the collector's timebase (nanoseconds).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// collector is a telemetry.Sink that keeps span events in memory. The
// benchmark's own spans and the ones the program already emits (estimate,
// rebind, iss, gate) land in the same collector through one
// SpanScope, so they share a timebase and parent links.
type collector struct {
	mu    sync.Mutex
	open  map[uint64]span
	spans []span
}

func newCollector() *collector { return &collector{open: map[uint64]span{}} }

// Emit implements telemetry.Sink.
func (c *collector) Emit(e telemetry.Event) {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch e.Kind {
	case telemetry.KindSpanBegin:
		c.open[e.Span] = span{ID: e.Span, Parent: e.Parent, Name: e.Name, Detail: e.Component, Start: int64(e.Time)}
	case telemetry.KindSpanEnd:
		s, ok := c.open[e.Span]
		if !ok {
			return
		}
		delete(c.open, e.Span)
		s.End = int64(e.Time)
		c.spans = append(c.spans, s)
	}
}

// Close implements telemetry.Sink.
func (c *collector) Close() error { return nil }

// take returns the closed spans and empties the collector.
func (c *collector) take() []span {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.spans
	c.spans = nil
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	var clipped [][2]int64
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b > a {
			clipped = append(clipped, [2]int64{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i][0] < clipped[j][0] })
	var total, curA, curB int64
	for i, iv := range clipped {
		if i == 0 || iv[0] > curB {
			total += curB - curA
			curA, curB = iv[0], iv[1]
			continue
		}
		curB = max(curB, iv[1])
	}
	return total + curB - curA
}

// selfTimes returns each span's duration minus the part of its interval
// that its direct children cover. Overlapping children are counted once.
func selfTimes(spans []span) map[uint64]int64 {
	kids := map[uint64][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(kids[s.ID], s.Start, s.End)
	}
	return out
}

// layerOf maps a span name to the layer its self time is charged to. The
// bench.* spans are the benchmark's own, around the calls into the
// program; the rest are emitted by the program.
var layerOf = map[string]string{
	"bench.compile":  "coest.compile",
	"bench.estimate": "core",
	"estimate":       "core",
	"rebind":         "core",
	"gate":           "gate",
	"iss":            "iss",
}

// layerSelf sums self time per layer, in nanoseconds. Spans with no
// layer (bench.cell) are skipped.
func layerSelf(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := map[string]int64{}
	for _, s := range spans {
		if l, ok := layerOf[s.Name]; ok {
			out[l] += self[s.ID]
		}
	}
	return out
}

// totalDur sums the durations of the spans named name.
func totalDur(spans []span, name string) int64 {
	var t int64
	for _, s := range spans {
		if s.Name == name {
			t += s.dur()
		}
	}
	return t
}

// spanLog keeps the spans of a traced run for writing out at its end,
// up to a cap that bounds memory.
type spanLog struct {
	max     int
	spans   []span
	dropped int
}

func (l *spanLog) add(ss []span) {
	room := l.max - len(l.spans)
	if room < len(ss) {
		l.dropped += len(ss) - max(room, 0)
		ss = ss[:max(room, 0)]
	}
	l.spans = append(l.spans, ss...)
}

// write stores the spans as JSON lines at path.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
