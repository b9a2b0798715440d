package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public function, recorded by the
// benchmark around the call. Spans of one request or operation share ID;
// Parent names the span that caused this one (0 for a root).
type span struct {
	Name   string
	ID     uint64 // operation ID shared by every span of one request
	Seq    uint64 // unique span number
	Parent uint64 // Seq of the causing span, 0 for a root
	Start  time.Time
	End    time.Time
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory for the whole run and writes them out at the
// end. The nil tracer records nothing, so untraced runs pay one nil check per
// call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	seq   uint64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin starts a span and returns its sequence number (0 on the nil tracer).
func (t *tracer) begin(name string, id, parent uint64) uint64 {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	t.seq++
	seq := t.seq
	t.spans = append(t.spans, span{Name: name, ID: id, Seq: seq, Parent: parent, Start: now})
	t.mu.Unlock()
	return seq
}

// end closes span seq.
func (t *tracer) end(seq uint64) {
	if t == nil || seq == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[seq-1].End = now
	t.mu.Unlock()
}

// add records an already-timed span (for intervals measured elsewhere, such
// as an HTTP request timed by the load generator).
func (t *tracer) add(name string, id, parent uint64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.seq++
	t.spans = append(t.spans, span{Name: name, ID: id, Seq: t.seq, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}

// snapshot returns a copy of the closed spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if !s.End.IsZero() {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span Seq, the span's duration minus the part of its
// interval covered by its children (overlapping children count once).
func selfTimes(spans []span) map[uint64]time.Duration {
	kids := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[uint64]time.Duration, len(spans))
	for _, s := range spans {
		out[s.Seq] = s.dur() - covered(s, kids[s.Seq])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped to
// the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]time.Time, 0, len(children))
	for _, c := range children {
		lo, hi := c.Start, c.End
		if lo.Before(parent.Start) {
			lo = parent.Start
		}
		if hi.After(parent.End) {
			hi = parent.End
		}
		if hi.After(lo) {
			iv = append(iv, [2]time.Time{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var curLo, curHi time.Time
	for i, x := range iv {
		if i == 0 || x[0].After(curHi) {
			if i > 0 {
				total += curHi.Sub(curLo)
			}
			curLo, curHi = x[0], x[1]
			continue
		}
		if x[1].After(curHi) {
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi.Sub(curLo)
	}
	return total
}

// byName collects the self times (from selfTimes) of every span with the
// given name, in milliseconds.
func byName(spans []span, name string, self map[uint64]time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(self[s.Seq].Nanoseconds())/1e6)
		}
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// the format the server's /debug/trace endpoint also writes.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	PID  int            `json:"pid"`
	TID  uint64         `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as a Chrome trace document; each operation ID
// becomes one track, so a request's spans line up on one row.
func (t *tracer) writeChrome(w io.Writer) error {
	spans := t.snapshot()
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  "lsbench",
			Ph:   "X",
			TS:   s.Start.Sub(t.t0).Microseconds(),
			Dur:  s.dur().Microseconds(),
			PID:  1,
			TID:  s.ID,
			Args: map[string]any{"op_id": fmt.Sprintf("%016x", s.ID), "seq": s.Seq, "parent": s.Parent},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
