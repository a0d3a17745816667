package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Times are
// nanoseconds since the recorder's epoch; Parent is 0 for a root; Op
// groups the spans of one end-to-end operation.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. Safe for
// concurrent use.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// id reserves a span ID, so children can name their parent before the
// parent ends.
func (r *recorder) id() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next++
	return r.next
}

// at converts a wall time to recorder time.
func (r *recorder) at(t time.Time) int64 { return int64(t.Sub(r.epoch)) }

// add records a finished span under a reserved ID (0 reserves one).
func (r *recorder) add(id, parent, op int64, name, layer string, start, end time.Time) int64 {
	if id == 0 {
		id = r.id()
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Layer: layer,
		Start: r.at(start), End: r.at(end)})
	r.mu.Unlock()
	return id
}

// snapshot returns the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
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

// selfTimes sums, per layer, each span's duration minus the part of its
// interval covered by its children. Children may overlap one another
// (parallel tasks under one phase); the covered part is their union,
// clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Layer] += s.dur() - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// inside the parent's.
func covered(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = -1 << 62
	for _, v := range ivs {
		if v.a > end {
			total += v.b - v.a
			end = v.b
		} else if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return time.Duration(total)
}
