package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the program.
// Spans of one unit of work (a day, a batch) share an identifier; Parent is
// the span that caused this one (0 for a root).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Shared  string `json:"shared"`
	Start   int64  `json:"startNs"`
	End     int64  `json:"endNs"`
	Records int    `json:"records,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run pays only a nil check per call site.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span identifier, so that children recorded before their
// parent ends can name it.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// add records a finished span under a reserved id (0: reserve one now).
func (t *tracer) add(id, parent int64, name, layer, shared string, start, end time.Time, records int) {
	if t == nil {
		return
	}
	if id == 0 {
		id = t.id()
	}
	s := span{ID: id, Parent: parent, Name: name, Layer: layer, Shared: shared,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Records: records}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// writeJSONL writes every span, one JSON object per line, after a header
// line carrying the run metadata.
func (t *tracer) writeJSONL(path string, meta runMeta) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(meta); err != nil {
		f.Close()
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfRow aggregates the spans of one name: a layer's self time is a span's
// duration minus the part of it its children cover.
type selfRow struct {
	layer, name string
	count       int
	records     int
	total, self time.Duration
}

// selfTimes returns one row per (layer, name), ordered by self time.
func (t *tracer) selfTimes() []selfRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*selfRow)
	for _, s := range t.spans {
		key := s.Layer + "\x00" + s.Name
		r := rows[key]
		if r == nil {
			r = &selfRow{layer: s.Layer, name: s.Name}
			rows[key] = r
		}
		r.count++
		r.records += s.Records
		r.total += time.Duration(s.End - s.Start)
		r.self += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].layer+out[i].name < out[j].layer+out[j].name
	})
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var sum, end int64
	end = parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		sum += v.b - max(v.a, end)
		end = v.b
	}
	return time.Duration(sum)
}

// printSelfTimes writes the per-layer self-time table.
func printSelfTimes(w io.Writer, title string, rows []selfRow) {
	fmt.Fprintf(w, "# self times: %s\n", title)
	fmt.Fprintf(w, "# %-9s %-16s %8s %12s %12s %12s\n", "layer", "span", "count", "total_ms", "self_ms", "self_ns/rec")
	for _, r := range rows {
		perRec := "-"
		if r.records > 0 {
			perRec = fmt.Sprintf("%.1f", float64(r.self.Nanoseconds())/float64(r.records))
		}
		fmt.Fprintf(w, "# %-9s %-16s %8d %12.3f %12.3f %12s\n", r.layer, r.name, r.count,
			ms(r.total), ms(r.self), perRec)
	}
}
