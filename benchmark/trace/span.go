// Package trace is the benchmark's outside view of the engine: a span
// recorder, counting wrappers for the public device interfaces
// (pagestore.Store, wal.Device, net.Listener/net.Conn), and micro-probes of
// single layers. Nothing here touches engine code: spans are recorded by
// the benchmark around calls into each layer's public functions, and the
// wrappers are handed to the engine through the interfaces it already takes.
package trace

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one timed interval: a benchmark operation (Parent = -1), a call
// into a layer made by the benchmark, or a device call made by the engine
// while that operation was in flight. Times are nanoseconds since the
// recorder was made. Spans of one operation share Op.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// LayerTime is what one span name cost over all operations of one kind.
type LayerTime struct {
	Count   int64
	TotalNS int64 // sum of span durations
	SelfNS  int64 // durations minus the part child spans cover
}

// Recorder keeps spans in memory. One driver goroutine opens and closes
// spans with Begin/End; wrappers on any goroutine attach device spans to
// whichever span the driver has open. A nil *Recorder records nothing.
type Recorder struct {
	epoch time.Time
	keep  int // spans kept for the trace file; all spans are aggregated

	mu     sync.Mutex
	op     []Span // spans of the operation in flight; op[0] is its root
	stack  []int32
	nextID int32
	opID   int32
	kept   []Span
	ops    int64
	agg    map[string]map[string]*LayerTime // op name → span name → time
	cur    atomic.Int32                     // innermost open driver span, -1 when idle
}

// NewRecorder makes a recorder that keeps the first keep spans for the
// trace file.
func NewRecorder(keep int) *Recorder {
	r := &Recorder{epoch: time.Now(), keep: keep, agg: map[string]map[string]*LayerTime{}}
	r.cur.Store(-1)
	return r
}

func (r *Recorder) now() int64 { return int64(time.Since(r.epoch)) }

// Begin opens a span under the driver's innermost open span; the outermost
// one is the operation. Driver goroutine only.
func (r *Recorder) Begin(name string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	} else {
		r.opID++
		r.op = r.op[:0]
	}
	id := r.nextID
	r.nextID++
	r.op = append(r.op, Span{Name: name, Start: r.now(), ID: id, Parent: parent, Op: r.opID})
	r.stack = append(r.stack, id)
	r.cur.Store(id)
	r.mu.Unlock()
}

// End closes the driver's innermost open span. Closing the operation folds
// its spans into the per-layer totals.
func (r *Recorder) End() {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	for i := len(r.op) - 1; i >= 0; i-- {
		if r.op[i].ID == id {
			r.op[i].End = end
			break
		}
	}
	if n := len(r.stack); n > 0 {
		r.cur.Store(r.stack[n-1])
		return
	}
	r.cur.Store(-1)
	r.fold()
}

// Child records a finished device span under whatever span the driver has
// open; with none open it is dropped (background work between operations
// is counted by the wrappers, not attributed). Any goroutine.
func (r *Recorder) Child(name string, start time.Time, d time.Duration) {
	if r == nil {
		return
	}
	parent := r.cur.Load()
	if parent < 0 {
		return
	}
	s := int64(start.Sub(r.epoch))
	r.mu.Lock()
	if len(r.stack) > 0 {
		id := r.nextID
		r.nextID++
		r.op = append(r.op, Span{Name: name, Start: s, End: s + int64(d), ID: id, Parent: parent, Op: r.opID})
	}
	r.mu.Unlock()
}

// fold computes each span's self time — its duration minus the part of it
// its children cover — and adds the operation to the totals. r.mu held.
func (r *Recorder) fold() {
	spans := r.op
	root := &spans[0]
	byName := r.agg[root.Name]
	if byName == nil {
		byName = map[string]*LayerTime{}
		r.agg[root.Name] = byName
	}
	children := map[int32][]int{}
	for i := range spans {
		if spans[i].Parent >= 0 {
			children[spans[i].Parent] = append(children[spans[i].Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		covered := int64(0)
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		edge := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		lt := byName[s.Name]
		if lt == nil {
			lt = &LayerTime{}
			byName[s.Name] = lt
		}
		lt.Count++
		lt.TotalNS += s.End - s.Start
		lt.SelfNS += s.End - s.Start - covered
	}
	r.ops++
	if len(r.kept)+len(spans) <= r.keep {
		r.kept = append(r.kept, spans...)
	}
}

// Layers returns, for operations named op, the time per span name.
func (r *Recorder) Layers(op string) map[string]LayerTime {
	out := map[string]LayerTime{}
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, lt := range r.agg[op] {
		out[name] = *lt
	}
	return out
}

// Sum adds up one span name over every kind of operation.
func (r *Recorder) Sum(name string) LayerTime {
	var out LayerTime
	if r == nil {
		return out
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, byName := range r.agg {
		if lt := byName[name]; lt != nil {
			out.Count += lt.Count
			out.TotalNS += lt.TotalNS
			out.SelfNS += lt.SelfNS
		}
	}
	return out
}

// WriteFile writes the kept spans and the per-layer totals as JSON.
func (r *Recorder) WriteFile(path, workload string) error {
	r.mu.Lock()
	doc := struct {
		Workload  string                           `json:"workload"`
		Ops       int64                            `json:"ops_traced"`
		SpansKept int                              `json:"spans_kept"`
		Layers    map[string]map[string]*LayerTime `json:"layers_by_op"`
		Spans     []Span                           `json:"spans"`
	}{workload, r.ops, len(r.kept), r.agg, r.kept}
	b, err := json.Marshal(doc)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
