package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Spans of one operation share Op.
type span struct {
	ID       int64  `json:"id"`
	Parent   int64  `json:"parent"` // 0 = root
	Op       int64  `json:"op"`
	Workload string `json:"workload"`
	Phase    string `json:"phase"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// counter is a count taken at a span boundary (Stats deltas, pager
// counters, bytes).
type counter struct {
	Phase string  `json:"phase"`
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so call sites stay unconditional; sites that would
// need extra clock reads guard on tr != nil themselves.
type tracer struct {
	workload string
	origin   time.Time

	mu     sync.Mutex
	nextID int64
	nextOp int64
	spans  []span
	counts []counter
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now(), spans: make([]span, 0, 1<<16)}
}

// id reserves a span id, so children can name their parent before the
// parent's end is known.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// op reserves an operation id for spans that belong to no write (write
// spans use 1 + the arrival index, reads and reps count down from -1).
func (t *tracer) op() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextOp--
	return t.nextOp
}

// put records a finished span under a reserved id (0 reserves one).
func (t *tracer) put(id, parent, op int64, phase, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		t.nextID++
		id = t.nextID
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Workload: t.workload, Phase: phase, Name: name,
		StartNS: start.Sub(t.origin).Nanoseconds(), EndNS: end.Sub(t.origin).Nanoseconds(),
	})
}

func (t *tracer) count(phase, name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts = append(t.counts, counter{Phase: phase, Name: name, Value: v})
}

// durations returns the lengths of the spans of one name in a phase,
// ascending.
func (t *tracer) durations(phase, name string) sample {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out sample
	for _, s := range t.spans {
		if s.Phase == phase && s.Name == name {
			out = append(out, s.EndNS-s.StartNS)
		}
	}
	return out.sorted()
}

// nameTotals sums one span name within one phase.
type nameTotals struct {
	Phase   string  `json:"phase"`
	Name    string  `json:"name"`
	Spans   int     `json:"spans"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the total minus the part of each span its children
	// cover: the time spent at this boundary and not below it.
	SelfMS float64 `json:"self_ms"`
}

// selfTimes computes per-(phase, name) totals and self time.
func (t *tracer) selfTimes() []nameTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int64][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	type key struct{ phase, name string }
	acc := make(map[key]*nameTotals)
	for _, s := range t.spans {
		k := key{s.Phase, s.Name}
		a := acc[k]
		if a == nil {
			a = &nameTotals{Phase: s.Phase, Name: s.Name}
			acc[k] = a
		}
		a.Spans++
		a.TotalMS += ms(float64(s.EndNS - s.StartNS))
		a.SelfMS += ms(float64(s.EndNS - s.StartNS - covered(s, children[s.ID])))
	}
	out := make([]nameTotals, 0, len(acc))
	for _, a := range acc {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var sum int64
	at := parent.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, at), min(k.EndNS, parent.EndNS)
		if hi > lo {
			sum += hi - lo
			at = hi
		}
	}
	return sum
}

// write stores the trace as one JSON document.
func (t *tracer) write(path string) error {
	totals := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string       `json:"workload"`
		Self     []nameTotals `json:"self_time"`
		Counts   []counter    `json:"counts"`
		Spans    []span       `json:"spans"`
	}{t.workload, totals, t.counts, t.spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
