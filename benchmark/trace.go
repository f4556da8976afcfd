package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval: a call the benchmark makes into a layer,
// or a root interval (a whole measured phase, one daemon job) the calls
// hang under. Times are nanoseconds since the tracer was created.
type span struct {
	Workload string `json:"workload"`
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Key      string `json:"key"` // run cell key, job id or stream id
}

// tracer keeps spans in memory until the workload ends. A nil *tracer
// is the untraced pass: every method is a no-op, so workloads call it
// unconditionally.
type tracer struct {
	workload string
	t0       time.Time

	mu    sync.Mutex
	next  int
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), next: 1}
}

// reserve sets aside n consecutive span ids and returns the first, so a
// root span's children can name their parent before the root ends.
func (t *tracer) reserve(n int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	first := t.next
	t.next += n
	return first
}

// add records one finished span. id 0 allocates a fresh id; a reserved
// id is passed through. It returns the span's id.
func (t *tracer) add(id, parent int, layer, name, key string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id == 0 {
		id = t.next
		t.next++
	}
	t.spans = append(t.spans, span{
		Workload: t.workload, ID: id, Parent: parent, Layer: layer, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(), Key: key,
	})
	return id
}

// snapshot returns the spans recorded so far, ordered by id.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

// writeFile writes the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its own interval that its children cover. Children
// may overlap one another (two workers under one phase) and may stick
// out of the parent (an asynchronous append that outlives its job);
// the covered part is the union of the children clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartNS < kids[b].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := k.StartNS, k.EndNS
			if lo < reach {
				lo = reach
			}
			if hi > s.EndNS {
				hi = s.EndNS
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.ID] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// selfSecondsByKind sums self time per "layer/name". For a root span
// that is the time none of its children account for: harness time for a
// measured phase, queueing for a daemon job.
func selfSecondsByKind(spans []span) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer+"/"+s.Name] += float64(self[s.ID]) / 1e9
	}
	return out
}

// spanSeconds returns the durations, in seconds, of the spans matching
// layer and name.
func spanSeconds(spans []span, layer, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return out
}
