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

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Times are offsets from the tracer's epoch.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"` // index of the parent span, -1 for none
	Req    int64         `json:"req,omitempty"`
	// Derived marks a span the benchmark attributes from the program's
	// own timestamps instead of timing it.
	Derived bool `json:"derived,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced phases run the same code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// now returns the current offset from the epoch.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span and returns its id; -1 on a nil tracer.
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a finished span, e.g. one derived from program timestamps.
func (t *tracer) add(s span) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// at converts a wall-clock instant to an epoch offset.
func (t *tracer) at(w time.Time) time.Duration { return w.Sub(t.epoch) }

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTime is one span name's totals.
type selfTime struct {
	name    string
	count   int
	total   time.Duration
	self    time.Duration
	derived bool
}

// selfTimes totals each span name's duration and self time: the span's
// duration minus the part of its interval its children cover. Open spans
// are skipped.
func selfTimes(spans []span) []selfTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*selfTime{}
	var order []string
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		st, ok := byName[s.Name]
		if !ok {
			st = &selfTime{name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		st.count++
		st.total += s.dur()
		st.self += s.dur() - covered(s, children[i])
		st.derived = st.derived || s.Derived
	}
	out := make([]selfTime, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	return out
}

// covered returns how much of parent's interval the union of the child
// intervals covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum time.Duration
	var cur iv
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			cur, open = v, true
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			sum += cur.hi - cur.lo
			cur = v
		}
	}
	if open {
		sum += cur.hi - cur.lo
	}
	return sum
}

// reportSelfTimes prints each span name's count, total and self time.
func (t *tracer) reportSelfTimes(r *report) {
	r.logf("self times (span duration minus child spans):")
	for _, st := range selfTimes(t.snapshot()) {
		label := ""
		if st.derived {
			label = "  derived from program timestamps"
		}
		r.logf("  %-40s n=%-7d total=%10.2f ms  self=%10.2f ms%s", st.name, st.count, ms(st.total), ms(st.self), label)
	}
}

// write stores the spans as JSON lines under dir.
func (t *tracer) write(dir, workload string, seed int64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
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
