package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans nest: parent is the index of the
// span that was open when this one began (-1 for a root). window is the
// 50 ms controller window the span belongs to (-1 during set-up).
//
// An aggregate span (count > 1) folds many short calls of one name
// under one parent — a switch tap per packet, a sketch update per onset
// — into their summed duration, so a traced run does not keep a span
// per packet. Its start is the first call's start.
type span struct {
	name   string
	parent int32
	window int32
	start  int64 // ns since the tracer's origin
	dur    int64 // ns
	count  int32
}

type aggKey struct {
	name   string
	parent int32
}

// tracer keeps spans in memory for the length of a traced pass. All
// calls come from the simulation goroutine, so it needs no locking.
type tracer struct {
	origin  time.Time
	spans   []span
	cur     int32
	window  int32
	windows int32 // windows begun so far, across rounds
	agg     map[aggKey]int32
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), cur: -1, window: -1, agg: make(map[aggKey]int32)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span under the current one and returns its index.
func (t *tracer) begin(name string) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: t.cur, window: t.window, start: t.now(), count: 1})
	t.cur = id
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	s := &t.spans[id]
	s.dur = t.now() - s.start
	t.cur = s.parent
}

// beginWindow opens the root span of controller window w.
func (t *tracer) beginWindow(w int32) int32 {
	t.window = w
	for k := range t.agg {
		delete(t.agg, k)
	}
	return t.begin("window")
}

// add folds one call of the named layer, which started at start (ns)
// and lasted dur ns, into the aggregate span under the current span.
func (t *tracer) add(name string, start, dur int64) {
	k := aggKey{name, t.cur}
	if id, ok := t.agg[k]; ok {
		t.spans[id].dur += dur
		t.spans[id].count++
		return
	}
	t.agg[k] = int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: t.cur, window: t.window, start: start, dur: dur, count: 1})
}

// selfTimes returns each span name's total self time in ns: a span's
// duration minus the part of its interval its children cover. Spans
// come from one goroutine, so siblings never overlap and the covered
// part is the sum of the children's durations.
func selfTimes(spans []span) map[string]int64 {
	childSum := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			childSum[s.parent] += s.dur
		}
	}
	out := make(map[string]int64)
	for i, s := range spans {
		out[s.name] += s.dur - childSum[i]
	}
	return out
}

// totals returns each span name's summed duration (ns) and call count.
func totals(spans []span) (dur map[string]int64, calls map[string]int64) {
	dur = make(map[string]int64)
	calls = make(map[string]int64)
	for _, s := range spans {
		dur[s.name] += s.dur
		calls[s.name] += int64(s.count)
	}
	return dur, calls
}

// callDurations returns the durations (µs) of the non-aggregate spans
// with the given name.
func callDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name && s.count == 1 {
			out = append(out, float64(s.dur)/1e3)
		}
	}
	return out
}

// writeSpans writes the spans as gzipped CSV (name, parent, window,
// start_ns, dur_ns, count), one line per span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	bw := bufio.NewWriter(zw)
	fmt.Fprintln(bw, "name,parent,window,start_ns,dur_ns,count")
	for _, s := range spans {
		fmt.Fprintf(bw, "%s,%d,%d,%d,%d,%d\n", s.name, s.parent, s.window, s.start, s.dur, s.count)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timeRow is one line of a "where the time goes" table.
type timeRow struct {
	layer string
	ms    float64
	share float64
	note  string
}

// writeTable prints rows, largest first.
func writeTable(w io.Writer, title string, rows []timeRow) {
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].ms > rows[j].ms })
	fmt.Fprintf(w, "where the time goes: %s\n", title)
	fmt.Fprintf(w, "  %-34s %10s %7s  %s\n", "layer", "self ms", "share", "source")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %10.2f %6.1f%%  %s\n", r.layer, r.ms, 100*r.share, r.note)
	}
	fmt.Fprintln(w, "  "+strings.Repeat("-", 60))
}
