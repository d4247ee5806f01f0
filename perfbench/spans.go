package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// maxSpans bounds the traced run's memory and trace file; the passes
// sample cycles so that a full-size run stays below it.
const maxSpans = 60000

// span is one timed call into a layer: name, host-time interval, lane
// (Chrome "thread"), and the span that caused it.
type span struct {
	name       string
	lane       int
	start, end int64 // ns since the tracer's epoch
	id, parent int
	args       map[string]any
}

// tracer keeps a run's spans in memory until it writes them, at exit, as
// Chrome trace-event JSON (opens in Perfetto or chrome://tracing).
type tracer struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
	lanes   map[int]string
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), lanes: map[int]string{0: "machine"}}
}

// now is the host clock every layer timing uses, in ns since the epoch.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a span and returns its id (0 once the bound is reached, so
// children of a dropped span become roots).
func (t *tracer) add(name string, lane int, start, end int64, parent int, args map[string]any) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{name: name, lane: lane, start: start, end: end, id: id, parent: parent, args: args})
	return id
}

// begin opens a span now, for end to close.
func (t *tracer) begin(name string, lane, parent int) int {
	return t.add(name, lane, t.now(), -1, parent, nil)
}

func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = end
}

func (t *tracer) nameLane(lane int, name string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lanes[lane] = name
}

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the spans as a Chrome trace-event file in dir.
func (t *tracer) write(dir, file string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	events := make([]chromeEvent, 0, len(t.spans)+len(t.lanes))
	for lane, name := range t.lanes {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: lane,
			Args: map[string]any{"name": name}})
	}
	for _, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent}
		if s.end < s.start { // left open by a failed pass
			s.end = s.start
			args["unfinished"] = true
		}
		for k, v := range s.args {
			args[k] = v
		}
		events = append(events, chromeEvent{Name: s.name, Ph: "X", Pid: 1, Tid: s.lane,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Args: args})
	}
	path := filepath.Join(dir, file)
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating trace file: %w", err)
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
		"otherData":       map[string]any{"dropped_spans": t.dropped},
	})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing %s: %w", path, err)
	}
	return path, nil
}
