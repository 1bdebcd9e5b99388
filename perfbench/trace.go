package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sync"
	"time"

	"pregelix/internal/core"
)

// tracer records the traced repetitions of a run: spans around the
// benchmark's own calls into the program (written as Chrome trace-event
// JSON, which Perfetto and chrome://tracing open), and a CPU profile per
// repetition whose samples are charged to layers. A nil *tracer is an
// untraced repetition: every method is then a no-op.
type tracer struct {
	origin time.Time
	mu     sync.Mutex // guards events: the serve reader and writer record concurrently
	events []traceEvent

	profBuf   bytes.Buffer
	profiling bool
	firstProf []byte
	cpuNs     map[string]int64 // layer, or layer.sub → sampled CPU
	totalNs   int64
	profErr   error
}

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), cpuNs: map[string]int64{}}
}

// Span threads: the driving calls, the reader and the refresh writer of
// the serve workload.
const (
	tidMain = 1 + iota
	tidReader
	tidWriter
)

func (t *tracer) spanOn(tid int, name, cat string, start time.Time, dur time.Duration, args map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events = append(t.events, traceEvent{
		Name: name, Cat: cat, Ph: "X", Pid: 1, Tid: tid, Args: args,
		Ts:  float64(start.Sub(t.origin)) / float64(time.Microsecond),
		Dur: float64(dur) / float64(time.Microsecond),
	})
}

func (t *tracer) span(name, cat string, start time.Time, dur time.Duration, args map[string]any) {
	t.spanOn(tidMain, name, cat, start, dur, args)
}

// jobSpans records a job span plus its load and superstep spans. The
// program reports only each superstep's duration, so the superstep
// spans are laid end to end after the load.
func (t *tracer) jobSpans(name string, start time.Time, wall time.Duration, stats *core.JobStats) {
	if t == nil {
		return
	}
	t.span(name, "job", start, wall, map[string]any{"supersteps": stats.Supersteps, "messages": stats.TotalMessages})
	t.span("load", "load", start, stats.LoadDuration, nil)
	at := start.Add(stats.LoadDuration)
	for _, ss := range stats.SuperstepStats {
		t.span(fmt.Sprintf("superstep %d", ss.Superstep), "superstep", at, ss.Duration,
			map[string]any{"messages": ss.Messages, "plan": ss.Plan})
		at = at.Add(ss.Duration)
	}
}

// do runs f labelled with the phase, so profile samples taken inside
// it (and in goroutines it starts) carry the label.
func (t *tracer) do(ctx context.Context, phase string, f func(context.Context) error) error {
	if t == nil {
		return f(ctx)
	}
	var err error
	pprof.Do(ctx, pprof.Labels("phase", phase), func(ctx context.Context) { err = f(ctx) })
	return err
}

func (t *tracer) startProfile() error {
	if t == nil {
		return nil
	}
	t.profBuf.Reset()
	if err := pprof.StartCPUProfile(&t.profBuf); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	t.profiling = true
	return nil
}

// stopProfile ends the repetition's profile and charges its samples.
// A decoding error is kept and reported when the run's per-layer
// metrics are assembled.
func (t *tracer) stopProfile() {
	if t == nil || !t.profiling {
		return
	}
	pprof.StopCPUProfile()
	t.profiling = false
	data := t.profBuf.Bytes()
	if t.firstProf == nil {
		t.firstProf = append([]byte(nil), data...)
	}
	p, err := parsePprof(data)
	if err != nil {
		t.profErr = err
		return
	}
	for _, s := range p.samples {
		layer, sub := p.layerOf(s)
		t.cpuNs[layer] += s.cpuNs
		if sub != "" {
			t.cpuNs[layer+"."+sub] += s.cpuNs
		}
		t.totalNs += s.cpuNs
	}
}

func (t *tracer) writeChrome(path string) error {
	data, err := json.Marshal(map[string]any{"traceEvents": t.events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// writeProfile keeps the first traced repetition's raw CPU profile for
// `go tool pprof`.
func (t *tracer) writeProfile(path string) error {
	if t.firstProf == nil {
		return nil
	}
	return os.WriteFile(path, t.firstProf, 0o644)
}
