package obs

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Stage names one timed segment of a request's life. The pipeline
// order mirrors the serving path: decode → hold → probe → plan →
// engine → build → store → render.
type Stage uint8

const (
	// StageDecode covers HTTP body read, JSON decode and request
	// validation.
	StageDecode Stage = iota
	// StageHold is the coalescer hold window: enqueue until the
	// batch flush starts. Only requests the coalescer holds — cache
	// misses; hits are answered before the hold — record it.
	StageHold
	// StageProbe covers the exact-cache and skeleton-family
	// lookups.
	StageProbe
	// StagePlan covers batch dedup and batchplan grouping.
	StagePlan
	// StageEngine is the engine search itself (including engine
	// checkout from the pool). For shared runs one engine span
	// serves every member of the group.
	StageEngine
	// StageBuild is a skeleton family build: the frozen-topology
	// Dijkstras of core.Engine.BuildSkeletonFamily plus the family
	// insert, carved out of the store stage of the miss that earned
	// the build. Only misses with repeat evidence record it.
	StageBuild
	// StageStore covers cache insertion and, for shared-run
	// members, restating the group answer for the member's
	// departure.
	StageStore
	// StageRender covers response JSON encode and write.
	StageRender

	numStages
)

var stageNames = [numStages]string{
	"decode", "hold", "probe", "plan", "engine", "build", "store", "render",
}

func (s Stage) String() string {
	if s < numStages {
		return stageNames[s]
	}
	return "unknown"
}

// StageNames returns all stage names in pipeline order.
func StageNames() []string {
	out := make([]string, numStages)
	copy(out, stageNames[:])
	return out
}

// maxSpans bounds how many spans one trace retains; a 64-query batch
// would otherwise record hundreds. Excess spans still feed the stage
// histograms but are counted in dropped_spans instead of kept.
const maxSpans = 64

// SpanData is one recorded span.
type SpanData struct {
	Stage Stage
	Start time.Time
	Dur   time.Duration
	Attrs any
}

// Trace collects the spans of one request. The zero of *Trace (nil)
// is the disabled fast path: every method is a no-op that neither
// allocates nor reads the clock. Traces are safe for concurrent span
// recording (batch workers, orphaned post-timeout searches).
type Trace struct {
	obs   *Observer // sink for per-stage histograms; may be nil
	start time.Time

	mu      sync.Mutex
	spans   []SpanData
	dropped int
}

// Start opens a span for the given stage. On a nil trace it returns
// an inert Span whose End methods are no-ops.
func (t *Trace) Start(stage Stage) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, stage: stage, start: time.Now()}
}

// Add records an externally measured span (e.g. a coalescer hold
// timed from enqueue to flush) and feeds the stage histogram.
func (t *Trace) Add(stage Stage, start time.Time, d time.Duration, attrs any) {
	if t == nil {
		return
	}
	t.record(SpanData{Stage: stage, Start: start, Dur: d, Attrs: attrs})
	if t.obs != nil {
		t.obs.stages[stage].Observe(d)
	}
}

// NewCollector returns a fresh trace sharing t's histogram sink. A
// coalescer flush records its batch work on one collector so shared
// stages feed the histograms exactly once, then each waiter Adopts
// the collector's spans for display. Nil-safe.
func (t *Trace) NewCollector() *Trace {
	if t == nil {
		return nil
	}
	return &Trace{obs: t.obs, start: time.Now()}
}

// Adopt copies spans recorded on c into t without re-observing stage
// histograms (c already fed them when its spans ended).
func (t *Trace) Adopt(c *Trace) {
	if t == nil || c == nil || t == c {
		return
	}
	c.mu.Lock()
	spans := make([]SpanData, len(c.spans))
	copy(spans, c.spans)
	dropped := c.dropped
	c.mu.Unlock()
	t.mu.Lock()
	for _, sd := range spans {
		t.recordLocked(sd)
	}
	t.dropped += dropped
	t.mu.Unlock()
}

func (t *Trace) record(sd SpanData) {
	t.mu.Lock()
	t.recordLocked(sd)
	t.mu.Unlock()
}

func (t *Trace) recordLocked(sd SpanData) {
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, sd)
	} else {
		t.dropped++
	}
}

// Span is an open stage timing. The zero Span (from a nil trace) is
// inert: End and EndWith are no-ops that never allocate.
type Span struct {
	t     *Trace
	stage Stage
	start time.Time
}

// End closes the span, records it on its trace and feeds the stage
// histogram.
func (s Span) End() { s.end(nil) }

// EndWith is End with an attachment (e.g. *core.SearchStats) kept on
// the recorded span and serialized into trace JSON. Callers on hot
// paths must only build the attachment when the trace is non-nil, or
// escape analysis will heap-allocate it on the disabled path too.
func (s Span) EndWith(attrs any) { s.end(attrs) }

func (s Span) end(attrs any) {
	if s.t == nil {
		return
	}
	d := time.Since(s.start)
	s.t.record(SpanData{Stage: s.stage, Start: s.start, Dur: d, Attrs: attrs})
	if s.t.obs != nil {
		s.t.obs.stages[s.stage].Observe(d)
	}
}

// RequestInfo labels a finished request for the request histograms
// and the trace ring.
type RequestInfo struct {
	Venue   string
	Method  string
	Outcome string
	// Provenance flags, copied from the route result.
	Hit       string
	Coalesced bool
	SharedRun bool
}

// Request outcome labels.
const (
	OutcomeOK         = "ok"
	OutcomeNoRoute    = "no_route"
	OutcomeError      = "error"
	OutcomeTimeout    = "timeout"
	OutcomeClientGone = "client_gone"
)

// TraceDoc is the JSON form of a finished trace, as served by /tracez
// and returned inline for "trace": true requests. Docs are immutable
// once published.
type TraceDoc struct {
	Venue        string    `json:"venue"`
	Method       string    `json:"method"`
	Outcome      string    `json:"outcome"`
	Hit          string    `json:"hit,omitempty"`
	Coalesced    bool      `json:"coalesced,omitempty"`
	SharedRun    bool      `json:"shared_run,omitempty"`
	Start        time.Time `json:"start"`
	DurationMs   float64   `json:"duration_ms"`
	Slow         bool      `json:"slow,omitempty"`
	Sampled      bool      `json:"sampled,omitempty"`
	DroppedSpans int       `json:"dropped_spans,omitempty"`
	Spans        []SpanDoc `json:"spans"`
}

// SpanDoc is one span in a TraceDoc; Start is the offset from the
// trace start.
type SpanDoc struct {
	Stage      string  `json:"stage"`
	StartMs    float64 `json:"start_ms"`
	DurationMs float64 `json:"duration_ms"`
	Attrs      any     `json:"attrs,omitempty"`
}

// Doc snapshots the trace into its JSON form, with duration measured
// up to now. Spans are sorted by start offset. Returns nil on a nil
// trace.
func (t *Trace) Doc(info RequestInfo) *TraceDoc {
	if t == nil {
		return nil
	}
	return t.doc(info, time.Since(t.start))
}

func (t *Trace) doc(info RequestInfo, total time.Duration) *TraceDoc {
	t.mu.Lock()
	spans := make([]SpanData, len(t.spans))
	copy(spans, t.spans)
	dropped := t.dropped
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start.Before(spans[j].Start) })
	d := &TraceDoc{
		Venue:        info.Venue,
		Method:       info.Method,
		Outcome:      info.Outcome,
		Hit:          info.Hit,
		Coalesced:    info.Coalesced,
		SharedRun:    info.SharedRun,
		Start:        t.start,
		DurationMs:   durMs(total),
		DroppedSpans: dropped,
		Spans:        make([]SpanDoc, len(spans)),
	}
	for i, sd := range spans {
		d.Spans[i] = SpanDoc{
			Stage:      sd.Stage.String(),
			StartMs:    durMs(sd.Start.Sub(t.start)),
			DurationMs: durMs(sd.Dur),
			Attrs:      sd.Attrs,
		}
	}
	return d
}

func durMs(d time.Duration) float64 {
	if d < 0 {
		d = 0
	}
	return float64(d) / float64(time.Millisecond)
}

type traceCtxKey struct{}

// WithTrace attaches a trace to a context.
func WithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// FromContext returns the trace attached to ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}
