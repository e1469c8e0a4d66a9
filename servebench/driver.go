package main

import (
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"indoorpath/internal/core"
)

// record is one route or batch request's outcome.
type record struct {
	// idx is the request's index in the open-loop timeline, or the
	// batch number in the closed loop.
	idx  int
	warm bool
	// due is when the request was scheduled (open loop) or sent
	// (closed loop); latency runs from due to done.
	due, sent, done time.Time
	// lo and hi bracket the schedule states the answer may come from:
	// updates acknowledged before the send, updates initiated before
	// the answer arrived.
	lo, hi  int
	method  string
	queries []core.Query
	answers []answer
}

// passResult is what one pass of a workload through one target
// produced.
type passResult struct {
	recs []*record
	// late is the generator lateness (release minus due) of every timed
	// open-loop release.
	late []time.Duration
	// start and end bound the timed window: from the first timed due
	// time (or the closed loop's window start) to the last timed answer.
	start, end time.Time
	// cpu is the process CPU time spent inside the window, and alloc
	// the bytes it allocated on the heap.
	cpu   time.Duration
	alloc uint64
	// updates counts schedule updates applied; updateErrs lists the
	// ones that failed.
	updates    int
	updateErrs []string
}

// timed returns the records inside the timed window.
func (p *passResult) timed() []*record {
	var out []*record
	for _, r := range p.recs {
		if !r.warm {
			out = append(out, r)
		}
	}
	return out
}

// span is one timed call at a layer boundary. Spans stay in memory
// until the benchmark ends.
type span struct {
	Name       string
	Start, End int64 // since the tracer's epoch, ns
	// Parent is the index of the enclosing span, -1 for a root.
	Parent int
	// Req is the request's index in its pass's stream, -1 for none.
	Req  int
	Warm bool
}

// tracer collects spans; a nil tracer records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one span.
func (t *tracer) add(name string, start, end time.Time, parent, req int, warm bool) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
		Parent: parent, Req: req, Warm: warm})
}

// spanOf returns the index of the timed span called name, keyed by
// request index.
func (t *tracer) spanOf(name string) map[int]int {
	out := map[int]int{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, s := range t.spans {
		if s.Name == name && !s.Warm && s.Req >= 0 {
			out[s.Req] = i
		}
	}
	return out
}

// byReq returns the durations of the timed spans called name, keyed by
// request index.
func (t *tracer) byReq(name string) map[int]time.Duration {
	out := map[int]time.Duration{}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && !s.Warm && s.Req >= 0 {
			out[s.Req] = time.Duration(s.End - s.Start)
		}
	}
	return out
}

// durations returns the durations of every timed span called name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name && !s.Warm {
			out = append(out, ms(time.Duration(s.End-s.Start)))
		}
	}
	return out
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// runOpen sends an open-loop timeline to a target: each request is
// released at its due time whatever the state of earlier ones, and at
// most conns run at once. The hook runs just before the timed window
// opens and just after its last answer.
func runOpen(w *workload, t target, tr *tracer, layer string, hook func(open bool)) *passResult {
	res := &passResult{}
	sem := make(chan struct{}, conns)
	var wg sync.WaitGroup
	var initiated, acked atomic.Int64
	var mu sync.Mutex
	var prevUpdate chan struct{}
	var cpu0 time.Duration
	var alloc0 uint64
	opened := false
	openWindow := func(at time.Time) {
		if hook != nil {
			hook(true)
		}
		sleepUntil(at)
		opened = true
		res.start = time.Now()
		cpu0, alloc0 = cpuTime(), heapAllocs()
	}
	start := time.Now()
	for i := range w.reqs {
		rq := &w.reqs[i]
		due := start.Add(time.Duration(rq.Due * float64(time.Second)))
		if !rq.Warm && !opened {
			openWindow(due)
		}
		sleepUntil(due)
		if !rq.Warm {
			res.late = append(res.late, time.Since(due))
		}
		if rq.Flip >= 0 {
			// Updates apply in order and never block the traffic.
			wait, done := prevUpdate, make(chan struct{})
			prevUpdate = done
			wg.Add(1)
			go func(k int, warm bool) {
				defer wg.Done()
				defer close(done)
				if wait != nil {
					<-wait
				}
				initiated.Add(1)
				t0 := time.Now()
				err := t.update(w.updates[k%2])
				tr.add(layer+".update", t0, time.Now(), -1, -1, warm)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					res.updateErrs = append(res.updateErrs, err.Error())
					return
				}
				res.updates++
				acked.Add(1)
			}(rq.Flip, rq.Warm)
			continue
		}
		rec := &record{idx: i, warm: rq.Warm, due: due, method: rq.Method, queries: rq.Queries}
		res.recs = append(res.recs, rec)
		wg.Add(1)
		// One goroutine per request keeps the release schedule open
		// loop; the stream is finite, and sem bounds the calls in flight.
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rec.lo = int(acked.Load())
			rec.sent = time.Now()
			rec.answers = []answer{t.route(rec.method, rec.queries[0])}
			rec.done = time.Now()
			rec.hi = int(initiated.Load())
			tr.add(layer, rec.sent, rec.done, -1, rec.idx, rec.warm)
		}()
	}
	if !opened {
		openWindow(time.Now())
	}
	wg.Wait()
	res.cpu, res.alloc = cpuTime()-cpu0, heapAllocs()-alloc0
	res.end = res.start
	for _, r := range res.recs {
		if !r.warm && r.done.After(res.end) {
			res.end = r.done
		}
	}
	if hook != nil {
		hook(false)
	}
	return res
}

// runClosed drives a closed loop on conns callers: each sends its next
// request as soon as the previous one is answered. Requests sent before
// the warm-up ends are warm; none is sent after the window closes.
func runClosed(w *workload, t target, warm, window time.Duration, tr *tracer, layer string, hook func(open bool)) *passResult {
	res := &passResult{}
	start := time.Now()
	winStart, stop := start.Add(warm), start.Add(warm+window)
	var next atomic.Int64
	var mu sync.Mutex
	var cpu0 time.Duration
	var alloc0 uint64
	opened := make(chan struct{})
	go func() {
		defer close(opened)
		sleepUntil(winStart)
		if hook != nil {
			hook(true)
		}
		res.start = time.Now()
		cpu0, alloc0 = cpuTime(), heapAllocs()
	}()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				i := int(next.Add(1)) - 1
				rq := w.batchAt(i)
				rec := &record{idx: i, method: rq.Method, queries: rq.Queries}
				rec.sent = time.Now()
				rec.due, rec.warm = rec.sent, rec.sent.Before(winStart)
				if rq.Batch {
					rec.answers = t.batch(rq.Method, rq.Queries)
				} else {
					rec.answers = []answer{t.route(rq.Method, rq.Queries[0])}
				}
				rec.done = time.Now()
				tr.add(layer, rec.sent, rec.done, -1, rec.idx, rec.warm)
				mu.Lock()
				res.recs = append(res.recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	<-opened
	res.cpu, res.alloc = cpuTime()-cpu0, heapAllocs()-alloc0
	sort.Slice(res.recs, func(i, j int) bool { return res.recs[i].idx < res.recs[j].idx })
	res.end = res.start
	for _, r := range res.recs {
		if !r.warm && r.done.After(res.end) {
			res.end = r.done
		}
	}
	if hook != nil {
		hook(false)
	}
	return res
}

// drive runs one pass of a workload through a target.
func drive(w *workload, t target, warm, window float64, tr *tracer, layer string, hook func(open bool)) *passResult {
	if w.OpenLoop {
		return runOpen(w, t, tr, layer, hook)
	}
	return runClosed(w, t, dur(warm), dur(window), tr, layer, hook)
}

func dur(sec float64) time.Duration { return time.Duration(sec * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
