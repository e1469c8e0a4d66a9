package obs

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// fakeClock pins a LoadRing to a controllable wall second.
type fakeClock struct{ sec atomic.Int64 }

func (c *fakeClock) install(r *LoadRing, start int64) {
	c.sec.Store(start)
	r.now = c.sec.Load
}

func (c *fakeClock) advance(d int64) { c.sec.Add(d) }

// windows is a test helper: totals for the standard 10s/60s/300s views.
func windows(r *LoadRing) (w10, w60, w300 LoadSample) {
	out := r.Windows(LoadWindows)
	return out[0], out[1], out[2]
}

func TestLoadRingSameSecondBurst(t *testing.T) {
	r := NewLoadRing()
	var clk fakeClock
	clk.install(r, 1_000_000)

	for i := 0; i < 100; i++ {
		r.Feed(LoadSample{Queries: 1, ExactHits: 1})
	}
	r.Feed(LoadSample{Queries: 3, Deduped: 3})

	w10, w60, w300 := windows(r)
	for _, w := range []LoadSample{w10, w60, w300} {
		if w.Queries != 103 || w.ExactHits != 100 || w.Deduped != 3 {
			t.Fatalf("burst totals = %+v, want queries=103 exact=100 dedup=3", w)
		}
	}
}

func TestLoadRingWindowRollOff(t *testing.T) {
	r := NewLoadRing()
	var clk fakeClock
	clk.install(r, 2_000_000)

	r.Feed(LoadSample{Queries: 5, SkeletonHits: 5})
	clk.advance(9) // old second is age 9: still inside the 10s window
	r.Feed(LoadSample{Queries: 1})

	w10, w60, _ := windows(r)
	if w10.Queries != 6 || w10.SkeletonHits != 5 {
		t.Fatalf("10s window = %+v, want queries=6 skeletonHits=5", w10)
	}

	clk.advance(1) // old second now age 10: out of 10s, still in 60s
	w10, w60, _ = windows(r)
	if w10.Queries != 1 || w10.SkeletonHits != 0 {
		t.Fatalf("10s window after roll-off = %+v, want queries=1", w10)
	}
	if w60.Queries != 6 || w60.SkeletonHits != 5 {
		t.Fatalf("60s window = %+v, want queries=6 skeletonHits=5", w60)
	}

	clk.advance(60) // both seconds out of 60s, still in 300s
	w10, w60, w300 := windows(r)
	if w10.Queries != 0 || w60.Queries != 0 {
		t.Fatalf("short windows not empty after advance: 10s=%+v 60s=%+v", w10, w60)
	}
	if w300.Queries != 6 {
		t.Fatalf("300s window = %+v, want queries=6", w300)
	}
}

func TestLoadRingGapBeyondRetention(t *testing.T) {
	r := NewLoadRing()
	var clk fakeClock
	clk.install(r, 3_000_000)

	r.Feed(LoadSample{Queries: 42, EngineSearches: 42})
	clk.advance(LoadRetentionSec + 700) // silence longer than the ring

	w10, w60, w300 := windows(r)
	if w10.Queries+w60.Queries+w300.Queries != 0 {
		t.Fatalf("windows not empty after gap > retention: %+v %+v %+v", w10, w60, w300)
	}

	// The ring must come back cleanly after the gap, including the
	// slots the old data occupied.
	r.Feed(LoadSample{Queries: 1, ExactHits: 1})
	_, _, w300 = windows(r)
	if w300.Queries != 1 || w300.ExactHits != 1 || w300.EngineSearches != 0 {
		t.Fatalf("post-gap totals = %+v, want queries=1 exact=1 searches=0", w300)
	}
}

// TestLoadRingStraddleRotation exercises a window that spans the ring
// seam (second index wrapping back to slot 0) and a slot being reused
// exactly one revolution later.
func TestLoadRingStraddleRotation(t *testing.T) {
	start := int64(loadRingSize*4000 - 1) // last slot; next second wraps to slot 0
	r := NewLoadRing()
	var clk fakeClock
	clk.install(r, start)

	r.Feed(LoadSample{Queries: 2, ExactHits: 2})
	clk.advance(1) // slot 0
	r.Feed(LoadSample{Queries: 3, Deduped: 1})

	w10, _, _ := windows(r)
	if w10.Queries != 5 || w10.ExactHits != 2 || w10.Deduped != 1 {
		t.Fatalf("seam-straddling 10s window = %+v, want queries=5", w10)
	}

	// One full revolution later the same slots are reused: the stale
	// tallies must be zeroed on first touch, not added to.
	clk.advance(loadRingSize - 1) // back to the last slot, one revolution on
	r.Feed(LoadSample{Queries: 7})
	w10, _, w300 := windows(r)
	if w10.Queries != 7 || w10.ExactHits != 0 {
		t.Fatalf("reused-slot 10s window = %+v, want queries=7 exact=0", w10)
	}
	if w300.Queries != 7 {
		t.Fatalf("reused-slot 300s window = %+v, want queries=7 (old revolution dropped)", w300)
	}
}

func TestLoadRingConcurrentFeeders(t *testing.T) {
	r := NewLoadRing()
	var clk fakeClock
	clk.install(r, 5_000_000)

	const feeders, per = 8, 500
	var wg sync.WaitGroup
	for f := 0; f < feeders; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if i%16 == 0 {
					clk.advance(1) // force concurrent rotations
				}
				r.Feed(LoadSample{Queries: 1, ExactHits: int64(f & 1)})
			}
		}(f)
	}
	wg.Wait()

	// Rotation may legitimately drop whole seconds behind the advancing
	// fake clock, but whatever survives must keep the partition: hits
	// never exceed arrivals, in any window.
	w10, w60, w300 := windows(r)
	for i, w := range []LoadSample{w10, w60, w300} {
		if w.ExactHits+w.SkeletonHits+w.Deduped > w.Queries {
			t.Fatalf("window %d violates partition: %+v", i, w)
		}
	}
	if w300.Queries > feeders*per {
		t.Fatalf("300s window overcounts: %d > %d fed", w300.Queries, feeders*per)
	}
}

// TestLoadRingScrapePartitionMidTraffic hammers snapshots while
// feeders run on the real clock: every windowed view must satisfy
// ExactHits+SkeletonHits+Deduped <= Queries, mid-rotation included.
func TestLoadRingScrapePartitionMidTraffic(t *testing.T) {
	r := NewLoadRing()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for f := 0; f < 4; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s := LoadSample{Queries: 1}
				switch i % 3 {
				case 0:
					s.ExactHits = 1
				case 1:
					s.SkeletonHits = 1
				default:
					s.EngineSearches = 1
					s.CountReason(ReasonNoExactEntry)
				}
				r.Feed(s)
			}
		}(f)
	}

	deadline := time.Now().Add(100 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, w := range r.Windows(LoadWindows) {
			if w.ExactHits+w.SkeletonHits+w.Deduped > w.Queries {
				close(stop)
				wg.Wait()
				t.Fatalf("scrape violates partition: %+v", w)
			}
			if w.MissNoExactEntry > w.Queries {
				close(stop)
				wg.Wait()
				t.Fatalf("reason tally exceeds arrivals: %+v", w)
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestLoadRingFeedZeroAlloc(t *testing.T) {
	r := NewLoadRing()
	s := LoadSample{Queries: 1, ExactHits: 1, HoldNanos: 123}
	if n := testing.AllocsPerRun(200, func() { r.Feed(s) }); n != 0 {
		t.Fatalf("Feed allocates %.1f per op, want 0", n)
	}
	var nilRing *LoadRing
	if n := testing.AllocsPerRun(50, func() { nilRing.Feed(s) }); n != 0 {
		t.Fatalf("nil-ring Feed allocates %.1f per op, want 0", n)
	}
}

// TestLoadRingFootprint pins the ring at its retention-sized bucket
// count: 320 one-second buckets of 20 counters cover the 300 s windows
// with a rotation margin. A pool keeps one ring per engine method, so a
// ring sized past its retention costs every served venue.
func TestLoadRingFootprint(t *testing.T) {
	if loadRingSize <= LoadRetentionSec {
		t.Fatalf("ring of %d buckets cannot hold the %d s retention", loadRingSize, LoadRetentionSec)
	}
	const maxBytes = 320*(numLoadSignals+1)*8 + 8 // buckets + clock hook
	if got := unsafe.Sizeof(LoadRing{}); got > maxBytes {
		t.Fatalf("LoadRing is %d bytes, want at most %d", got, maxBytes)
	}
}

// BenchmarkLoadRingFeed pins the always-on load ring at zero
// allocations per feed; it self-fails on regression so the CI bench
// smoke catches it without inspecting -benchmem output.
func BenchmarkLoadRingFeed(b *testing.B) {
	r := NewLoadRing()
	s := LoadSample{Queries: 1, SkeletonHits: 1, MissOutsideWindows: 0}
	if n := testing.AllocsPerRun(100, func() { r.Feed(s) }); n != 0 {
		b.Fatalf("load-ring Feed allocates %.1f per op, want 0 (always-on path must stay allocation-free)", n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Feed(s)
	}
}

func TestReasonNames(t *testing.T) {
	want := map[Reason]string{
		ReasonNone:               "",
		ReasonUncacheable:        "uncacheable",
		ReasonNoExactEntry:       "no_exact_entry",
		ReasonWindowFamilyAbsent: "window_family_absent",
		ReasonOutsideWindows:     "outside_windows",
		ReasonEpochRaced:         "epoch_raced",
		ReasonPrivatePartition:   "private_partition",
		ReasonSingletonGroup:     "singleton_group",
		ReasonAblation:           "ablation",
	}
	for r, name := range want {
		if r.String() != name {
			t.Errorf("Reason(%d).String() = %q, want %q", r, r.String(), name)
		}
	}
	if Reason(200).String() != "" {
		t.Errorf("out-of-range reason must stringify empty")
	}
	for r := ReasonUncacheable; r <= ReasonEpochRaced; r++ {
		if !r.IsMiss() {
			t.Errorf("%v must be a miss reason", r)
		}
	}
	for _, r := range []Reason{ReasonNone, ReasonPrivatePartition, ReasonSingletonGroup, ReasonAblation} {
		if r.IsMiss() {
			t.Errorf("%v must not be a miss reason", r)
		}
	}
}

func TestLoadSampleCountReason(t *testing.T) {
	var s LoadSample
	for r := ReasonNone; r < NumReasons; r++ {
		s.CountReason(r)
	}
	if s.MissUncacheable != 1 || s.MissNoExactEntry != 1 || s.MissFamilyAbsent != 1 ||
		s.MissOutsideWindows != 1 || s.MissEpochRaced != 1 ||
		s.SoloPrivate != 1 || s.SoloSingleton != 1 || s.SoloAblation != 1 {
		t.Fatalf("CountReason coverage: %+v", s)
	}
	if s.Queries != 0 {
		t.Fatalf("CountReason must not touch Queries: %+v", s)
	}
}
