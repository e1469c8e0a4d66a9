package tcache

import (
	"sync"
	"testing"

	"indoorpath/internal/model"
	"indoorpath/internal/temporal"
)

func key(a, b int) Key { return Key{Src: model.PartitionID(a), Tgt: model.PartitionID(b)} }

func TestStoreLookup(t *testing.T) {
	s := NewStore(0)
	k := key(1, 2)
	// Three disjoint slot families inserted out of order.
	for _, iv := range [][2]temporal.TimeOfDay{{3600, 7200}, {0, 1800}, {10000, 20000}} {
		if !s.InsertFamily(k, famEntry(iv[0], iv[1]), s.Epoch()) {
			t.Fatalf("insert [%v, %v) failed", iv[0], iv[1])
		}
	}
	if s.FamLen() != 3 {
		t.Fatalf("FamLen = %d, want 3", s.FamLen())
	}
	cases := []struct {
		at   temporal.TimeOfDay
		want temporal.TimeOfDay // Open of the expected family; -1 = miss
	}{
		{0, 0}, {1799, 0}, {1800, -1}, {3599, -1},
		{3600, 3600}, {5000, 3600}, {7200, -1},
		{15000, 10000}, {19999.5, 10000}, {20000, -1}, {86399, -1},
	}
	for _, tc := range cases {
		fe, kind := s.ProbeFamily(k, tc.at)
		if (tc.want < 0) == (kind == MissNone) {
			t.Fatalf("ProbeFamily(%v): kind=%v, want hit=%v", tc.at, kind, tc.want >= 0)
		}
		if kind == MissNone && fe.Window.Open != tc.want {
			t.Fatalf("ProbeFamily(%v) window opens %v, want %v", tc.at, fe.Window.Open, tc.want)
		}
	}
	// The reversed pair is a different bucket.
	if _, kind := s.ProbeFamily(key(2, 1), 100); kind == MissNone {
		t.Fatal("reversed pair hit")
	}
}

func TestStoreOverlapDropped(t *testing.T) {
	s := NewStore(0)
	k := key(1, 2)
	if !s.InsertFamily(k, famEntry(1000, 2000), s.Epoch()) {
		t.Fatal("first insert failed")
	}
	for _, iv := range [][2]temporal.TimeOfDay{{1000, 2000}, {500, 1001}, {1999, 3000}, {1200, 1300}} {
		if s.InsertFamily(k, famEntry(iv[0], iv[1]), s.Epoch()) {
			t.Fatalf("overlapping [%v, %v) was stored", iv[0], iv[1])
		}
	}
	// Abutting slots are disjoint and fine.
	if !s.InsertFamily(k, famEntry(2000, 2500), s.Epoch()) || !s.InsertFamily(k, famEntry(500, 1000), s.Epoch()) {
		t.Fatal("abutting families rejected")
	}
	if s.FamLen() != 3 {
		t.Fatalf("FamLen = %d, want 3", s.FamLen())
	}
	// A family without a chain table is refused.
	fe := famEntry(3000, 4000)
	fe.Fam = nil
	if s.InsertFamily(k, fe, s.Epoch()) {
		t.Fatal("family without chains accepted")
	}
}

func TestStoreInvalidateRange(t *testing.T) {
	s := NewStore(0)
	k := key(1, 2)
	s.InsertFamily(k, famEntry(0, 1000), s.Epoch())
	s.InsertFamily(k, famEntry(2000, 3000), s.Epoch())
	s.InsertFamily(k, famEntry(5000, 6000), s.Epoch())

	// A range touching only the middle family.
	s.InvalidateRange(temporal.Interval{Open: 2500, Close: 2600})
	if s.FamLen() != 2 {
		t.Fatalf("FamLen = %d, want 2 after range invalidation", s.FamLen())
	}
	if _, kind := s.ProbeFamily(k, 2500); kind != MissOutsideWindows {
		t.Fatalf("probe in the dropped slot = %v, want MissOutsideWindows", kind)
	}
	for _, at := range []temporal.TimeOfDay{500, 5500} {
		if _, kind := s.ProbeFamily(k, at); kind != MissNone {
			t.Fatalf("non-overlapping family at %v dropped", at)
		}
	}
	// Dropping a pair's last family removes the pair.
	s.InvalidateRange(temporal.Interval{Open: 0, Close: temporal.DaySeconds})
	if _, kind := s.ProbeFamily(k, 500); kind != MissFamilyAbsent {
		t.Fatalf("emptied pair probe = %v, want MissFamilyAbsent", kind)
	}
	if len(s.SkeletonCoverage()) != 0 {
		t.Fatal("emptied pair still listed in coverage")
	}
}

func TestStoreEpochGuard(t *testing.T) {
	s := NewStore(0)
	k := key(1, 2)
	epoch := s.Epoch()
	// An InvalidateAll lands between the epoch capture and the insert —
	// the insert must be discarded.
	s.InvalidateAll()
	if s.InsertFamily(k, famEntry(1000, 2000), epoch) {
		t.Fatal("stale insert accepted after invalidation")
	}
	if s.FamLen() != 0 {
		t.Fatalf("FamLen = %d, want 0", s.FamLen())
	}
	if !s.InsertFamily(k, famEntry(1000, 2000), s.Epoch()) {
		t.Fatal("fresh insert rejected")
	}
}

func TestStoreEviction(t *testing.T) {
	s := NewStore(4)
	// Five OD buckets, one family each: eviction must never shed the
	// family just written.
	for i := 0; i < 5; i++ {
		k := key(i, i+1)
		if !s.InsertFamily(k, famEntry(0, 1000), s.Epoch()) {
			t.Fatalf("insert %d failed", i)
		}
		if s.FamLen() > 4 {
			t.Fatalf("FamLen = %d beyond capacity", s.FamLen())
		}
		if _, kind := s.ProbeFamily(k, 500); kind != MissNone {
			t.Fatalf("family %d evicted immediately after insert", i)
		}
	}
	if got := s.FamEvictions(); got != 1 {
		t.Fatalf("FamEvictions = %d, want 1", got)
	}
	if got := len(s.SkeletonCoverage()); got != 4 {
		t.Fatalf("coverage lists %d pairs, want 4 (the evicted pair's bucket is gone)", got)
	}
}

func TestStoreConcurrency(t *testing.T) {
	// Smoke the lock discipline: concurrent inserts, probes, coverage
	// scrapes and full invalidations over a small store (meaningful
	// under -race).
	s := NewStore(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(w%3, i%5)
				open := temporal.TimeOfDay((i % 20) * 4000)
				s.InsertFamily(k, famEntry(open, open+3000), s.Epoch())
				s.ProbeFamily(k, open+1500)
				if i%25 == 0 {
					s.SkeletonCoverage()
				}
				if i%70 == 0 {
					s.InvalidateAll()
				}
			}
		}(w)
	}
	wg.Wait()
	if s.FamLen() > 16 {
		t.Fatalf("FamLen = %d beyond capacity", s.FamLen())
	}
}

func TestStoreSizeAccounting(t *testing.T) {
	s := NewStore(100)
	for i := 0; i < 10; i++ {
		for j := 0; j < 3; j++ {
			open := temporal.TimeOfDay(j * 2000)
			s.InsertFamily(key(i, i+1), famEntry(open, open+1000), s.Epoch())
		}
	}
	if s.FamLen() != 30 {
		t.Fatalf("FamLen = %d, want 30", s.FamLen())
	}
	s.InvalidateRange(temporal.Interval{Open: 0, Close: 500})
	if s.FamLen() != 20 {
		t.Fatalf("FamLen = %d after invalidating one family per bucket, want 20", s.FamLen())
	}
	total := 0
	for _, pc := range s.SkeletonCoverage() {
		total += pc.Families
	}
	if total != 20 {
		t.Fatalf("coverage sums %d families, FamLen says 20", total)
	}
	// Fill far past a tiny capacity and confirm the bound holds.
	tiny := NewStore(3)
	for i := 0; i < 50; i++ {
		tiny.InsertFamily(key(i, 0), famEntry(0, 1000), tiny.Epoch())
		if got := tiny.FamLen(); got > 3 {
			t.Fatalf("tiny FamLen = %d beyond capacity", got)
		}
	}
	if got := tiny.FamEvictions(); got != 47 {
		t.Fatalf("tiny FamEvictions = %d, want 47", got)
	}
	if tiny.Cap() != 3 {
		t.Fatalf("Cap = %d, want 3", tiny.Cap())
	}
}

func TestStoreProbeMissKinds(t *testing.T) {
	s := NewStore(0)
	k := key(1, 2)

	// Empty store: the pair was never built.
	if fe, mk := s.ProbeFamily(k, 100); fe != nil || mk != MissFamilyAbsent {
		t.Fatalf("empty store probe = (%v, %v), want (nil, MissFamilyAbsent)", fe, mk)
	}
	if !s.InsertFamily(k, famEntry(3600, 7200), s.Epoch()) {
		t.Fatal("insert failed")
	}
	// Hit inside the stored slot.
	if fe, mk := s.ProbeFamily(k, 5000); fe == nil || mk != MissNone {
		t.Fatalf("probe(5000) = (%v, %v), want hit", fe, mk)
	}
	// Pair built, departure outside every family's slot.
	if fe, mk := s.ProbeFamily(k, 100); fe != nil || mk != MissOutsideWindows {
		t.Fatalf("probe(100) = (%v, %v), want (nil, MissOutsideWindows)", fe, mk)
	}
	// Different pair entirely.
	if fe, mk := s.ProbeFamily(key(2, 3), 5000); fe != nil || mk != MissFamilyAbsent {
		t.Fatalf("probe(other pair) = (%v, %v), want (nil, MissFamilyAbsent)", fe, mk)
	}
}
