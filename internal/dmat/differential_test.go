package dmat_test

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"indoorpath/internal/dmat"
	"indoorpath/internal/geom"
	"indoorpath/internal/model"
	"indoorpath/internal/synth"
)

// presetVenues are the served presets: the paper's synthetic mall (the
// server's generator seeds: stairwells with stairway overrides),
// hospital, office and the Figure 1 running example (transcribed
// distance overrides).
func presetVenues(t testing.TB) map[string]*model.Venue {
	t.Helper()
	m, err := synth.GenerateMall(synth.MallConfig{
		Seed: 42,
		ATI:  synth.ATIConfig{CheckpointCount: 8, Seed: 43},
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*model.Venue{
		"mall":     m.Venue,
		"hospital": synth.Hospital(),
		"office":   synth.Office(),
		"figure1":  synth.PaperFigure1().Venue,
	}
}

// checkAgainstReference compares every DM read of s with the reference
// resolver: for every partition and attached door pair, Dist is
// bit-identical to DoorDistance, symmetric and zero on the diagonal;
// every door not attached to the partition reads +Inf (ok=false for
// Matrix.Dist), and so does PointToDoor.
func checkAgainstReference(t *testing.T, v *model.Venue, s *dmat.Set) {
	t.Helper()
	attached := make([]bool, v.DoorCount())
	for p := 0; p < v.PartitionCount(); p++ {
		pid := model.PartitionID(p)
		doors := v.DoorsOf(pid)
		m := s.Matrix(pid)
		if m.Size() != len(doors) || !slices.Equal(m.Doors(), doors) {
			t.Fatalf("partition %d: matrix doors %v, want %v", p, m.Doors(), doors)
		}
		maxEntry := 0.0
		for i, a := range doors {
			attached[a] = true
			for j, b := range doors {
				want := 0.0
				if i != j {
					var err error
					if want, err = dmat.DoorDistance(v, pid, a, b); err != nil {
						t.Fatalf("partition %d doors %d,%d: %v", p, a, b, err)
					}
				}
				maxEntry = max(maxEntry, want)
				got, back := s.Dist(pid, a, b), s.Dist(pid, b, a)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("partition %d: Dist(%d, %d) = %v, want %v", p, a, b, got, want)
				}
				if math.Float64bits(back) != math.Float64bits(got) {
					t.Fatalf("partition %d: Dist(%d, %d) = %v but Dist(%d, %d) = %v", p, a, b, got, b, a, back)
				}
				if md, ok := m.Dist(a, b); !ok || math.Float64bits(md) != math.Float64bits(want) {
					t.Fatalf("partition %d: Matrix.Dist(%d, %d) = %v, %v, want %v", p, a, b, md, ok, want)
				}
				if rd := s.Row(pid, a).Dist(b); math.Float64bits(rd) != math.Float64bits(want) {
					t.Fatalf("partition %d: Row(%d).Dist(%d) = %v, want %v", p, a, b, rd, want)
				}
			}
		}
		if m.MaxEntry() != maxEntry {
			t.Fatalf("partition %d: MaxEntry = %v, want %v", p, m.MaxEntry(), maxEntry)
		}
		r := v.Partition(pid).Rect
		pt := r.Center()
		pt.Floor = r.Floor
		for d := 0; d < v.DoorCount(); d++ {
			did := model.DoorID(d)
			got := s.PointToDoor(pid, pt, did)
			if attached[d] {
				want := math.Inf(1)
				if door := v.Door(did); door.Pos.Floor == pt.Floor {
					want = pt.DistXY(door.Pos)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("partition %d: PointToDoor(%d) = %v, want %v", p, d, got, want)
				}
				continue
			}
			if !math.IsInf(got, 1) {
				t.Fatalf("partition %d: PointToDoor of unattached door %d = %v, want +Inf", p, d, got)
			}
			for _, a := range doors {
				if x, y := s.Dist(pid, a, did), s.Dist(pid, did, a); !math.IsInf(x, 1) || !math.IsInf(y, 1) {
					t.Fatalf("partition %d: unattached door %d reads %v / %v, want +Inf", p, d, x, y)
				}
				if x, y := s.Row(pid, a).Dist(did), s.Row(pid, did).Dist(a); !math.IsInf(x, 1) || !math.IsInf(y, 1) {
					t.Fatalf("partition %d: unattached door %d reads %v / %v by row, want +Inf", p, d, x, y)
				}
				if _, ok := m.Dist(a, did); ok {
					t.Fatalf("partition %d: Matrix.Dist with unattached door %d reports ok", p, d)
				}
			}
			if d, ok := m.Dist(did, did); ok {
				t.Fatalf("partition %d: Matrix.Dist(%d, %d) of an unattached door = %v, ok", p, did, did, d)
			}
		}
		for _, bad := range []model.DoorID{model.NoDoor, model.DoorID(v.DoorCount())} {
			if !math.IsInf(s.PointToDoor(pid, pt, bad), 1) {
				t.Fatalf("partition %d: PointToDoor of door %d must be +Inf", p, bad)
			}
			for _, a := range doors {
				if !math.IsInf(s.Dist(pid, a, bad), 1) || !math.IsInf(s.Dist(pid, bad, a), 1) ||
					!math.IsInf(s.Row(pid, a).Dist(bad), 1) || !math.IsInf(s.Row(pid, bad).Dist(a), 1) {
					t.Fatalf("partition %d: Dist with door %d must be +Inf", p, bad)
				}
			}
		}
		clear(attached)
	}
}

func TestDMatrixMatchesReferencePresets(t *testing.T) {
	for name, v := range presetVenues(t) {
		t.Run(name, func(t *testing.T) {
			s, err := dmat.Build(v)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstReference(t, v, s)
		})
	}
}

// randomVenue builds a small venue from a byte stream: a few
// partitions on two floors (the last may be a stairwell), doors joining
// random partition pairs (a few also a third) at random positions, and distance overrides on
// random attached door pairs. It returns nil when the stream describes
// a venue the model rejects.
func randomVenue(data []byte) *model.Venue {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		c := int(data[0])
		data = data[1:]
		return c
	}
	b := model.NewBuilder("dm-fuzz")
	np := 2 + next()%6
	parts := make([]model.PartitionID, np)
	floors := make([]int, np)
	for i := range parts {
		if next()%8 == 0 {
			floors[i] = 1
		}
		r := geom.NewRect(float64(i)*10, 0, float64(i)*10+10, 10, floors[i])
		if i == np-1 && next()%2 == 0 {
			parts[i] = b.AddStairwell("", r)
		} else {
			parts[i] = b.AddPartition("", model.PublicPartition, r)
		}
	}
	nd := 1 + next()%14
	attachedTo := make([][]model.DoorID, np)
	for i := 0; i < nd; i++ {
		pa, pb := next()%np, next()%np
		if pa == pb {
			pb = (pb + 1) % np
		}
		// Doors mostly lie on their first partition's floor; the rest
		// exercise stairwells and the cross-floor error.
		x, y, floor := float64(next()%64)/2, float64(next()%32)/2, floors[pa]
		if next()%16 == 0 {
			floor = 1 - floor
		}
		d := b.AddDoor("", model.PublicDoor, geom.Pt(x, y, floor), nil)
		b.ConnectBi(d, parts[pa], parts[pb])
		attachedTo[pa] = append(attachedTo[pa], d)
		attachedTo[pb] = append(attachedTo[pb], d)
		// Some doors also open one way into a third partition, so a
		// door's slot list can be longer than two.
		if pc := next() % np; next()%8 == 0 && pc != pa && pc != pb {
			b.ConnectOneWay(d, parts[pb], parts[pc])
			attachedTo[pc] = append(attachedTo[pc], d)
		}
	}
	for k := next() % 4; k > 0; k-- {
		p := next() % np
		if len(attachedTo[p]) < 2 {
			continue
		}
		d1, d2 := attachedTo[p][next()%len(attachedTo[p])], attachedTo[p][next()%len(attachedTo[p])]
		if d1 != d2 {
			b.SetDistance(parts[p], d1, d2, float64(next()))
		}
	}
	v, err := b.Build()
	if err != nil {
		return nil
	}
	return v
}

// checkRandom builds the DM of a random venue and checks it against the
// reference. Build must fail exactly when some attached door pair has no
// reference distance (doors on two floors of a non-stairwell partition
// without an override).
func checkRandom(t *testing.T, data []byte) {
	v := randomVenue(data)
	if v == nil {
		return
	}
	var refErr error
	for p := 0; p < v.PartitionCount() && refErr == nil; p++ {
		doors := v.DoorsOf(model.PartitionID(p))
		for i, a := range doors {
			for _, b := range doors[i+1:] {
				if _, err := dmat.DoorDistance(v, model.PartitionID(p), a, b); err != nil && refErr == nil {
					refErr = err
				}
			}
		}
	}
	s, err := dmat.Build(v)
	if (err != nil) != (refErr != nil) {
		t.Fatalf("Build error %v, reference error %v", err, refErr)
	}
	if err == nil {
		checkAgainstReference(t, v, s)
	}
}

func TestDMatrixMatchesReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	data := make([]byte, 96)
	for trial := 0; trial < 300; trial++ {
		rng.Read(data)
		checkRandom(t, data)
	}
}

func FuzzDMatrix(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 1, 1, 5, 10, 4, 0, 0, 1, 20, 8, 1, 1, 2, 2, 1, 0, 1, 7})
	f.Add([]byte{1, 0, 1, 0, 3, 40, 6, 0, 0, 1, 40, 6, 1, 1, 0, 2, 0, 0, 1, 0, 9})
	f.Fuzz(checkRandom)
}

// TestBuildAllocsConstant pins Build's allocation count: the set is a
// fixed number of flat tables, so the mall's 700-odd partitions cost no
// more allocations than the 20-odd of Figure 1.
func TestBuildAllocsConstant(t *testing.T) {
	vs := presetVenues(t)
	allocs := func(v *model.Venue) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := dmat.Build(v); err != nil {
				t.Fatal(err)
			}
		})
	}
	mall, fig := allocs(vs["mall"]), allocs(vs["figure1"])
	t.Logf("Build allocates %v times", mall)
	if mall > 6 || mall != fig {
		t.Fatalf("Build allocates %v times on the mall (%d partitions) and %v on Figure 1 (%d), want the same constant <= 6",
			mall, vs["mall"].PartitionCount(), fig, vs["figure1"].PartitionCount())
	}
}

// TestSetMemoryBytes pins MemoryBytes to the tables' real size: the
// distinct triangle entries, one 16-byte record per partition, one
// offset per door and one 8-byte slot per (door, partition) attachment.
// The live heap a Build retains must agree with it.
func TestSetMemoryBytes(t *testing.T) {
	for name, v := range presetVenues(t) {
		entries, slots := 0, 0
		for p := 0; p < v.PartitionCount(); p++ {
			n := len(v.DoorsOf(model.PartitionID(p)))
			entries += n * (n - 1) / 2
			slots += n
		}
		want := int(unsafe.Sizeof(dmat.Set{})) + 8*entries + 16*v.PartitionCount() + 4*(v.DoorCount()+1) + 8*slots

		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		s, err := dmat.Build(v)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		live := int(after.HeapAlloc) - int(before.HeapAlloc)
		runtime.KeepAlive(s)

		if got := s.MemoryBytes(); got != want {
			t.Errorf("%s: MemoryBytes = %d, want %d", name, got, want)
		}
		// Allocation size classes round up by at most an eighth, large
		// ones to a page.
		if live > want+want/8+8<<10 {
			t.Errorf("%s: Build retains %d B of heap, MemoryBytes reports %d", name, live, want)
		}
		t.Logf("%s: %d partitions, %d doors, %d entries: MemoryBytes %d, live heap %d", name,
			v.PartitionCount(), v.DoorCount(), entries, want, live)
	}
}
