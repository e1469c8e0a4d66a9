package pqueue

import (
	"sort"
	"testing"
)

// refHeap is the differential reference: the queued (key, prio) pairs
// kept sorted by priority, scanned linearly.
type refHeap struct{ items []Item }

func (r *refHeap) find(key int32) int {
	for i, it := range r.items {
		if it.Key == key {
			return i
		}
	}
	return -1
}

func (r *refHeap) push(key int32, prio float64) {
	if i := r.find(key); i >= 0 {
		r.items = append(r.items[:i], r.items[i+1:]...)
	}
	r.items = append(r.items, Item{Key: key, Prio: prio})
	sort.SliceStable(r.items, func(i, j int) bool { return r.items[i].Prio < r.items[j].Prio })
}

func (r *refHeap) remove(key int32) {
	i := r.find(key)
	r.items = append(r.items[:i], r.items[i+1:]...)
}

// FuzzHeap drives random push, decrease-key, increase-key, pop and
// reset sequences against refHeap. Each input byte pair is one
// operation; keys range past the initial size hint so the position
// slice must grow. Pops are compared by priority (equal priorities may
// leave in either order) and the popped key must hold that priority.
// After every operation Len, MaxLen, Contains and Prio must agree with
// the reference for every key ever pushed, and after a Reset no
// position may remain set.
func FuzzHeap(f *testing.F) {
	f.Add(uint8(4), []byte{0, 10, 0, 20, 3, 0, 1, 5, 2, 9, 3, 0, 3, 0})
	f.Add(uint8(0), []byte{0, 200, 8, 77, 16, 3, 1, 1, 3, 0, 4, 0, 0, 1, 3, 0})
	f.Add(uint8(64), []byte{0, 1, 0, 1, 0, 1, 2, 0, 2, 1, 1, 0, 3, 3, 3, 3, 4, 4})
	// Reset with keys still queued, one of them past the size hint.
	f.Add(uint8(2), []byte{0, 10, 5, 20, 250, 7, 4, 0, 0, 3, 3, 0})
	f.Fuzz(func(t *testing.T, hint uint8, ops []byte) {
		h := New(int(hint) % 32)
		var ref refHeap
		maxLen, maxKey := 0, int32(-1)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op % 5 {
			case 0: // push: insert, or update a queued key
				key := int32(op/5)*8 + int32(arg%8) // keys 0..415
				prio := float64(arg / 8)            // coarse: ties are common
				h.Push(key, prio)
				ref.push(key, prio)
				maxKey = max(maxKey, key)
			case 1, 2: // decrease / increase an existing key
				if len(ref.items) == 0 {
					continue
				}
				it := ref.items[int(arg)%len(ref.items)]
				delta := float64(op/5%4) + 0.5
				if op%5 == 1 {
					delta = -delta
				}
				h.Push(it.Key, it.Prio+delta)
				ref.push(it.Key, it.Prio+delta)
			case 3:
				got, ok := h.Pop()
				if ok != (len(ref.items) > 0) {
					t.Fatalf("op %d: Pop ok=%v with %d queued", i/2, ok, len(ref.items))
				}
				if !ok {
					continue
				}
				if got.Prio != ref.items[0].Prio {
					t.Fatalf("op %d: popped prio %v, want %v", i/2, got.Prio, ref.items[0].Prio)
				}
				j := ref.find(got.Key)
				if j < 0 || ref.items[j].Prio != got.Prio {
					t.Fatalf("op %d: popped %+v, not queued at that priority", i/2, got)
				}
				ref.remove(got.Key)
			case 4:
				h.Reset()
				ref.items = ref.items[:0]
				maxLen = 0
				for k, p := range h.pos {
					if p != 0 {
						t.Fatalf("op %d: Reset left key %d at position %d", i/2, k, p-1)
					}
				}
			}
			maxLen = max(maxLen, len(ref.items))
			if h.Len() != len(ref.items) || h.MaxLen() != maxLen {
				t.Fatalf("op %d: Len/MaxLen %d/%d, want %d/%d", i/2, h.Len(), h.MaxLen(), len(ref.items), maxLen)
			}
			for k := int32(0); k <= maxKey; k++ {
				p, ok := h.Prio(k)
				j := ref.find(k)
				if ok != (j >= 0) || h.Contains(k) != ok || (ok && p != ref.items[j].Prio) {
					t.Fatalf("op %d: key %d: Prio=%v,%v Contains=%v, reference queued=%v", i/2, k, p, ok, h.Contains(k), j >= 0)
				}
			}
		}
	})
}
