// Package pqueue implements the indexed binary min-heap used by the
// ITSPQ search (Algorithm 1 keeps a min-heap of ⟨door, dist⟩ pairs and
// needs decrease-key when a shorter path to an already-enqueued door is
// found).
//
// Keys are non-negative int32 handles (door IDs plus the two sentinel
// handles for the query's source and target points); priorities are
// float64 distances. Key positions live in a slice indexed by key, so
// a heap sized for a venue's handles never allocates once warm.
package pqueue

// Item is one heap entry.
type Item struct {
	Key  int32
	Prio float64
}

// Heap is an indexed binary min-heap over non-negative int32 keys. The
// zero value is not usable; call New. Pushing an existing key updates
// its priority (both decrease and increase are supported).
type Heap struct {
	items []Item
	// pos[key] is 1 + the key's index in items, or 0 when the key is not
	// queued; it grows to the largest key pushed.
	pos []int32
	// maxLen tracks the high-water mark of the heap, reported to the
	// experiment harness as part of the search memory footprint.
	maxLen int
}

// New returns an empty heap sized for keys below n.
func New(n int) *Heap {
	if n < 0 {
		n = 0
	}
	return &Heap{items: make([]Item, 0, n), pos: make([]int32, n)}
}

// Len returns the number of queued items.
func (h *Heap) Len() int { return len(h.items) }

// MaxLen returns the high-water mark of Len since the last Reset.
func (h *Heap) MaxLen() int { return h.maxLen }

// Reset empties the heap, retaining allocated capacity. It costs
// O(Len): only queued keys hold a position.
func (h *Heap) Reset() {
	for _, it := range h.items {
		h.pos[it.Key] = 0
	}
	h.items = h.items[:0]
	h.maxLen = 0
}

// Push inserts key with the given priority, or updates the priority if
// the key is already queued.
func (h *Heap) Push(key int32, prio float64) {
	if int(key) >= len(h.pos) {
		h.pos = append(h.pos, make([]int32, int(key)+1-len(h.pos))...)
	}
	if p := h.pos[key]; p != 0 {
		i := int(p) - 1
		old := h.items[i].Prio
		h.items[i].Prio = prio
		switch {
		case prio < old:
			h.up(i)
		case prio > old:
			h.down(i)
		}
		return
	}
	h.items = append(h.items, Item{Key: key, Prio: prio})
	i := len(h.items) - 1
	h.pos[key] = int32(i + 1)
	h.up(i)
	if len(h.items) > h.maxLen {
		h.maxLen = len(h.items)
	}
}

// Pop removes and returns the minimum-priority item. ok is false when
// the heap is empty.
func (h *Heap) Pop() (Item, bool) {
	if len(h.items) == 0 {
		return Item{}, false
	}
	top := h.items[0]
	last := len(h.items) - 1
	h.swap(0, last)
	h.items = h.items[:last]
	h.pos[top.Key] = 0
	if last > 0 {
		h.down(0)
	}
	return top, true
}

// Peek returns the minimum item without removing it.
func (h *Heap) Peek() (Item, bool) {
	if len(h.items) == 0 {
		return Item{}, false
	}
	return h.items[0], true
}

// Contains reports whether key is queued.
func (h *Heap) Contains(key int32) bool {
	return key >= 0 && int(key) < len(h.pos) && h.pos[key] != 0
}

// Prio returns the queued priority of key.
func (h *Heap) Prio(key int32) (float64, bool) {
	if !h.Contains(key) {
		return 0, false
	}
	return h.items[h.pos[key]-1].Prio, true
}

func (h *Heap) swap(i, j int) {
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.pos[h.items[i].Key] = int32(i + 1)
	h.pos[h.items[j].Key] = int32(j + 1)
}

func (h *Heap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].Prio <= h.items[i].Prio {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Heap) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.items[l].Prio < h.items[small].Prio {
			small = l
		}
		if r < n && h.items[r].Prio < h.items[small].Prio {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}
