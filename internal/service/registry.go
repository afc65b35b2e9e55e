package service

import "sync"

// registry holds a server's jobs or its sweeps by ID, in submission
// order. Past its bound it evicts the oldest entries that reached a
// terminal state; live entries are never evicted, so it may
// transiently hold more than the bound.
type registry[T interface{ currentState() State }] struct {
	limit int

	mu      sync.Mutex
	entries map[string]T
	order   []string // submission order, for listing and eviction
}

func newRegistry[T interface{ currentState() State }](limit int) *registry[T] {
	return &registry[T]{limit: limit, entries: make(map[string]T)}
}

// add stores an entry and evicts the oldest finished entries past the
// bound. It reads entries' states only while something is left to
// evict.
func (r *registry[T]) add(id string, e T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries[id] = e
	r.order = append(r.order, id)
	excess := len(r.order) - r.limit
	if excess <= 0 {
		return
	}
	kept := r.order[:0]
	for i, id := range r.order {
		if excess == 0 {
			kept = append(kept, r.order[i:]...)
			break
		}
		if r.entries[id].currentState().Terminal() {
			delete(r.entries, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	r.order = kept
}

func (r *registry[T]) get(id string) (T, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries[id]
	return e, ok
}

// all returns the entries in submission order.
func (r *registry[T]) all() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]T, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.entries[id])
	}
	return out
}

// active counts the entries not yet in a terminal state.
func (r *registry[T]) active() int {
	n := 0
	for _, e := range r.all() {
		if !e.currentState().Terminal() {
			n++
		}
	}
	return n
}
