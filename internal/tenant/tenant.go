// Package tenant provides the sharded concurrent map underneath the
// facade's multi-stream Registry: thousands of independently-tracked
// streams keyed by id, with striped locks so concurrent lookups from
// ingest goroutines never serialize on one mutex. The networked
// coordinator (internal/wire) holds its per-stream state in the same map,
// so frames of different streams never contend there either.
//
// The map is deliberately dumber than sync.Map: entries are long-lived
// tracker handles, the read path must not allocate (the registry's
// 0 allocs/row budget includes the Get on every hot-path lookup), and
// creation must be able to fail — so each shard is a plain map behind an
// RWMutex, and LoadOrCreate runs the constructor under the shard's write
// lock, guaranteeing exactly one constructor call per key even under
// concurrent opens.
package tenant

import (
	"runtime"
	"sync"
)

// Map is a sharded string-keyed concurrent map. Construct with NewMap;
// the zero value is not usable.
type Map[V any] struct {
	shards []shard[V]
	mask   uint64
}

type shard[V any] struct {
	mu sync.RWMutex
	m  map[string]V
	// Pad shards to their own cache lines so one shard's lock traffic does
	// not false-share with its neighbours under per-core ownership.
	_ [40]byte
}

// NewMap returns a map with the given shard count, rounded up to a power
// of two (≤0 derives the count from GOMAXPROCS, at least 8 — roughly one
// shard per core with headroom so hash skew rarely doubles up).
func NewMap[V any](shards int) *Map[V] {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0) * 4
		if shards < 8 {
			shards = 8
		}
	}
	n := 1
	for n < shards {
		n <<= 1
	}
	m := &Map[V]{shards: make([]shard[V], n), mask: uint64(n - 1)}
	for i := range m.shards {
		m.shards[i].m = make(map[string]V)
	}
	return m
}

// fnv1a hashes the key without allocating (FNV-1a, 64-bit).
func fnv1a(key string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime
	}
	return h
}

func (m *Map[V]) shard(key string) *shard[V] {
	return &m.shards[fnv1a(key)&m.mask]
}

// ShardOf returns the index of the shard owning key — a stable,
// alloc-free hash assignment in [0, Shards()). Ingest planes use it to
// give worker goroutines shard-ownership of streams: routing each key to
// worker ShardOf(key) % workers keeps a stream's hot path on one worker
// (no cross-worker handoff) and keeps each worker's lock traffic inside
// its own shard stripe.
func (m *Map[V]) ShardOf(key string) int {
	return int(fnv1a(key) & m.mask)
}

// Shards returns the shard count (a power of two).
func (m *Map[V]) Shards() int { return len(m.shards) }

// Get returns the value for key. It takes only the shard's read lock and
// performs no allocations.
func (m *Map[V]) Get(key string) (V, bool) {
	s := m.shard(key)
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	return v, ok
}

// LoadOrCreate returns the existing value for key, or stores and returns
// the one built by create. The constructor runs under the shard's write
// lock, so exactly one create call happens per key no matter how many
// goroutines race; a constructor error stores nothing and is returned.
// Only the shard owning key is blocked while create runs.
func (m *Map[V]) LoadOrCreate(key string, create func() (V, error)) (v V, created bool, err error) {
	s := m.shard(key)
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	if ok {
		return v, false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok = s.m[key]; ok {
		return v, false, nil
	}
	v, err = create()
	if err != nil {
		var zero V
		return zero, false, err
	}
	s.m[key] = v
	return v, true, nil
}

// Delete removes key and returns the removed value, if any.
func (m *Map[V]) Delete(key string) (V, bool) {
	s := m.shard(key)
	s.mu.Lock()
	v, ok := s.m[key]
	if ok {
		delete(s.m, key)
	}
	s.mu.Unlock()
	return v, ok
}

// Len returns the total entry count across shards. The count is a
// point-in-time sum: entries may move underneath a concurrent churn.
func (m *Map[V]) Len() int {
	n := 0
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls fn for every entry until fn returns false. Each shard is
// snapshotted under its read lock and iterated outside it, so fn may call
// back into the map (including Delete) without deadlocking; entries added
// or removed while Range runs may or may not be visited.
func (m *Map[V]) Range(fn func(key string, v V) bool) {
	type kv struct {
		k string
		v V
	}
	var buf []kv
	for i := range m.shards {
		s := &m.shards[i]
		s.mu.RLock()
		buf = buf[:0]
		for k, v := range s.m {
			buf = append(buf, kv{k, v})
		}
		s.mu.RUnlock()
		for _, e := range buf {
			if !fn(e.k, e.v) {
				return
			}
		}
	}
}

// Keys returns every key, in unspecified order.
func (m *Map[V]) Keys() []string {
	out := make([]string, 0, m.Len())
	m.Range(func(k string, _ V) bool {
		out = append(out, k)
		return true
	})
	return out
}
