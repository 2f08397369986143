// Package percpu gives each processor (each P of the Go scheduler) its own
// copy of a word that every request would otherwise write, so requests
// running on different cores do not pass one cache line back and forth.
// What that traffic costs depends on where the machine placed the cores,
// so on a path of a few hundred nanoseconds it sets both the speed and how
// much the speed varies from run to run.
//
// Index finds a processor's copy through a sync.Pool: an object taken and
// put back on one P stays in that P's private slot. It is an affinity
// hint, not an identity (a goroutine may move, and two processors may
// share a copy), so every user must be correct with any index.
package percpu

import (
	"sync"
	"sync/atomic"
)

// Slots is the number of copies a user keeps. Index hands them out in
// turn, and a processor is handed a new one whenever its pool lost the
// old (a goroutine moved between taking it and putting it back), so
// copies beyond the number of processors keep two processors from ending
// up on one copy.
const Slots = 16

// Pad separates the copies: a cache line and the adjacent line that the
// prefetcher moves with it.
const Pad = 128

var (
	nextIndex atomic.Uint32
	indexes   = sync.Pool{New: func() any {
		i := int(nextIndex.Add(1)-1) % Slots
		return &i
	}}
)

// Index returns the copy the calling goroutine's processor uses, in
// [0, Slots). The pool stores a pointer, so it allocates nothing once the
// processor holds an index.
func Index() int {
	p := indexes.Get().(*int)
	i := *p
	indexes.Put(p)
	return i
}

// RWMutex is a reader-writer lock whose readers lock only their own
// processor's copy. A writer locks all Slots copies, so it suits data
// read on every request and written rarely. The zero value is unlocked.
type RWMutex struct {
	copies [Slots]struct {
		mu sync.RWMutex
		_  [Pad]byte
	}
}

// RLock read-locks one copy and returns its index for RUnlock.
//
//alpacomm:hotpath
func (m *RWMutex) RLock() int {
	i := Index()
	m.copies[i].mu.RLock()
	return i
}

// RUnlock releases the read lock RLock returned i for.
//
//alpacomm:hotpath
func (m *RWMutex) RUnlock(i int) { m.copies[i].mu.RUnlock() }

// Lock write-locks every copy, excluding all readers and writers.
func (m *RWMutex) Lock() {
	for i := range m.copies {
		m.copies[i].mu.Lock()
	}
}

// Unlock releases a write lock.
func (m *RWMutex) Unlock() {
	for i := range m.copies {
		m.copies[i].mu.Unlock()
	}
}
