package percpu

import (
	"sync"
	"testing"
)

func TestIndexInRange(t *testing.T) {
	for n := 0; n < 1000; n++ {
		if i := Index(); i < 0 || i >= Slots {
			t.Fatalf("Index() = %d, want [0, %d)", i, Slots)
		}
	}
}

// TestRWMutexExcludes: a writer never overlaps a reader or another writer
// (a plain map under the lock would also trip -race if it did), and every
// read sees a state some writer left.
func TestRWMutexExcludes(t *testing.T) {
	var mu RWMutex
	m := map[int]int{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for n := 0; n < 2000; n++ {
				if n%10 == 0 {
					mu.Lock()
					m[0]++
					m[1] = m[0]
					mu.Unlock()
					continue
				}
				i := mu.RLock()
				a, b := m[0], m[1]
				mu.RUnlock(i)
				if a != b {
					t.Errorf("reader saw a half-done write: %d != %d", a, b)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if m[0] != 4*200 {
		t.Errorf("writes = %d, want %d", m[0], 4*200)
	}
}

func TestHotPathAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items")
	}
	var mu RWMutex
	Index() // the first call on a processor allocates its index
	if n := testing.AllocsPerRun(1000, func() { mu.RUnlock(mu.RLock()) }); n != 0 {
		t.Errorf("RLock and RUnlock allocate %.1f times per run", n)
	}
}
