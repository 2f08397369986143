package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// flightGroup coalesces concurrent duplicate work: while a call for a key
// is in flight, later callers for the same key wait for its result instead
// of computing their own. Unlike a cache, nothing is retained once the
// call completes — retention is the PlanCache's job.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  interface{}
	err  error
}

// do runs fn for key, or — if an identical call is already in flight —
// waits for that call and returns its result. shared reports whether the
// result came from another caller's flight. A waiter whose ctx ends
// before the flight completes returns ctx.Err() immediately, so a
// disconnected client never pins its handler goroutine on a long
// computation it no longer wants (the leader itself is not cancellable —
// its result may still serve other waiters). A leader that was cancelled
// hands its own context error to every waiter; a waiter whose ctx is still
// live never had its call attempted, so it retries, leading (or joining) a
// fresh flight instead of inheriting a cancellation that was never its own.
//
// A panicking fn still releases the key and wakes its waiters with an
// error (the panic itself propagates to the leader's caller); otherwise
// one panic would poison the key for the life of the process, hanging
// every later request that coalesces onto the dead flight.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (interface{}, error)) (val interface{}, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = map[string]*flightCall{}
	}
	for {
		c, ok := g.m[key]
		if !ok {
			break
		}
		g.mu.Unlock()
		select {
		case <-c.done:
		case <-ctx.Done():
			return nil, ctx.Err(), true
		}
		inherited := errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded)
		if !inherited || ctx.Err() != nil {
			return c.val, c.err, true
		}
		g.mu.Lock()
	}
	c := &flightCall{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	finished := false
	defer func() {
		if !finished {
			c.val, c.err = nil, fmt.Errorf("service: in-flight call panicked")
		}
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		close(c.done)
	}()
	c.val, c.err = fn()
	finished = true
	return c.val, c.err, false
}
