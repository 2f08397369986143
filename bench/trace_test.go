package main

import (
	"testing"
	"time"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},      // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130},     // sticks out of the root
		{ID: 5, Parent: 2, Name: "a1", Start: 10, End: 25},     // grandchild: counts against a only
		{ID: 6, Parent: 1, Name: "d", Start: 35, End: 50},      // inside what a and b already cover
		{ID: 7, Name: "probe", Start: 200, End: 230},           // no children
		{ID: 8, Parent: 7, Name: "late", Start: 300, End: 310}, // entirely outside its parent
	}
	self := selfTimes(spans)
	// The root's children cover [10,60) and [90,100): 60 of its 100.
	for id, want := range map[int]int64{1: 40, 2: 15, 3: 30, 4: 40, 5: 15, 6: 15, 7: 30, 8: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestStagedChildrenAreLaidBackToBack(t *testing.T) {
	tr := newTracer()
	root, _ := tr.timed(7, 3, spanRoot, func() { time.Sleep(2 * time.Millisecond) })
	a := tr.child(root, "a", 300*time.Microsecond)
	b := tr.child(root, "b", 500*time.Microsecond)
	a1 := tr.child(a, "a1", 100*time.Microsecond)
	r, sa, sb, sa1 := tr.spans[root-1], tr.spans[a-1], tr.spans[b-1], tr.spans[a1-1]
	if sa.Start != r.Start || sb.Start != sa.End || sa1.Start != sa.Start {
		t.Errorf("children not laid in call order: root %+v a %+v b %+v a1 %+v", r, sa, sb, sa1)
	}
	if sa.Req != 7 || sb.Problem != 3 || sa1.Parent != a {
		t.Errorf("children do not inherit the request: %+v %+v %+v", sa, sb, sa1)
	}
	self := selfTimes(tr.spans)
	if got, want := self[root], r.dur()-800_000; got != want {
		t.Errorf("root self time %d, want %d", got, want)
	}
	if self[a] != 200_000 {
		t.Errorf("a's self time %d, want 200000", self[a])
	}
	var none *tracer
	if none.record(0, 0, "x", time.Now(), time.Now()) != 0 || none.child(1, "x", time.Second) != 0 {
		t.Error("a nil tracer must record nothing")
	}
}
