package main

import (
	"testing"
	"time"
)

func TestSelfTimeIsDurationMinusChildren(t *testing.T) {
	// Two ops. Each root covers 100 ns with children of 10, 20 and 60 ns;
	// the 60 ns child has a 25 ns child of its own.
	var spans []span
	for op, base := range []int64{0, 1000} {
		root := len(spans)
		spans = append(spans,
			span{Name: "root", Op: op, Parent: -1, StartNS: base, EndNS: base + 100},
			span{Name: "a", Op: op, Parent: root, StartNS: base, EndNS: base + 10},
			span{Name: "b", Op: op, Parent: root, StartNS: base + 10, EndNS: base + 30},
			span{Name: "c", Op: op, Parent: root, StartNS: base + 30, EndNS: base + 90},
			span{Name: "d", Op: op, Parent: root + 3, StartNS: base + 40, EndNS: base + 65},
		)
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"root": 20, "a": 20, "b": 40, "c": 70, "d": 50}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %v, want %v", name, got[name], w)
		}
	}
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != 200 {
		t.Errorf("self times sum to %v, want the two roots' 200ns", sum)
	}
}

func TestRecorderNestsAndTimes(t *testing.T) {
	r := newRecorder()
	root := r.start("root", 3, -1)
	child := r.start("child", 3, root)
	r.end(child)
	r.end(root)
	if len(r.spans) != 2 || r.spans[child].Parent != root || r.spans[child].Op != 3 {
		t.Fatalf("spans = %+v", r.spans)
	}
	for _, s := range r.spans {
		if s.EndNS < s.StartNS {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if r.spans[child].StartNS < r.spans[root].StartNS || r.spans[child].EndNS > r.spans[root].EndNS {
		t.Error("child not inside its parent")
	}
}
