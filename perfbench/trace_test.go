package main

import (
	"testing"
	"time"
)

func sp(a, b time.Duration) span { return span{Start: a * msec, End: b * msec} }

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := sp(0, 100)
	for _, c := range []struct {
		name     string
		children []span
		want     time.Duration
	}{
		{"none", nil, 100 * msec},
		{"disjoint", []span{sp(10, 20), sp(50, 80)}, 60 * msec},
		{"overlapping count once", []span{sp(10, 40), sp(30, 60), sp(55, 58)}, 50 * msec},
		{"clipped to the parent", []span{sp(90, 130), sp(-20, 5)}, 85 * msec},
		{"nested", []span{sp(10, 90), sp(20, 30)}, 20 * msec},
		{"outside", []span{sp(100, 120)}, 100 * msec},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTracerSelfTimesFollowParents(t *testing.T) {
	tr := &tracer{}
	root := tr.add(span{Parent: -1, Name: "adi.step", Start: 0, End: 40 * msec})
	tr.add(span{Parent: root, Name: "core.solve", Start: 5 * msec, End: 20 * msec})
	tr.add(span{Parent: root, Name: "core.solve", Start: 22 * msec, End: 35 * msec})
	if got := tr.selfByName("adi.step"); len(got) != 1 || got[0] != 12*msec {
		t.Errorf("adi.step self = %v, want [12ms]", got)
	}
	if got := tr.durByName("core.solve"); len(got) != 2 || got[0] != 15*msec || got[1] != 13*msec {
		t.Errorf("core.solve durations = %v", got)
	}
	if layer("core.solve") != "core" || layer("op") != "op" {
		t.Errorf("layer names wrong")
	}
}
