package main

import (
	"encoding/json"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"gputrid"
)

func dominant(s system, from int) bool {
	for i := from; i < len(s.Diag); i++ {
		if math.Abs(s.Diag[i]) <= math.Abs(s.Lower[i])+math.Abs(s.Upper[i]) {
			return false
		}
	}
	return s.Lower[0] == 0 && s.Upper[len(s.Upper)-1] == 0
}

func TestServeInputsSeeded(t *testing.T) {
	a, b, c := serveSystems(3), serveSystems(3), serveSystems(4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different systems")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same systems")
	}
	if len(a) != len(serveSizes)*variantsPerSize {
		t.Fatalf("%d systems", len(a))
	}
	for i, s := range a {
		if n := serveSizes[i/variantsPerSize]; len(s.Diag) != n || !dominant(s, 0) {
			t.Fatalf("system %d: n=%d (want %d), dominant %v", i, len(s.Diag), n, dominant(s, 0))
		}
	}
	p1 := opPicks(newRNG(3, streamSchedule), 100, len(a))
	p2 := opPicks(newRNG(3, streamSchedule), 100, len(a))
	if !reflect.DeepEqual(p1, p2) {
		t.Error("op picks not seeded")
	}
}

// One hard (zero-leading-diagonal) input per hardShare ops, drawn the
// same way for the same seed.
func TestHardInputShare(t *testing.T) {
	for _, c := range []struct{ ops, want int }{{0, 1}, {1, 1}, {256, 1}, {257, 2}, {1659, 7}} {
		if got := len(hardSystems(5, c.ops)); got != c.want {
			t.Errorf("%d ops: %d hard inputs, want %d", c.ops, got, c.want)
		}
	}
	h := hardSystems(5, 1000)
	if !reflect.DeepEqual(h, hardSystems(5, 1000)) {
		t.Fatal("hard inputs not seeded")
	}
	for i, s := range h {
		if s.Diag[0] != 0 || !dominant(s, 1) || len(s.Diag) != serveSizes[i%len(serveSizes)] {
			t.Errorf("hard input %d: diag[0]=%v, rest dominant %v, n=%d", i, s.Diag[0], dominant(s, 1), len(s.Diag))
		}
	}
}

func TestADIAndDistInputsSeeded(t *testing.T) {
	if !reflect.DeepEqual(heatModes(9), heatModes(9)) || reflect.DeepEqual(heatModes(9), heatModes(10)) {
		t.Error("heat modes not seeded")
	}
	a, b := distBatch(9, 0, 2, 64), distBatch(9, 0, 2, 64)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, distBatch(9, 1, 2, 64)) {
		t.Error("dist batches not seeded")
	}
	for i := 0; i < a.M; i++ {
		lo, hi := i*a.N, (i+1)*a.N
		if !dominant(system{a.Lower[lo:hi], a.Diag[lo:hi], a.Upper[lo:hi], a.RHS[lo:hi]}, 0) {
			t.Errorf("dist system %d not diagonally dominant", i)
		}
	}
}

func TestCheckClassifiesResponses(t *testing.T) {
	s := ddSystem(newRNG(1, 98), 64)
	x, err := gputrid.SolveCPU(s.batch())
	if err != nil {
		t.Fatal(err)
	}
	good, _ := json.Marshal(map[string]any{"x": x, "wait_ns": 5, "wall_ns": 7})
	wrong := append([]float64(nil), x...)
	wrong[3] += 1
	bad, _ := json.Marshal(map[string]any{"x": wrong})
	for _, c := range []struct {
		name   string
		ex     exchange
		ok     bool
		empty  bool
		reason string
	}{
		{"correct", exchange{status: http.StatusOK, body: good}, true, false, ""},
		{"empty 200", exchange{status: http.StatusOK}, false, true, "empty body"},
		{"typed error", exchange{status: http.StatusInternalServerError, body: []byte(`{"kind":"faulted"}`)}, false, false, "HTTP 500"},
		{"truncated", exchange{status: http.StatusOK, body: good[:20]}, false, false, "unparsable"},
		{"wrong x", exchange{status: http.StatusOK, body: bad}, false, false, "residual"},
		{"short x", exchange{status: http.StatusOK, body: []byte(`{"x":[1,2]}`)}, false, false, "entries"},
	} {
		o := check(s, &c.ex)
		if o.ok != c.ok || o.empty200 != c.empty || !strings.Contains(o.why, c.reason) {
			t.Errorf("%s: ok %v empty200 %v why %q", c.name, o.ok, o.empty200, o.why)
		}
		if c.ok && (o.wait != 5 || o.wall != 7) {
			t.Errorf("%s: server times %v %v", c.name, o.wait, o.wall)
		}
	}
}
