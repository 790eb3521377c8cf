package main

import (
	"math"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of no samples should be NaN")
	}
	if got := median([]float64{7}); got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
}

func TestSlowestQuarter(t *testing.T) {
	// Eight units in run order, 100 trials each; unit i takes i+1 seconds
	// except that units 4 and 5 are the slowest.
	secs := []float64{1, 2, 3, 4, 20, 30, 7, 8}
	var units []*unitResult
	for _, s := range secs {
		units = append(units, &unitResult{busyTrials: 100, busy: time.Duration(s * float64(time.Second))})
	}
	got := slowestQuarter(units, 1)
	if len(got) != 2 || got[0] != units[5] || got[1] != units[4] {
		t.Fatalf("slowest quarter of single units: got %v", got)
	}
	// Windows of two: {1,2} {3,4} {20,30} {7,8}; the slowest is {20,30}.
	got = slowestQuarter(units, 2)
	if len(got) != 2 || got[0] != units[4] || got[1] != units[5] {
		t.Fatalf("slowest window of two: got %v", got)
	}
	if r := rate(got); math.Abs(r-200.0/50) > 1e-9 {
		t.Fatalf("pooled rate %v, want 4 trials/s", r)
	}
	if got := slowestQuarter(units, 0); len(got) != len(units) {
		t.Fatalf("whole-run window kept %d of %d units", len(got), len(units))
	}
}
