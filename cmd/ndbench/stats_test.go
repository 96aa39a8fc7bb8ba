package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50} // the classic nearest-rank example
	for _, c := range []struct {
		p      float64
		v      float64
		beyond int
	}{
		{5, 15, 4},
		{30, 20, 3},
		{40, 20, 3},
		{50, 35, 2},
		{100, 50, 0},
	} {
		v, beyond := percentile(xs, c.p)
		if v != c.v || beyond != c.beyond {
			t.Errorf("p%v = %v (%d beyond), want %v (%d beyond)", c.p, v, beyond, c.v, c.beyond)
		}
	}
	// Order of the input does not matter and the input is left alone.
	shuffled := []float64{50, 15, 40, 20, 35}
	if v, _ := percentile(shuffled, 50); v != 35 || shuffled[0] != 50 {
		t.Errorf("p50 of shuffled input = %v, input now %v", v, shuffled)
	}
	// With 1000 samples p95 leaves 50 beyond it, p99 only 10.
	var many []float64
	for i := 1; i <= 1000; i++ {
		many = append(many, float64(i))
	}
	if v, beyond := percentile(many, 95); v != 950 || beyond != 50 {
		t.Errorf("p95 of 1..1000 = %v (%d beyond), want 950 (50 beyond)", v, beyond)
	}
	if v, beyond := percentile(many, 99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %v (%d beyond), want 990 (10 beyond)", v, beyond)
	}
	if v, beyond := percentile(nil, 50); v != 0 || beyond != 0 {
		t.Errorf("p50 of nothing = %v (%d beyond)", v, beyond)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4), which
	// extrapolates for tiny inputs; it refuses a single value, which here
	// is its own quartiles.
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{4, 2}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}
