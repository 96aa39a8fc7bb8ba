package main

import "testing"

func TestCalibratorFactor(t *testing.T) {
	// The median of the kernel times, not the last or the mean, sets the
	// factor: one slow calibration does not move it.
	c := &calibrator{ms: []float64{2 * calibRefMS, 2 * calibRefMS, 40 * calibRefMS}}
	if got := c.factor(); got != 0.5 {
		t.Errorf("factor = %v, want 0.5", got)
	}
	if got := c.kernelMS(); got != 2*calibRefMS {
		t.Errorf("kernelMS = %v, want %v", got, 2*calibRefMS)
	}
	var none *calibrator
	none.calibrate()
	if got := none.factor(); got != 1 {
		t.Errorf("nil calibrator: factor %v, want 1", got)
	}
}

func TestCalibrateRecords(t *testing.T) {
	c := newCalibrator()
	c.calibrate()
	if len(c.ms) != 2 {
		t.Fatalf("%d calibrations recorded, want 2", len(c.ms))
	}
	for _, ms := range c.ms {
		if ms <= 0 {
			t.Errorf("kernel time %v, want positive", ms)
		}
	}
}

// TestCalibKernelDeterministic checks the kernel does the same work on
// every run and allocates nothing, so it cannot start a collection.
func TestCalibKernelDeterministic(t *testing.T) {
	k := newCalibKernel()
	want := k.run()
	if got := newCalibKernel().run(); got != want {
		t.Fatalf("fresh kernel returned %d, want %d", got, want)
	}
	if allocs := testing.AllocsPerRun(3, func() {
		if k.run() != want {
			t.Fatal("kernel result changed between runs")
		}
	}); allocs != 0 {
		t.Errorf("kernel run allocates %v times, want 0", allocs)
	}
}
