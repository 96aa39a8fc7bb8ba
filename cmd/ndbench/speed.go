package main

import (
	"math/rand"
	"slices"
	"sync"
	"time"
)

// Machine-speed calibration. The benchmark's machine is a virtual machine
// on a shared host, and its speed drifts: the same program ran its
// requests 20% to 45% slower for stretches of seconds to minutes, with its
// processor time per request rising as much as its wall time, so neither
// longer windows nor processor time steady a timing. A fixed kernel that
// shares no code with netdiag, timed while the workload is paused, slows
// down with it.
//
// Every timing on the result line is therefore given at a reference speed:
// the measured time × calibRefMS ÷ the median of the kernel's times over
// all of the run's calibrations. One factor per run, from many
// calibrations, was steadier than scaling each timing by the calibration
// just before it, since a single calibration is itself noisy. On the
// machine the bounds were set on the kernel's median was about calibRefMS,
// so there the reference-speed milliseconds read about as wall-clock ones.
// The wall-clock medians and the kernel's median time are printed beside
// them.

// calibRefMS is the kernel's median time, in ms, on the 2-vCPU Xeon
// virtual machine the bounds were set on.
const calibRefMS = 5.0

// calibReps is how often each of loadClients goroutines runs the kernel
// per calibration; the calibration is the median of those runs.
const calibReps = 3

// The kernel's three parts, each about a third of its time on the
// reference machine. The host's drift is in the memory system rather than
// in arithmetic (a pure arithmetic loop barely slowed while the workloads
// slowed by a third), and each part tracked one workload best: sorting and
// map lookups the serving workloads, pointer chasing the 10k-sensor mesh.
const (
	calibSortLen = 1 << 14 // ints sorted per run
	calibMapLen  = 1 << 15 // map entries, each looked up twice per run
	calibChain   = 1 << 20 // int32 cells of the pointer chase (4 MiB)
	calibSteps   = 1 << 14 // pointer-chase steps per run
)

// calibKernel holds one goroutine's kernel inputs, built once, so that a
// run allocates nothing and cannot trigger a collection whose cost would
// depend on the program's heap.
type calibKernel struct {
	ints, work []int
	m          map[int]int
	keys       []int
	chain      []int32
}

func newCalibKernel() *calibKernel {
	rng := rand.New(rand.NewSource(1))
	k := &calibKernel{
		ints:  make([]int, calibSortLen),
		work:  make([]int, calibSortLen),
		m:     make(map[int]int, calibMapLen),
		keys:  make([]int, calibMapLen),
		chain: make([]int32, calibChain),
	}
	for i := range k.ints {
		k.ints[i] = rng.Int()
	}
	for i := range k.keys {
		k.keys[i] = rng.Int()
		k.m[k.keys[i]] = i
	}
	// One cycle through every cell, in random order.
	perm := rng.Perm(calibChain)
	for i, c := range perm {
		k.chain[c] = int32(perm[(i+1)%calibChain])
	}
	return k
}

// run executes the kernel once and returns a value derived from all of
// its work, so the compiler cannot drop any of it.
func (k *calibKernel) run() int {
	copy(k.work, k.ints)
	slices.Sort(k.work)
	sum := k.work[calibSortLen/2]
	for r := 0; r < 2; r++ {
		for _, key := range k.keys {
			sum += k.m[key]
		}
	}
	c := int32(0)
	for i := 0; i < calibSteps; i++ {
		c = k.chain[c]
	}
	return sum + int(c)
}

// calibrator times the kernel whenever the harness pauses the load; its
// factor turns the run's timings into reference-speed ones. A nil
// *calibrator measures nothing and has factor 1, so the traced pass, which
// reports wall-clock layer times, runs the same code. Calibrations must
// not overlap.
type calibrator struct {
	kernels [loadClients]*calibKernel
	ms      []float64 // each calibration's kernel time
	sink    int
}

func newCalibrator() *calibrator {
	c := &calibrator{}
	for i := range c.kernels {
		c.kernels[i] = newCalibKernel()
	}
	c.calibrate()
	return c
}

// calibrate runs the kernel calibReps times on each of loadClients
// goroutines at once, as the workloads load the machine, and records the
// median run time. Call it only while the workload is idle.
func (c *calibrator) calibrate() {
	if c == nil {
		return
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		runs []float64
	)
	for _, k := range c.kernels {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < calibReps; r++ {
				t0 := time.Now()
				v := k.run()
				d := time.Since(t0).Seconds() * 1e3
				mu.Lock()
				runs = append(runs, d)
				c.sink += v
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	c.ms = append(c.ms, median(runs))
}

// kernelMS returns the median of the calibrations' kernel times.
func (c *calibrator) kernelMS() float64 {
	if c == nil {
		return calibRefMS
	}
	return median(c.ms)
}

// factor turns a wall-clock time of this run into reference-speed time.
func (c *calibrator) factor() float64 {
	return calibRefMS / c.kernelMS()
}
