package core_test

import (
	"fmt"

	"netdiag/internal/core"
)

// ExampleRun diagnoses the paper's Figure 1 scenario with Tomo, the zero
// Options: the path s1->s2 breaks while s1->s3 keeps working, so only
// the four links the working path cannot exonerate remain suspects.
func ExampleRun() {
	hops := func(names ...string) []core.Hop {
		var hs []core.Hop
		for _, n := range names {
			hs = append(hs, core.Hop{Node: core.Node(n), AS: 1})
		}
		return hs
	}
	m := &core.Measurements{
		NumSensors: 3,
		Before: []*core.TracePath{
			{SrcSensor: 0, DstSensor: 1, OK: true,
				Hops: hops("s1", "r1", "r3", "r6", "r7", "r9", "r11", "s2")},
			{SrcSensor: 0, DstSensor: 2, OK: true,
				Hops: hops("s1", "r1", "r3", "r6", "r8", "r10", "s3")},
		},
		After: []*core.TracePath{
			{SrcSensor: 0, DstSensor: 1, OK: false,
				Hops: hops("s1", "r1", "r3", "r6", "r7", "r9")},
			{SrcSensor: 0, DstSensor: 2, OK: true,
				Hops: hops("s1", "r1", "r3", "r6", "r8", "r10", "s3")},
		},
	}
	res, err := core.Run(m, core.Options{})
	if err != nil {
		panic(err)
	}
	for _, h := range res.Hypothesis {
		fmt.Println(h.Link)
	}
	// Output:
	// r11->s2
	// r6->r7
	// r7->r9
	// r9->r11
}

// ExampleSCFS runs Duffield's tree baseline on the same Figure 1 tree:
// SCFS only marks the link nearest the source consistent with the bad
// destination.
func ExampleSCFS() {
	hops := func(names ...string) []core.Hop {
		var hs []core.Hop
		for _, n := range names {
			hs = append(hs, core.Hop{Node: core.Node(n)})
		}
		return hs
	}
	links, err := core.SCFS([]*core.TracePath{
		{SrcSensor: 0, DstSensor: 1, OK: false,
			Hops: hops("s1", "r1", "r3", "r6", "r7", "r9", "r11", "s2")},
		{SrcSensor: 0, DstSensor: 2, OK: true,
			Hops: hops("s1", "r1", "r3", "r6", "r8", "r10", "s3")},
	})
	if err != nil {
		panic(err)
	}
	for _, l := range links {
		fmt.Println(l)
	}
	// Output:
	// r6->r7
}

// ExampleDiagnosability computes D(G) for a two-path graph: the two a->b
// observations give the shared link its own hitting set.
func ExampleDiagnosability() {
	hops := func(names ...string) []core.Hop {
		var hs []core.Hop
		for _, n := range names {
			hs = append(hs, core.Hop{Node: core.Node(n)})
		}
		return hs
	}
	paths := []*core.TracePath{
		{SrcSensor: 0, DstSensor: 1, OK: true, Hops: hops("a", "b", "c")},
		{SrcSensor: 0, DstSensor: 2, OK: true, Hops: hops("a", "b")},
	}
	fmt.Printf("%.1f\n", core.Diagnosability(paths))
	// Output:
	// 1.0
}
