package core

import (
	"netdiag/internal/topology"
)

// This file holds the control-plane inputs of ND-bgpigp (§3.3): IGP
// link-down events from AS-X's own network and BGP withdrawals observed at
// AS-X's border routers, plus the failure-set trimming the withdrawals
// enable.

// Withdrawal is a BGP withdrawal as seen by the troubleshooter: border
// router At stopped receiving, from eBGP neighbor From, the route for a
// prefix covering the sensors in DstSensors. Per the paper, only the most
// specific prefix for a destination should be reported here.
type Withdrawal struct {
	At, From   Node
	DstSensors []int
}

// RoutingInfo is the control-plane information available to AS-X.
type RoutingInfo struct {
	ASX topology.ASN
	// IGPDownLinks are the directed diagnosis-space links corresponding to
	// failed intra-AS-X physical links (both directions of each). The
	// troubleshooter adds them to the hypothesis set directly.
	IGPDownLinks []Link
	// Withdrawals observed at AS-X after the failure event.
	Withdrawals []Withdrawal
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
