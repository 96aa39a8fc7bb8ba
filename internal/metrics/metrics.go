// Package metrics implements the evaluation metrics of the paper (§4):
// sensitivity and specificity over links, their AS-level variants, and the
// distribution helpers (CDFs, means) used to reproduce the figures.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"netdiag/internal/core"
	"netdiag/internal/topology"
)

// Sensitivity is |F ∩ H| / |F|: the fraction of actually failed links the
// hypothesis recovers. It returns 1 for an empty F (nothing to find).
func Sensitivity(failed, hypothesis []core.Link) float64 {
	if len(failed) == 0 {
		return 1
	}
	h := toSet(hypothesis)
	tp := 0
	for _, f := range failed {
		if h[f] {
			tp++
		}
	}
	return float64(tp) / float64(len(failed))
}

// Specificity is |(E\F) ∩ (E\H)| / |E\F|: the fraction of non-failed
// probed links the hypothesis correctly leaves out. It returns 1 when
// every probed link failed.
func Specificity(universe, failed, hypothesis []core.Link) float64 {
	f := toSet(failed)
	h := toSet(hypothesis)
	nonFailed, trueNeg := 0, 0
	for _, l := range universe {
		if f[l] {
			continue
		}
		nonFailed++
		if !h[l] {
			trueNeg++
		}
	}
	if nonFailed == 0 {
		return 1
	}
	return float64(trueNeg) / float64(nonFailed)
}

// ASSensitivity is the AS-granularity sensitivity: the fraction of ASes
// containing failed links that appear in the hypothesis AS set.
func ASSensitivity(failedASes, hypASes []topology.ASN) float64 {
	if len(failedASes) == 0 {
		return 1
	}
	h := toASSet(hypASes)
	tp := 0
	for _, a := range failedASes {
		if h[a] {
			tp++
		}
	}
	return float64(tp) / float64(len(failedASes))
}

// ASSpecificity is the AS-granularity specificity over the ASes covered by
// the probes.
func ASSpecificity(coveredASes, failedASes, hypASes []topology.ASN) float64 {
	f := toASSet(failedASes)
	h := toASSet(hypASes)
	nonFailed, trueNeg := 0, 0
	for _, a := range coveredASes {
		if f[a] {
			continue
		}
		nonFailed++
		if !h[a] {
			trueNeg++
		}
	}
	if nonFailed == 0 {
		return 1
	}
	return float64(trueNeg) / float64(nonFailed)
}

func toSet(ls []core.Link) map[core.Link]bool {
	m := make(map[core.Link]bool, len(ls))
	for _, l := range ls {
		m[l] = true
	}
	return m
}

func toASSet(as []topology.ASN) map[topology.ASN]bool {
	m := make(map[topology.ASN]bool, len(as))
	for _, a := range as {
		m[a] = true
	}
	return m
}

// Dist is a collection of metric samples with distribution helpers.
type Dist struct {
	vals   []float64
	sorted bool
}

// Add appends a sample.
func (d *Dist) Add(v float64) {
	d.vals = append(d.vals, v)
	d.sorted = false
}

// N returns the sample count.
func (d *Dist) N() int { return len(d.vals) }

// Mean returns the sample mean (0 for an empty distribution).
func (d *Dist) Mean() float64 {
	if len(d.vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range d.vals {
		s += v
	}
	return s / float64(len(d.vals))
}

func (d *Dist) ensureSorted() {
	if !d.sorted {
		sort.Float64s(d.vals)
		d.sorted = true
	}
}

// Quantile returns the q-quantile (0 <= q <= 1) by nearest-rank.
func (d *Dist) Quantile(q float64) float64 {
	if len(d.vals) == 0 {
		return 0
	}
	d.ensureSorted()
	idx := int(math.Ceil(q*float64(len(d.vals)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(d.vals) {
		idx = len(d.vals) - 1
	}
	return d.vals[idx]
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	X float64 // value
	P float64 // fraction of samples <= X
}

// CDF returns the empirical CDF evaluated at each distinct sample value.
func (d *Dist) CDF() []CDFPoint {
	if len(d.vals) == 0 {
		return nil
	}
	d.ensureSorted()
	var out []CDFPoint
	n := float64(len(d.vals))
	for i := 0; i < len(d.vals); i++ {
		if i+1 < len(d.vals) && d.vals[i+1] == d.vals[i] {
			continue
		}
		out = append(out, CDFPoint{X: d.vals[i], P: float64(i+1) / n})
	}
	return out
}

// CDFAt returns P(sample <= x).
func (d *Dist) CDFAt(x float64) float64 {
	if len(d.vals) == 0 {
		return 0
	}
	d.ensureSorted()
	i := sort.SearchFloat64s(d.vals, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(d.vals))
}

// String summarizes the distribution for logs.
func (d *Dist) String() string {
	return fmt.Sprintf("n=%d mean=%.3f p10=%.3f p50=%.3f p90=%.3f",
		d.N(), d.Mean(), d.Quantile(0.10), d.Quantile(0.50), d.Quantile(0.90))
}

// AsciiCDF renders a compact terminal plot of one or more CDFs over [0,1]
// values, sampling P(value <= x) on a fixed grid. Used by cmd/ndsim to
// show the reproduced figures without a plotting stack.
func AsciiCDF(title string, series map[string]*Dist, width int) string {
	if width <= 0 {
		width = 11
	}
	var names []string
	for n := range series {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-28s", "x:")
	for i := 0; i < width; i++ {
		fmt.Fprintf(&b, " %5.2f", float64(i)/float64(width-1))
	}
	b.WriteByte('\n')
	for _, n := range names {
		d := series[n]
		fmt.Fprintf(&b, "%-28s", "CDF "+n+":")
		for i := 0; i < width; i++ {
			x := float64(i) / float64(width-1)
			fmt.Fprintf(&b, " %5.2f", d.CDFAt(x))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
