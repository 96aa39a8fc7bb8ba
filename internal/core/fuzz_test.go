package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"netdiag/internal/topology"
)

// The fuzz targets drive the hitting-set entry points with arbitrary
// byte strings decoded into small measurement meshes. Three properties
// are enforced: no input may panic (malformed meshes must surface as
// *ValidationError), diagnosis is a pure function of its input —
// decoding and diagnosing the same bytes twice yields identical
// results, hypothesis order included — and the default engine agrees
// with the EngineMap reference byte for byte on the wire and in the
// error text.

// fuzzReader doles out bytes, yielding zero once the input is spent, so
// every byte string decodes to some (possibly invalid) measurement set.
type fuzzReader struct {
	data []byte
	i    int
}

func (r *fuzzReader) next() byte {
	if r.i >= len(r.data) {
		return 0
	}
	v := r.data[r.i]
	r.i++
	return v
}

// decodeMeasurements maps a byte string onto a measurement mesh. The
// node pool is deliberately tiny so before/after paths collide and the
// set-cover machinery gets real work; sensor indices stray one past the
// valid range now and then so validation failures are exercised too.
func decodeMeasurements(data []byte) *Measurements {
	r := &fuzzReader{data: data}
	ns := 2 + int(r.next()%4)
	m := &Measurements{NumSensors: ns}
	for mesh := 0; mesh < 2; mesh++ {
		n := int(r.next() % 6)
		for i := 0; i < n; i++ {
			p := &TracePath{
				SrcSensor: int(r.next()) % (ns + 1),
				DstSensor: int(r.next()) % (ns + 1),
				OK:        r.next()%2 == 0,
			}
			nh := int(r.next() % 5)
			for j := 0; j < nh; j++ {
				p.Hops = append(p.Hops, Hop{
					Node:         Node(fmt.Sprintf("h%d", r.next()%12)),
					AS:           topology.ASN(1 + r.next()%3),
					Unidentified: r.next()%5 == 0,
				})
			}
			if mesh == 0 {
				m.Before = append(m.Before, p)
			} else {
				m.After = append(m.After, p)
			}
		}
	}
	return m
}

func checkDiagnosis(t *testing.T, name string, run func() (*Result, error)) {
	t.Helper()
	r1, err1 := run()
	r2, err2 := run()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s: nondeterministic error: %v vs %v", name, err1, err2)
	}
	if err1 != nil {
		if err1.Error() != err2.Error() {
			t.Fatalf("%s: nondeterministic error text: %q vs %q", name, err1, err2)
		}
		return
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("%s: nondeterministic result:\n%+v\nvs\n%+v", name, r1, r2)
	}
	for i := 1; i < len(r1.Hypothesis); i++ {
		a, b := r1.Hypothesis[i-1].Link, r1.Hypothesis[i].Link
		if a.From > b.From || (a.From == b.From && a.To > b.To) {
			t.Fatalf("%s: hypothesis not sorted by link: %v before %v", name, a, b)
		}
	}
}

// checkEngines runs the default engine and the EngineMap reference on the
// same input and requires identical error text or identical wire bytes.
func checkEngines(t *testing.T, name string, m *Measurements, opts Options) {
	t.Helper()
	got, gerr := Run(m, opts)
	opts.Engine = EngineMap
	want, werr := Run(m, opts)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s: engines disagree on the error: %v vs reference %v", name, gerr, werr)
	}
	if gerr != nil {
		return
	}
	var gb, wb bytes.Buffer
	if err := got.Wire(name).Encode(&gb); err != nil {
		t.Fatal(err)
	}
	if err := want.Wire(name).Encode(&wb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatalf("%s: engines disagree\ndefault: %s\nreference: %s", name, gb.String(), wb.String())
	}
}

// fuzzVariants are the option sets the fuzz target diagnoses under: every
// front-half mode (no expansion, per-neighbor and per-prefix expansion,
// and partial traces).
var fuzzVariants = []struct {
	name string
	opts Options
}{
	{"tomo", Options{}},
	{"nd-edge", Options{LogicalLinks: true, UseReroutes: true}},
	{"nd-edge-per-prefix", Options{LogicalLinks: true, UseReroutes: true, PerPrefixLogical: true}},
	{"nd-edge-partial", Options{LogicalLinks: true, UseReroutes: true, UsePartialTraces: true}},
}

func FuzzDiagnose(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 0, 1, 1, 0, 2, 1, 2, 3, 1, 0, 2, 1, 1, 0, 1, 4, 5, 1, 3})
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef"))
	f.Add([]byte{3, 4, 0, 1, 0, 3, 10, 1, 0, 11, 2, 1, 12, 3, 0, 1, 0, 1, 3, 10, 1, 0, 13, 2, 1, 12, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, v := range fuzzVariants {
			checkDiagnosis(t, v.name, func() (*Result, error) {
				return Run(decodeMeasurements(data), v.opts)
			})
			checkEngines(t, v.name, decodeMeasurements(data), v.opts)
		}
	})
}
