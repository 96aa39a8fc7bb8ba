package ip2as

import (
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"netdiag/internal/topology"
)

func TestLongestPrefixMatch(t *testing.T) {
	tb := New()
	mustInsert := func(cidr string, as topology.ASN) {
		t.Helper()
		if err := tb.Insert(cidr, as); err != nil {
			t.Fatal(err)
		}
	}
	mustInsert("10.0.0.0/8", 100)
	mustInsert("10.1.0.0/16", 200)
	mustInsert("10.1.2.0/24", 300)
	mustInsert("0.0.0.0/0", 1) // default route

	cases := []struct {
		addr string
		want topology.ASN
	}{
		{"10.1.2.3", 300}, // most specific
		{"10.1.9.1", 200}, // /16
		{"10.9.9.9", 100}, // /8
		{"192.0.2.1", 1},  // default
		{"10.1.2.255", 300},
	}
	for _, c := range cases {
		got, ok := tb.Lookup(c.addr)
		if !ok || got != c.want {
			t.Fatalf("Lookup(%s) = %d,%v want %d", c.addr, got, ok, c.want)
		}
	}
	if tb.Len() != 4 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestLookupMissAndErrors(t *testing.T) {
	tb := New()
	if err := tb.Insert("10.0.0.0/24", 5); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.Lookup("11.0.0.1"); ok {
		t.Fatal("address outside all prefixes must miss")
	}
	if _, ok := tb.Lookup("not-an-ip"); ok {
		t.Fatal("junk address must miss")
	}
	for _, bad := range []string{"10.0.0.0", "10.0.0.0/33", "10.0.0/24", "10.0.0.300/24"} {
		if err := tb.Insert(bad, 1); err == nil {
			t.Fatalf("Insert(%q) should fail", bad)
		}
	}
	// Overwrite does not grow the table.
	if err := tb.Insert("10.0.0.0/24", 6); err != nil {
		t.Fatal(err)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len after overwrite = %d", tb.Len())
	}
	if got, _ := tb.Lookup("10.0.0.1"); got != 6 {
		t.Fatalf("overwrite not applied: %d", got)
	}
}

func TestHostRoute(t *testing.T) {
	tb := New()
	if err := tb.Insert("10.0.0.7/32", 9); err != nil {
		t.Fatal(err)
	}
	if got, ok := tb.Lookup("10.0.0.7"); !ok || got != 9 {
		t.Fatalf("host route lookup = %d,%v", got, ok)
	}
	if _, ok := tb.Lookup("10.0.0.8"); ok {
		t.Fatal("neighboring address must miss a /32")
	}
}

func TestFromTopologyMatchesGroundTruth(t *testing.T) {
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(12))
	if err != nil {
		t.Fatal(err)
	}
	tb, err := FromTopology(res.Topo)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < res.Topo.NumRouters(); i++ {
		r := res.Topo.Router(topology.RouterID(i))
		got, ok := tb.Lookup(r.Addr)
		if !ok || got != r.AS {
			t.Fatalf("Lookup(%s) = AS%d,%v; router belongs to AS%d", r.Addr, got, ok, r.AS)
		}
	}
}

func TestParseRoundtripProperty(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		addr := itoa(int(a)) + "." + itoa(int(b)) + "." + itoa(int(c)) + "." + itoa(int(d))
		ip, err := parseIPv4(addr)
		if err != nil {
			return false
		}
		return ip == uint32(a)<<24|uint32(b)<<16|uint32(c)<<8|uint32(d)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// splitQuad is the strings.Split + strconv.Atoi parser parseQuad
// replaced, kept as the reference for which inputs are addresses.
func splitQuad(s string) (uint32, bool) {
	var ip uint32
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return 0, false
	}
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 255 {
			return 0, false
		}
		ip = ip<<8 | uint32(v)
	}
	return ip, true
}

// TestParseQuadMatchesSplit pins parseQuad to the Split-based parser on
// edge cases and on random strings over the address alphabet.
func TestParseQuadMatchesSplit(t *testing.T) {
	check := func(s string) {
		t.Helper()
		gi, gok := parseQuad(s)
		wi, wok := splitQuad(s)
		if gi != wi || gok != wok {
			t.Fatalf("parseQuad(%q) = %d,%v; Split parser %d,%v", s, gi, gok, wi, wok)
		}
	}
	for _, s := range []string{
		"", ".", "...", "....", "1.2.3", "1.2.3.4", "1.2.3.4.", ".1.2.3", "1..2.3",
		"1.2.3.4.5", "0.0.0.0", "255.255.255.255", "256.1.1.1", "1.1.1.256",
		"+1.2.3.4", "-0.1.2.3", "-1.2.3.4", "01.002.0003.255", "1.2.3.+255",
		" 1.2.3.4", "1.2.3.4 ", "1.2.3.0x1", "10.0.0.1/24", "not-an-ip",
		"99999999999999999999.1.1.1",
	} {
		check(s)
	}
	const alphabet = "0123456789.+-x "
	f := func(picks []uint8) bool {
		var b strings.Builder
		for _, p := range picks {
			b.WriteByte(alphabet[int(p)%len(alphabet)])
		}
		gi, gok := parseQuad(b.String())
		wi, wok := splitQuad(b.String())
		return gi == wi && gok == wok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLookup measures one table hit on a research-topology router
// address, the per-hop cost of adapting a traceroute. It must allocate
// nothing (make allocguard).
func BenchmarkLookup(b *testing.B) {
	res, err := topology.GenerateResearch(topology.DefaultResearchConfig(1))
	if err != nil {
		b.Fatal(err)
	}
	tb, err := FromTopology(res.Topo)
	if err != nil {
		b.Fatal(err)
	}
	r := res.Topo.Router(topology.RouterID(res.Topo.NumRouters() / 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if as, ok := tb.Lookup(r.Addr); !ok || as != r.AS {
			b.Fatalf("Lookup(%s) = AS%d,%v; want AS%d", r.Addr, as, ok, r.AS)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [3]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
