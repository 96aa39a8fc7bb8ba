// Package ip2as implements the IP-to-AS mapping the troubleshooter uses to
// derive hop ASes from traceroute addresses (paper §3.1, citing Mao et
// al.'s AS-level traceroute work): a binary trie over announced prefixes
// with longest-prefix-match lookup.
//
// In the simulation every AS owns the /24s covering its routers, so the
// mapping is exact; the package still implements the general mechanism —
// arbitrary prefix lengths, overlaps resolved by longest match — so it
// would work with a real routing table dump.
package ip2as

import (
	"fmt"
	"strconv"
	"strings"

	"netdiag/internal/topology"
)

// Table maps IPv4 addresses to origin ASes by longest-prefix match.
// The zero value is not usable; call New.
type Table struct {
	root *node
	size int
}

type node struct {
	child [2]*node
	as    topology.ASN
	set   bool
}

// New returns an empty table.
func New() *Table { return &Table{root: &node{}} }

// Len returns the number of inserted prefixes.
func (t *Table) Len() int { return t.size }

// Insert adds a CIDR prefix ("10.1.2.0/24") mapping to an AS. Inserting
// the same prefix twice overwrites the mapping.
func (t *Table) Insert(cidr string, as topology.ASN) error {
	ipStr, lenStr, found := strings.Cut(cidr, "/")
	if !found {
		return fmt.Errorf("ip2as: %q is not CIDR notation", cidr)
	}
	bits, err := strconv.Atoi(lenStr)
	if err != nil || bits < 0 || bits > 32 {
		return fmt.Errorf("ip2as: bad prefix length in %q", cidr)
	}
	ip, err := parseIPv4(ipStr)
	if err != nil {
		return err
	}
	t.insert(ip, bits, as)
	return nil
}

func (t *Table) insert(ip uint32, bits int, as topology.ASN) {
	cur := t.root
	for i := 0; i < bits; i++ {
		b := (ip >> (31 - i)) & 1
		if cur.child[b] == nil {
			cur.child[b] = &node{}
		}
		cur = cur.child[b]
	}
	if !cur.set {
		t.size++
	}
	cur.as = as
	cur.set = true
}

// Lookup returns the AS owning the longest matching prefix for addr. A
// hit allocates nothing.
func (t *Table) Lookup(addr string) (topology.ASN, bool) {
	ip, ok := parseQuad(addr)
	if !ok {
		return 0, false
	}
	var best topology.ASN
	found := false
	cur := t.root
	for i := 0; i < 32 && cur != nil; i++ {
		if cur.set {
			best, found = cur.as, true
		}
		cur = cur.child[(ip>>(31-i))&1]
	}
	if cur != nil && cur.set {
		best, found = cur.as, true
	}
	return best, found
}

// parseIPv4 converts dotted-quad notation to a uint32.
func parseIPv4(s string) (uint32, error) {
	ip, ok := parseQuad(s)
	if !ok {
		return 0, fmt.Errorf("ip2as: %q is not an IPv4 address", s)
	}
	return ip, nil
}

// parseQuad parses exactly four dot-separated fields, each of which
// strconv.Atoi reads as 0..255, without allocating on success.
func parseQuad(s string) (uint32, bool) {
	var ip uint32
	rest := s
	for i := 0; i < 4; i++ {
		field, tail, found := strings.Cut(rest, ".")
		if found == (i == 3) {
			// Fewer or more than four fields.
			return 0, false
		}
		v, err := strconv.Atoi(field)
		if err != nil || v < 0 || v > 255 {
			return 0, false
		}
		ip = ip<<8 | uint32(v)
		rest = tail
	}
	return ip, true
}

// FromTopology builds the table a troubleshooter would assemble from the
// announced routes: every AS owns the /24 networks its router addresses
// fall in.
func FromTopology(topo *topology.Topology) (*Table, error) {
	t := New()
	seen := map[string]topology.ASN{}
	for i := 0; i < topo.NumRouters(); i++ {
		r := topo.Router(topology.RouterID(i))
		dot := strings.LastIndexByte(r.Addr, '.')
		if dot < 0 {
			return nil, fmt.Errorf("ip2as: router %d has malformed address %q", r.ID, r.Addr)
		}
		cidr := r.Addr[:dot] + ".0/24"
		if prev, dup := seen[cidr]; dup {
			if prev != r.AS {
				return nil, fmt.Errorf("ip2as: prefix %s claimed by AS%d and AS%d", cidr, prev, r.AS)
			}
			continue
		}
		seen[cidr] = r.AS
		if err := t.Insert(cidr, r.AS); err != nil {
			return nil, err
		}
	}
	return t, nil
}
