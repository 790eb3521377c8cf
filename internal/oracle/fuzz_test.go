package oracle

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// FuzzCoverageDigest drives a tracker with an arbitrary byte-derived
// sequence of Begin/End/Access/Sync operations and checks the coverage
// digest's contract:
//
//   - replay determinism: the same operation sequence yields a deeply equal
//     CoverageDigest (the campaign's determinism gate relies on this);
//   - canonical form: sets sorted and duplicate-free, racing pairs ordered
//     within the pair, HBDigest fixed-width hex;
//   - the digest is insensitive to when it is read (snapshot purity);
//   - exactness: the packed digest renders to the strings refCoverage, the
//     string-keyed accumulator the packed one replaced, produces from the
//     same operations.
func FuzzCoverageDigest(f *testing.F) {
	f.Add([]byte{0x00, 0x11, 0x22, 0x33})
	f.Add([]byte{0xff, 0x80, 0x41, 0x07, 0x99, 0x12, 0x55, 0xc3})
	f.Add([]byte{0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a})
	kinds := []string{"timer", "net-read", "work", "work-done", "close", "immediate"}
	cells := []string{"db:a", "db:b", "fs:p"}
	drive := func(data []byte) CoverageDigest {
		tr := New()
		tr.maxRep = 1 << 30 // every racing pair is reported, for the reference
		ref := newRefCoverage()
		var units []Ref
		units = append(units, tr.Current())
		var open []Token
		lastSync := map[string]*unit{}
		top := func() *unit {
			if n := len(open); n > 0 {
				return open[n-1].u
			}
			return units[0].u
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 4 {
			case 0: // Begin, registered by some earlier unit
				r := units[int(arg)%len(units)]
				kind := kinds[int(arg)%len(kinds)]
				// The reference sees the edges and adjacency the tracker
				// should: registering unit → kind, plus program order
				// from the enclosing unit when nested.
				ref.noteHBEdge(r.u.kind, kind)
				if len(open) > 0 {
					ref.noteHBEdge(top().kind, kind)
				} else {
					ref.noteTopLevel(kind)
				}
				tok := tr.Begin(kind, "", r)
				units = append(units, tok.Ref())
				open = append(open, tok)
			case 1: // End innermost
				if n := len(open); n > 0 {
					tr.End(open[n-1])
					open = open[:n-1]
				}
			case 2: // Access
				tr.Access(cells[int(arg)%len(cells)], AccessKind(arg%3))
			case 3: // Sync
				key, cur := cells[int(arg)%len(cells)], top()
				if prev := lastSync[key]; prev != nil && prev != cur {
					ref.noteHBEdge(prev.kind, cur.kind)
				}
				lastSync[key] = cur
				tr.Sync(key)
			}
		}
		// Every racing pair raises a report (the cap is lifted above), so
		// the reports name the pairs the reference should hold.
		for _, r := range tr.Reports() {
			ref.noteRacingPair(r.First.Kind, r.Second.Kind)
		}
		want := ref.Coverage()
		got := tr.Coverage()
		if !reflect.DeepEqual(got.RacingPairs(), want.RacingPairs) || got.HBDigest != want.HBDigest ||
			!reflect.DeepEqual(got.Tuples(), want.Tuples) || got.Items() != len(want.RacingPairs)+len(want.Tuples)+1 {
			panic(fmt.Sprintf("packed digest pairs %q hb %s tuples %q differs from the string reference %+v",
				got.RacingPairs(), got.HBDigest, got.Tuples(), want))
		}
		mid := tr.Coverage()
		for _, tok := range open {
			tr.End(tok)
		}
		end := tr.Coverage()
		// Ending units adds no coverage: edges and tuples are recorded at
		// Begin, races at Access.
		if !reflect.DeepEqual(mid, end) {
			panic("Coverage changed across End calls with no new operations")
		}
		return end
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c1 := drive(data)
		c2 := drive(data)
		if !reflect.DeepEqual(c1, c2) {
			t.Fatalf("replay produced different digests:\n%+v\n%+v", c1, c2)
		}
		if len(c1.HBDigest) != 16 {
			t.Fatalf("HBDigest %q not fixed-width", c1.HBDigest)
		}
		if _, err := strconv.ParseUint(c1.HBDigest, 16, 64); err != nil {
			t.Fatalf("HBDigest %q not hex: %v", c1.HBDigest, err)
		}
		checkSet := func(name string, s []string) {
			if !sort.StringsAreSorted(s) {
				t.Fatalf("%s not sorted: %v", name, s)
			}
			for i := 1; i < len(s); i++ {
				if s[i] == s[i-1] {
					t.Fatalf("%s has duplicate %q", name, s[i])
				}
			}
		}
		checkSet("RacingPairs", c1.RacingPairs())
		checkSet("Tuples", c1.Tuples())
		for _, p := range c1.RacingPairs() {
			halves := strings.SplitN(p, "|", 2)
			if len(halves) != 2 || halves[0] > halves[1] {
				t.Fatalf("racing pair %q not canonical", p)
			}
		}
	})
}

// FuzzVectorClock drives the chain-decomposition vector-clock engine with
// an arbitrary DAG of units and checks it against ground truth:
//
//   - happensBefore must equal reachability in the registration DAG
//     (soundness and completeness of the chain/VC encoding);
//   - the HB order is antisymmetric and irreflexive;
//   - vector-clock join is commutative and monotone.
func FuzzVectorClock(f *testing.F) {
	f.Add([]byte{0x00, 0x01, 0x02})
	f.Add([]byte{0xff, 0x00, 0x13, 0x27, 0x31, 0x45})
	f.Add([]byte{0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxUnits = 48
		tr := New()
		// units[0] is the implicit root; every created unit names up to two
		// predecessors among the existing ones (byte-driven), or none —
		// which the tracker resolves to the root.
		units := []*unit{tr.stack[0]}
		reach := make([]map[int]bool, 1)
		reach[0] = map[int]bool{}

		pos := 0
		next := func() (byte, bool) {
			if pos >= len(data) {
				return 0, false
			}
			b := data[pos]
			pos++
			return b, true
		}
		for len(units) < maxUnits {
			b, ok := next()
			if !ok {
				break
			}
			var refs []Ref
			preds := map[int]bool{}
			p1 := int(b) % len(units)
			if b&0x80 == 0 {
				refs = append(refs, Ref{u: units[p1]})
				preds[p1] = true
			}
			if b2, ok2 := next(); ok2 && b2&0x40 != 0 {
				p2 := int(b2) % len(units)
				refs = append(refs, Ref{u: units[p2]})
				preds[p2] = true
			}
			if len(preds) == 0 {
				preds[0] = true // tracker falls back to the enclosing root
			}
			tok := tr.Begin("u", "", refs...)
			u := tok.u
			tr.End(tok)
			r := map[int]bool{}
			for p := range preds {
				r[p] = true
				for anc := range reach[p] {
					r[anc] = true
				}
			}
			units = append(units, u)
			reach = append(reach, r)
		}

		for i, a := range units {
			for j, b := range units {
				got := happensBefore(a, b)
				want := i != j && reach[j][i]
				if got != want {
					t.Fatalf("happensBefore(u%d,u%d) = %v, reachability says %v", i, j, got, want)
				}
				if got && happensBefore(b, a) {
					t.Fatalf("antisymmetry violated for u%d,u%d", i, j)
				}
			}
			if happensBefore(a, a) {
				t.Fatalf("irreflexivity violated for u%d", i)
			}
		}

		// Join axioms on the collected clocks.
		clone := func(v vclockT) vclockT { return append(vclockT(nil), v...) }
		eq := func(a, b vclockT) bool {
			n := len(a)
			if len(b) > n {
				n = len(b)
			}
			for i := 0; i < n; i++ {
				if a.at(int32(i)) != b.at(int32(i)) {
					return false
				}
			}
			return true
		}
		for i := 0; i < len(units) && i < 8; i++ {
			for j := 0; j < len(units) && j < 8; j++ {
				a, b := units[i].vc, units[j].vc
				ab := clone(a).join(b)
				ba := clone(b).join(a)
				if !eq(ab, ba) {
					t.Fatalf("join not commutative for u%d,u%d: %v vs %v", i, j, ab, ba)
				}
				// Monotonicity: the join dominates both operands.
				for c := 0; c < len(ab); c++ {
					if ab.at(int32(c)) < a.at(int32(c)) || ab.at(int32(c)) < b.at(int32(c)) {
						t.Fatalf("join not monotone at chain %d", c)
					}
				}
			}
		}
	})
}

// refStringDigest is the string form CoverageDigest had before its sets
// were packed.
type refStringDigest struct {
	RacingPairs []string
	HBDigest    string
	Tuples      []string
}

// refCoverage is the string-keyed coverage accumulator the packed one
// replaced, kept verbatim as the exactness reference: pairs as "a|b"
// strings, tuples as [3]string keys, edges deduplicated by their FNV-1a
// hash.
type refCoverage struct {
	pairs        map[string]bool
	tuples       map[[3]string]bool
	hbSeen       map[uint64]bool
	hbDigest     uint64
	prev1, prev2 string
	topCount     int
}

func newRefCoverage() *refCoverage {
	return &refCoverage{
		pairs:  make(map[string]bool),
		tuples: make(map[[3]string]bool),
		hbSeen: make(map[uint64]bool),
	}
}

func (c *refCoverage) noteHBEdge(from, to string) {
	h := edgeHash(from, to)
	if c.hbSeen[h] {
		return
	}
	c.hbSeen[h] = true
	c.hbDigest ^= h
}

func (c *refCoverage) noteTopLevel(kind string) {
	if c.topCount >= 1 {
		c.tuples[[3]string{c.prev1, kind}] = true
	}
	if c.topCount >= 2 {
		c.tuples[[3]string{c.prev2, c.prev1, kind}] = true
	}
	c.prev2, c.prev1 = c.prev1, kind
	c.topCount++
}

func (c *refCoverage) noteRacingPair(a, b string) {
	if b < a {
		a, b = b, a
	}
	c.pairs[a+"|"+b] = true
}

func (c *refCoverage) Coverage() refStringDigest {
	d := refStringDigest{HBDigest: fmt.Sprintf("%016x", c.hbDigest)}
	for p := range c.pairs {
		d.RacingPairs = append(d.RacingPairs, p)
	}
	sort.Strings(d.RacingPairs)
	for tu := range c.tuples {
		if tu[2] == "" {
			d.Tuples = append(d.Tuples, tu[0]+">"+tu[1])
		} else {
			d.Tuples = append(d.Tuples, tu[0]+">"+tu[1]+">"+tu[2])
		}
	}
	sort.Strings(d.Tuples)
	return d
}
