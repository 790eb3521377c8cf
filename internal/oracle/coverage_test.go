package oracle

import (
	"hash/fnv"
	"reflect"
	"sort"
	"strconv"
	"testing"
)

// buildRacyTracker wires the canonical two-callbacks-race shape: two units
// registered by the root (hence mutually unordered once the root's chain is
// claimed) both write one cell.
func buildRacyTracker() *Tracker {
	tr := New()
	root := tr.Current()
	tokA := tr.Begin("timer", "", root)
	tr.Access("db:k", Write)
	tr.End(tokA)
	tokB := tr.Begin("work-done", "", root)
	tr.Access("db:k", Write)
	tr.End(tokB)
	return tr
}

func TestCoverageRacingPairs(t *testing.T) {
	tr := buildRacyTracker()
	if reps := tr.Reports(); len(reps) != 1 {
		t.Fatalf("fixture should report exactly one violation, got %d", len(reps))
	}
	cov := tr.Coverage()
	if !reflect.DeepEqual(cov.RacingPairs(), []string{"timer|work-done"}) {
		t.Fatalf("RacingPairs = %v, want [timer|work-done] (canonical sorted pair)", cov.RacingPairs())
	}
}

func TestCoverageTopLevelTuples(t *testing.T) {
	tr := New()
	root := tr.Current()
	for _, kind := range []string{"timer", "work", "close"} {
		tok := tr.Begin(kind, "", root)
		// A nested unit must NOT contribute to the top-level adjacency
		// n-grams: it is inside its parent, not an interleaving element.
		inner := tr.Begin("nested", "")
		tr.End(inner)
		tr.End(tok)
	}
	cov := tr.Coverage()
	want := []string{"timer>work", "timer>work>close", "work>close"}
	if !reflect.DeepEqual(cov.Tuples(), want) {
		t.Fatalf("Tuples = %v, want %v", cov.Tuples(), want)
	}
}

func TestCoverageHBDigestReflectsEdgeSet(t *testing.T) {
	build := func(kinds []string) string {
		tr := New()
		root := tr.Current()
		for _, k := range kinds {
			tok := tr.Begin(k, "", root)
			tr.End(tok)
		}
		return tr.Coverage().HBDigest
	}
	a := build([]string{"timer", "work"})
	b := build([]string{"timer", "work"})
	if a != b {
		t.Fatalf("same construction produced different HB digests: %s vs %s", a, b)
	}
	// The digest identifies the edge *set*: discovery order is irrelevant.
	if c := build([]string{"work", "timer"}); c != a {
		t.Fatalf("edge-set digest is order-sensitive: %s vs %s", c, a)
	}
	// A different edge set gets a different digest.
	if d := build([]string{"timer", "close"}); d == a {
		t.Fatalf("distinct edge sets collided: %s", d)
	}
	if _, err := strconv.ParseUint(a, 16, 64); err != nil || len(a) != 16 {
		t.Fatalf("HBDigest %q is not 16-digit hex: %v", a, err)
	}
}

func TestCoverageSyncEdgeCounts(t *testing.T) {
	tr := New()
	root := tr.Current()
	tokA := tr.Begin("work-done", "", root)
	tr.Sync("counter")
	tr.End(tokA)
	before := tr.Coverage().HBDigest
	tokB := tr.Begin("net-read", "", root)
	tr.Sync("counter") // release-acquire edge work-done → net-read
	tr.End(tokB)
	if after := tr.Coverage().HBDigest; after == before {
		t.Fatal("Sync edge did not change the HB-edge-set digest")
	}
}

func TestCoverageNilTracker(t *testing.T) {
	var tr *Tracker
	cov := tr.Coverage()
	if cov.RacingPairs() != nil || cov.Tuples() != nil || cov.HBDigest != "0000000000000000" {
		t.Fatalf("nil tracker coverage = %+v", cov)
	}
	if cov.Items() != 1 {
		t.Fatalf("empty digest Items() = %d, want 1 (the HB digest itself)", cov.Items())
	}
}

func TestCoverageOutputSortedAndStable(t *testing.T) {
	tr := buildRacyTracker()
	c1, c2 := tr.Coverage(), tr.Coverage()
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("repeated Coverage() calls differ: %+v vs %+v", c1, c2)
	}
	if !sort.StringsAreSorted(c1.RacingPairs()) || !sort.StringsAreSorted(c1.Tuples()) {
		t.Fatalf("coverage sets not sorted: %+v", c1)
	}
}

// TestEdgeHashMatchesFNV pins the hand-inlined edgeHash to the stdlib
// FNV-1a it replaced: same bytes, same digest, forever.
func TestEdgeHashMatchesFNV(t *testing.T) {
	cases := [][2]string{
		{"", ""},
		{"timer", "net-read"},
		{"work-done", "close"},
		{"a", "ab"},
		{"ab", "a"},
	}
	for _, c := range cases {
		h := fnv.New64a()
		_, _ = h.Write([]byte(c[0]))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(c[1]))
		if got, want := edgeHash(c[0], c[1]), h.Sum64(); got != want {
			t.Errorf("edgeHash(%q, %q) = %#x, want %#x", c[0], c[1], got, want)
		}
	}
}
