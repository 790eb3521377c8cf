package oracle

import (
	"fmt"
	"sync"
	"testing"
)

// TestKindsConcurrentInternAgrees: trackers on several campaign workers
// intern into the one kind table at once; every goroutine must get the same
// ID for a kind, and the IDs must stay dense.
func TestKindsConcurrentInternAgrees(t *testing.T) {
	k := &kindTable{ids: make(map[string]uint32)}
	const workers, kinds = 8, 40
	got := make([][]uint32, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]uint32, kinds)
			for i := range ids {
				j := (i*7 + w*13) % kinds // each worker meets the kinds in its own order
				ids[j] = k.id(fmt.Sprintf("kind-%d", j))
			}
			got[w] = ids
		}(w)
	}
	wg.Wait()
	seen := map[uint32]bool{}
	for i := 0; i < kinds; i++ {
		for w := 1; w < workers; w++ {
			if got[w][i] != got[0][i] {
				t.Fatalf("kind-%d: worker %d got ID %d, worker 0 got %d", i, w, got[w][i], got[0][i])
			}
		}
		id := got[0][i]
		if id < 1 || id > kinds || seen[id] {
			t.Fatalf("kind-%d: ID %d not dense and unique", i, id)
		}
		seen[id] = true
		if name := k.name(id); name != fmt.Sprintf("kind-%d", i) {
			t.Fatalf("name(%d) = %q", id, name)
		}
	}
}

// TestKindsRenderParseRoundTrip: rendering a packed key and parsing it back
// are inverses, and parse rejects what render can never produce.
func TestKindsRenderParseRoundTrip(t *testing.T) {
	k := &kindTable{ids: make(map[string]uint32)}
	a, b, c := k.id("timer"), k.id("net-read"), k.id("work-done")
	for _, tc := range []struct {
		key uint64
		sep byte
		s   string
	}{
		{packKey(a, b, 0), '|', "timer|net-read"},
		{packKey(a, b, 0), '>', "timer>net-read"},
		{packKey(c, a, b), '>', "work-done>timer>net-read"},
	} {
		if got := k.render(tc.key, tc.sep); got != tc.s {
			t.Errorf("render = %q, want %q", got, tc.s)
		}
		if key, ok := k.parse(tc.s, tc.sep); !ok || key != tc.key {
			t.Errorf("parse(%q) = %#x, %v; want %#x", tc.s, key, ok, tc.key)
		}
	}
	for _, bad := range []struct {
		s   string
		sep byte
	}{
		{"", '|'}, {"timer", '|'}, {"a|b|c", '|'}, {"|b", '|'}, {"a|", '|'},
		{"a>b|c", '|'}, {"a>b>c>d", '>'}, {"a>>b", '>'}, {"a|b>c", '>'},
	} {
		if _, ok := k.parse(bad.s, bad.sep); ok {
			t.Errorf("parse(%q, %q) accepted a malformed item", bad.s, bad.sep)
		}
	}
}

// TestBeginRejectsSeparatorKinds: a kind the rendered coverage forms could
// not spell unambiguously is a program bug, caught at its first Begin.
func TestBeginRejectsSeparatorKinds(t *testing.T) {
	for _, kind := range []string{"", "a|b", "a>b"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Begin(%q) did not panic", kind)
				}
			}()
			New().Begin(kind, "")
		}()
	}
}
