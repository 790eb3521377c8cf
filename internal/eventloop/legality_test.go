package eventloop

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// mkReady builds a ready list where srcIdx[i] selects which source event i
// belongs to (negative: no source), stamping each event's arrival position
// as poll does.
func mkReady(srcIdx []int) ([]*Event, []*Source) {
	maxSrc := -1
	for _, s := range srcIdx {
		if s > maxSrc {
			maxSrc = s
		}
	}
	srcs := make([]*Source, maxSrc+1)
	for i := range srcs {
		srcs[i] = &Source{name: "s"}
	}
	ready := make([]*Event, len(srcIdx))
	for i, s := range srcIdx {
		ev := &Event{Kind: "net-read", arrival: i}
		if s >= 0 {
			ev.src = srcs[s]
		}
		ready[i] = ev
	}
	return ready, srcs
}

func checkPerSourceOrder(t *testing.T, ready, run, deferred []*Event) {
	t.Helper()
	pos := map[*Event]int{}
	for i, e := range ready {
		pos[e] = i
	}
	if len(run)+len(deferred) != len(ready) {
		t.Fatalf("events lost: %d + %d != %d", len(run), len(deferred), len(ready))
	}
	// Within run: same-source events in arrival order.
	last := map[*Source]int{}
	for _, e := range run {
		if e.src == nil {
			continue
		}
		if prev, ok := last[e.src]; ok && pos[e] < prev {
			t.Fatalf("run reorders source events: %d after %d", pos[e], prev)
		}
		last[e.src] = pos[e]
	}
	// No deferred event of a source may precede (in arrival order) a run
	// event of the same source.
	minDeferred := map[*Source]int{}
	for _, e := range deferred {
		if e.src == nil {
			continue
		}
		if m, ok := minDeferred[e.src]; !ok || pos[e] < m {
			minDeferred[e.src] = pos[e]
		}
	}
	for _, e := range run {
		if e.src == nil {
			continue
		}
		if m, ok := minDeferred[e.src]; ok && pos[e] > m {
			t.Fatalf("event %d runs although an earlier event (%d) of its source was deferred", pos[e], m)
		}
	}
}

func TestEnforcePerSourceOrderOnShuffledInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(12)
		srcIdx := make([]int, n)
		for i := range srcIdx {
			srcIdx[i] = rng.Intn(4) - 1 // -1..2
		}
		ready, _ := mkReady(srcIdx)

		// Simulate an arbitrary (illegal) scheduler decision: shuffle and
		// randomly defer.
		perm := rng.Perm(n)
		var run, deferred []*Event
		for _, i := range perm {
			if rng.Intn(100) < 30 {
				deferred = append(deferred, ready[i])
			} else {
				run = append(run, ready[i])
			}
		}
		gotRun, gotDeferred := enforcePerSourceOrder(ready, run, deferred)
		checkPerSourceOrder(t, ready, gotRun, gotDeferred)
	}
}

func TestEnforcePerSourceOrderKeepsCrossSourceShuffle(t *testing.T) {
	// Two single-event sources swapped: the pass must NOT undo a legal
	// cross-source reorder.
	ready, _ := mkReady([]int{0, 1})
	run := []*Event{ready[1], ready[0]}
	gotRun, gotDeferred := enforcePerSourceOrder(ready, run, nil)
	if len(gotDeferred) != 0 || len(gotRun) != 2 {
		t.Fatal("pass changed deferral")
	}
	if gotRun[0] != ready[1] || gotRun[1] != ready[0] {
		t.Fatal("legal cross-source reorder was undone")
	}
}

func TestEnforcePerSourceOrderFixesSameSourceSwap(t *testing.T) {
	ready, _ := mkReady([]int{0, 0})
	run := []*Event{ready[1], ready[0]} // illegal swap
	gotRun, _ := enforcePerSourceOrder(ready, run, nil)
	if gotRun[0] != ready[0] || gotRun[1] != ready[1] {
		t.Fatal("same-source swap not corrected")
	}
}

func TestEnforcePerSourceOrderExtendsDeferral(t *testing.T) {
	ready, _ := mkReady([]int{0, 0, 0})
	// Scheduler defers the FIRST event of the source but runs the rest:
	// running them would reorder past the deferred one.
	run := []*Event{ready[1], ready[2]}
	deferred := []*Event{ready[0]}
	gotRun, gotDeferred := enforcePerSourceOrder(ready, run, deferred)
	if len(gotRun) != 0 || len(gotDeferred) != 3 {
		t.Fatalf("run=%d deferred=%d, want 0/3", len(gotRun), len(gotDeferred))
	}
	// Deferred stays in arrival order.
	for i, e := range gotDeferred {
		if e != ready[i] {
			t.Fatal("deferred list not in arrival order")
		}
	}
}

func TestEnforcePerSourceOrderNoSourcesUntouched(t *testing.T) {
	ready, _ := mkReady([]int{-1, -1, -1})
	run := []*Event{ready[2], ready[0]}
	deferred := []*Event{ready[1]}
	gotRun, gotDeferred := enforcePerSourceOrder(ready, run, deferred)
	if len(gotRun) != 2 || gotRun[0] != ready[2] || gotRun[1] != ready[0] {
		t.Fatal("sourceless events must be left exactly as the scheduler chose")
	}
	if len(gotDeferred) != 1 || gotDeferred[0] != ready[1] {
		t.Fatal("sourceless deferral changed")
	}
}

func TestEnforcePerSourceOrderQuick(t *testing.T) {
	f := func(raw []uint8, defmask []bool, seed int64) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 20 {
			raw = raw[:20]
		}
		srcIdx := make([]int, len(raw))
		for i, v := range raw {
			srcIdx[i] = int(v%5) - 1
		}
		ready, _ := mkReady(srcIdx)
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(ready))
		var run, deferred []*Event
		for k, i := range perm {
			if k < len(defmask) && defmask[k] {
				deferred = append(deferred, ready[i])
			} else {
				run = append(run, ready[i])
			}
		}
		gotRun, gotDeferred := enforcePerSourceOrder(ready, run, deferred)
		// Permutation property.
		seen := map[*Event]bool{}
		for _, e := range gotRun {
			seen[e] = true
		}
		for _, e := range gotDeferred {
			seen[e] = true
		}
		if len(seen) != len(ready) {
			return false
		}
		// Order property.
		pos := map[*Event]int{}
		for i, e := range ready {
			pos[e] = i
		}
		last := map[*Source]int{}
		for _, e := range gotRun {
			if e.src == nil {
				continue
			}
			if prev, ok := last[e.src]; ok && pos[e] < prev {
				return false
			}
			last[e.src] = pos[e]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
