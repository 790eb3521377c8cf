package eventloop

import (
	"math/rand"
	"testing"
)

// FuzzLegality throws random event batches and random scheduler shuffle
// decisions at the legality pass and asserts the §4.2.1 invariant: whatever
// the scheduler proposes, per-source FIFO order survives, and no event is
// lost or duplicated.
func FuzzLegality(f *testing.F) {
	f.Add(int64(1), uint8(3), []byte{0, 1, 0, 2, 1, 0})
	f.Add(int64(42), uint8(1), []byte{0, 0, 0, 0})
	f.Add(int64(7), uint8(4), []byte{3, 3, 2, 1, 0, 3, 2})
	f.Fuzz(func(t *testing.T, seed int64, nSrc uint8, assign []byte) {
		const maxEvents = 48
		if len(assign) > maxEvents {
			assign = assign[:maxEvents]
		}
		srcCount := int(nSrc%5) + 1
		srcs := make([]*Source, srcCount)
		for i := range srcs {
			srcs[i] = &Source{name: "s" + string(rune('a'+i))}
		}

		// Arrival order: ready[i] arrived at position i, stamped as poll
		// does. A zero source slot models sourceless events (plain posts),
		// which are unconstrained.
		ready := make([]*Event, len(assign))
		arrival := make(map[*Event]int, len(assign))
		for i, b := range assign {
			ev := &Event{Kind: "fuzz", arrival: i}
			if int(b)%(srcCount+1) != srcCount {
				ev.src = srcs[int(b)%(srcCount+1)]
			}
			ready[i] = ev
			arrival[ev] = i
		}

		// A random "scheduler decision": permute ready and split the
		// permutation into run and deferred.
		rng := rand.New(rand.NewSource(seed))
		perm := rng.Perm(len(ready))
		var run, deferred []*Event
		for _, idx := range perm {
			if rng.Intn(3) == 0 {
				deferred = append(deferred, ready[idx])
			} else {
				run = append(run, ready[idx])
			}
		}

		gotRun, gotDeferred := enforcePerSourceOrder(ready, run, deferred)

		// No event lost or duplicated.
		seen := make(map[*Event]bool, len(ready))
		for _, e := range gotRun {
			if seen[e] {
				t.Fatalf("event duplicated in output")
			}
			seen[e] = true
		}
		for _, e := range gotDeferred {
			if seen[e] {
				t.Fatalf("event duplicated across run/deferred")
			}
			seen[e] = true
		}
		if len(seen) != len(ready) {
			t.Fatalf("event count changed: %d in, %d out", len(ready), len(seen))
		}
		for _, e := range ready {
			if !seen[e] {
				t.Fatalf("event lost")
			}
		}

		// Per-source arrival order within each list.
		checkFIFO := func(list []*Event, what string) {
			last := make(map[*Source]int)
			for _, e := range list {
				if e.src == nil {
					continue
				}
				if p, ok := last[e.src]; ok && arrival[e] < p {
					t.Fatalf("%s list violates per-source FIFO: arrival %d after %d for source %s",
						what, arrival[e], p, e.src.name)
				}
				last[e.src] = arrival[e]
			}
		}
		checkFIFO(gotRun, "run")
		checkFIFO(gotDeferred, "deferred")

		// Deferral extension: no run event of a source may have arrived
		// after a deferred event of the same source — it could not legally
		// execute this iteration while an earlier sibling waits.
		deferredMin := make(map[*Source]int)
		for _, e := range gotDeferred {
			if e.src == nil {
				continue
			}
			if p, ok := deferredMin[e.src]; !ok || arrival[e] < p {
				deferredMin[e.src] = arrival[e]
			}
		}
		for _, e := range gotRun {
			if e.src == nil {
				continue
			}
			if p, ok := deferredMin[e.src]; ok && arrival[e] > p {
				t.Fatalf("run event (arrival %d) of source %s follows its deferred sibling (arrival %d)",
					arrival[e], e.src.name, p)
			}
		}
	})
}
