package eventloop

import "sort"

// enforcePerSourceOrder is the loop's legality pass over the scheduler's
// shuffle decision (§4.4 "Node.fz Fidelity"). Fuzzing may freely reorder
// events *across* sources — that models input arriving earlier or later —
// but traffic on a particular connection is well-ordered (§4.2.1), so two
// events from the same Source must execute in arrival order. The pass:
//
//  1. extends deferral: if an event of a source is deferred, every later
//     event of that source is deferred too (it cannot legally run first);
//  2. stably reorders same-source events within the run list back into
//     arrival order, keeping the slots the scheduler gave that source;
//  3. sorts the deferred list by arrival order so re-queued events stay
//     FIFO per source across iterations.
//
// Events without a source (plain posts, worker-pool completions) are
// unconstrained. Arrival order is Event.arrival, the batch position poll
// stamps before the scheduler permutes the batch in place.
func enforcePerSourceOrder(ready, run, deferred []*Event) ([]*Event, []*Event) {
	// Fast path: detect a source with two ready events by pairwise scan —
	// ready batches are small, and skipping the map builds keeps the common
	// single-event-per-source poll allocation-free.
	multi := false
outer:
	for i, e := range ready {
		if e.src == nil {
			continue
		}
		for _, f := range ready[:i] {
			if f.src == e.src {
				multi = true
				break outer
			}
		}
	}
	if !multi {
		// No source contributed more than one event; nothing to enforce
		// beyond what the scheduler already returned.
		return run, deferred
	}

	// Step 1: earliest deferred position per source. Kept run events are
	// compacted in place (the write index never passes the read index);
	// the full slice expression makes the appends to deferred copy rather
	// than write into run, which may share deferred's backing array.
	deferred = deferred[:len(deferred):len(deferred)]
	deferredMin := make(map[*Source]int)
	for _, e := range deferred {
		if e.src == nil {
			continue
		}
		if m, ok := deferredMin[e.src]; !ok || e.arrival < m {
			deferredMin[e.src] = e.arrival
		}
	}
	keep := run[:0]
	for _, e := range run {
		if e.src != nil {
			if m, ok := deferredMin[e.src]; ok && e.arrival > m {
				deferred = append(deferred, e)
				continue
			}
		}
		keep = append(keep, e)
	}

	// Step 2: per-source stable reorder within the kept slots.
	bySrc := make(map[*Source][]int)
	for i, e := range keep {
		if e.src != nil {
			bySrc[e.src] = append(bySrc[e.src], i)
		}
	}
	for _, slots := range bySrc {
		if len(slots) < 2 {
			continue
		}
		evs := make([]*Event, len(slots))
		for j, slot := range slots {
			evs[j] = keep[slot]
		}
		sort.Slice(evs, func(a, b int) bool { return evs[a].arrival < evs[b].arrival })
		for j, slot := range slots {
			keep[slot] = evs[j]
		}
	}

	// Step 3: FIFO among deferred events.
	sort.SliceStable(deferred, func(a, b int) bool { return deferred[a].arrival < deferred[b].arrival })
	return keep, deferred
}
