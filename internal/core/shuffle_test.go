package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"nodefz/internal/eventloop"
	"nodefz/internal/frand"
)

// copyShuffle is the copy-based epoll shuffle the in-place ShuffleReady
// replaced, kept as a reference oracle: remove the i-th of the first w
// remaining events into a fresh shuffled list, then stably split it into
// fresh run and deferred lists with one deferral draw per event.
func copyShuffle(rng *rand.Rand, p Params, ready []*eventloop.Event) (run, deferred []*eventloop.Event) {
	remaining := append([]*eventloop.Event(nil), ready...)
	shuffled := remaining
	if p.EpollDoF != 0 {
		shuffled = nil
		for len(remaining) > 0 {
			w := len(remaining)
			if p.EpollDoF > 0 && p.EpollDoF+1 < w {
				w = p.EpollDoF + 1
			}
			i := rng.Intn(w)
			shuffled = append(shuffled, remaining[i])
			remaining = append(remaining[:i], remaining[i+1:]...)
		}
	}
	pct := p.EpollDeferralPct
	for _, ev := range shuffled {
		if pct > 0 && (pct >= 100 || rng.Intn(100) < pct) {
			deferred = append(deferred, ev)
		} else {
			run = append(run, ev)
		}
	}
	return run, deferred
}

// TestShuffleInPlaceMatchesCopy: the in-place shuffle makes the same RNG
// draws and produces the same run and deferred order as the copy-based
// algorithm, so every recorded schedule and fingerprint stays bit-identical.
func TestShuffleInPlaceMatchesCopy(t *testing.T) {
	seeds := 25
	if testing.Short() {
		seeds = 5
	}
	for _, dof := range []int{0, 1, 3, -1} {
		for _, pct := range []int{0, 10, 100} {
			p := NoFuzzParams()
			p.EpollDoF, p.EpollDeferralPct = dof, pct
			for seed := int64(0); seed < int64(seeds); seed++ {
				s := newNamed("test", p, seed)
				ref := frand.New(seed)
				for n := 0; n <= 70; n++ {
					evs := mkEvents(n)
					wantRun, wantDef := copyShuffle(ref, p, evs)
					gotRun, gotDef := s.ShuffleReady(slices.Clone(evs))
					where := fmt.Sprintf("dof=%d pct=%d seed=%d n=%d", dof, pct, seed, n)
					if !slices.Equal(gotRun, wantRun) || !slices.Equal(gotDef, wantDef) {
						t.Fatalf("%s: in-place order differs from copy-based order", where)
					}
					if got, want := s.rng.Int63(), ref.Int63(); got != want {
						t.Fatalf("%s: next draw %d, copy-based %d", where, got, want)
					}
				}
			}
		}
	}
}

// TestSharedSchedulerKeepsBatchesApart: the node loops of a cluster trial
// share one scheduler (here behind a recorder, as campaigns run it). Each
// loop's run and deferred lists must be a permutation of its own batch,
// and each recorded decision a permutation of its batch's positions, even
// when the loops shuffle at the same time.
func TestSharedSchedulerKeepsBatchesApart(t *testing.T) {
	p := StandardParams()
	p.EpollDeferralPct = 30
	rec := NewRecording(NewScheduler(p, 3))
	rounds := 2000
	if testing.Short() {
		rounds = 500
	}
	const loops = 2
	errs := make(chan error, loops)
	var wg sync.WaitGroup
	for g := 0; g < loops; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			own := make([]*eventloop.Event, 24)
			for i := range own {
				own[i] = &eventloop.Event{Kind: "net-read", Label: fmt.Sprintf("g%d-e%d", g, i)}
			}
			for r := 0; r < rounds; r++ {
				n := 2 + r%(len(own)-1)
				run, deferred := rec.ShuffleReady(slices.Clone(own[:n]))
				if err := isPermutation(own[:n], run, deferred); err != nil {
					errs <- fmt.Errorf("loop %d round %d: %v", g, r, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for i, d := range rec.Trace().Shuffle {
		idx := append(slices.Clone(d.RunOrder), d.Deferred...)
		slices.Sort(idx)
		ok := len(idx) == d.N
		for j, v := range idx {
			ok = ok && v == j
		}
		if !ok {
			t.Fatalf("decision %d records %v/%v for a batch of %d", i, d.RunOrder, d.Deferred, d.N)
		}
	}
}

// isPermutation reports whether run and deferred together hold exactly the
// events of batch, each once.
func isPermutation(batch, run, deferred []*eventloop.Event) error {
	if len(run)+len(deferred) != len(batch) {
		return fmt.Errorf("%d+%d events for a batch of %d", len(run), len(deferred), len(batch))
	}
	seen := make(map[*eventloop.Event]bool, len(batch))
	for _, e := range batch {
		seen[e] = false
	}
	for _, e := range append(slices.Clone(run), deferred...) {
		done, ok := seen[e]
		if !ok {
			return fmt.Errorf("foreign event %v", e)
		}
		if done {
			return fmt.Errorf("duplicated event %s", e.Label)
		}
		seen[e] = true
	}
	return nil
}
