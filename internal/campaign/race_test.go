package campaign

import (
	"fmt"
	"sync"
	"testing"

	"nodefz/internal/oracle"
)

// TestCorpusAndBanditConcurrentHammer drives the two shared campaign
// structures — coverage-fed corpus admission and the bandit's full
// Select/Update/Release lifecycle — from parallel workers. The CI -race run
// is the real assertion; the invariant checks at the end catch lost updates
// that the race detector cannot see.
func TestCorpusAndBanditConcurrentHammer(t *testing.T) {
	const (
		workers = 8
		iters   = 200
	)
	c := NewCorpus(0.05, 16, 0)
	c.seenWindow = 64 // force generation rotation under contention
	b := NewUCB(5, 3)
	kinds := []string{"timer", "net-read", "work", "work-done", "close"}

	var wg sync.WaitGroup
	var mu sync.Mutex
	rewarded := 0
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				types := []string{
					kinds[(w+i)%len(kinds)],
					kinds[(w*3+i*7)%len(kinds)],
					fmt.Sprintf("k%d", (w*iters+i)%97),
				}
				cov := oracle.CoverageOf(
					[]string{kinds[i%len(kinds)] + "|" + kinds[w%len(kinds)]},
					fmt.Sprintf("%016x", (w*iters+i)%131),
					[]string{kinds[w%len(kinds)] + ">" + kinds[i%len(kinds)]},
				)
				adm := c.AdmitWithCoverage(types, &cov)
				arm := b.Select()
				if i%5 == 4 {
					// Simulated trial error: the pull must be released, not
					// rewarded.
					b.Release(arm)
					continue
				}
				b.Update(arm, 0.5*adm.Novelty+0.2*adm.CoverageNew)
				mu.Lock()
				rewarded++
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	total := 0
	for _, s := range b.Stats() {
		total += s.Pulls
		if m := s.Mean(); m < 0 || m > 1 {
			t.Fatalf("arm mean %v escaped [0,1] under concurrency", m)
		}
	}
	if total != rewarded {
		t.Fatalf("pull accounting lost updates: %d pulls, %d rewarded trials", total, rewarded)
	}
	if c.Len() > 16 {
		t.Fatalf("corpus overflowed capacity under contention: %d", c.Len())
	}
	if got, limit := c.SeenSize(), 2*64+16; got > limit {
		t.Fatalf("seen-set size %d exceeds rotation bound %d under contention", got, limit)
	}
	pairs, digests, tuples := c.CoverageStats()
	if pairs == 0 || digests == 0 || tuples == 0 {
		t.Fatalf("coverage map empty after hammer: %d/%d/%d", pairs, digests, tuples)
	}
}
