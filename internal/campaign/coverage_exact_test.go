package campaign

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"nodefz/internal/bugs"
	"nodefz/internal/core"
	"nodefz/internal/eventloop"
	"nodefz/internal/oracle"
	"nodefz/internal/sched"
	"nodefz/internal/vclock"
)

// exactModes are the harness's three Figure 6 configurations (NFZ, FZ,
// Guided), built the way harness.SchedulerFor builds them; the harness
// package imports campaign, so it cannot be imported here.
var exactModes = []struct {
	name  string
	sched func(seed int64) eventloop.Scheduler
}{
	{"nfz", func(int64) eventloop.Scheduler { return core.NewNoFuzzScheduler() }},
	{"fz", func(seed int64) eventloop.Scheduler { return core.NewScheduler(core.StandardParams(), seed) }},
	{"guided", func(seed int64) eventloop.Scheduler { return core.NewGuidedScheduler(seed) }},
}

const exactSeeds = 10

func exactSeed(s int) int64 { return int64(7919*s + 3) }

// goldenDigestFile maps every (app, mode, seed) of the exactness sweep to
// the SHA-256 (first 16 bytes) of its coverage digest's JSON (refDigest's
// form), as produced by the string-keyed tracker the packed one replaced.
const goldenDigestFile = "coverage_digests.txt"

// runExactTrial runs one virtual-time oracle trial and returns its
// truncated type schedule.
func runExactTrial(app *bugs.App, s eventloop.Scheduler, seed int64, tr *oracle.Tracker) []string {
	rec := sched.NewRecorder()
	app.Run(bugs.RunConfig{Seed: seed, Scheduler: s, Recorder: rec, Clock: vclock.NewVirtual(), Oracle: tr})
	return sched.Truncate(rec.Types(), DefaultScheduleTruncate)
}

func digestLine(app, mode string, seed int64, js []byte) string {
	sum := sha256.Sum256(js)
	return fmt.Sprintf("%s %s %d %s", app, mode, seed, hex.EncodeToString(sum[:16]))
}

// refDigest is a coverage digest in the string form it had before its sets
// were packed; its JSON is the pre-change CoverageDigest's, so the golden
// hashes cover the rendered pairs, HB digest and tuples.
type refDigest struct {
	RacingPairs []string `json:"racing_pairs,omitempty"`
	HBDigest    string   `json:"hb_digest"`
	Tuples      []string `json:"tuples,omitempty"`
}

// refCorpus is the string-keyed coverage admission the packed one replaced,
// kept as the exactness reference: c supplies the (unchanged) duplicate
// detection and novelty scan, and the three maps are the old string-keyed
// global coverage map.
type refCorpus struct {
	c                      *Corpus
	pairs, digests, tuples map[string]bool
}

func newRefCorpus() *refCorpus {
	return &refCorpus{c: NewCorpus(DefaultNoveltyThreshold, 0, 0),
		pairs: map[string]bool{}, digests: map[string]bool{}, tuples: map[string]bool{}}
}

// admit is the pre-change AdmitWithCoverage.
func (r *refCorpus) admit(types []string, cov *refDigest) Admission {
	c := r.c
	types = sched.Truncate(types, c.truncate)
	d := sched.Digest(types)
	c.mu.Lock()
	defer c.mu.Unlock()
	var adm Admission
	r.fold(cov, &adm)
	if c.sawLocked(d) {
		adm.Duplicate = true
		return adm
	}
	c.markSeenLocked(d)
	c.candScratch = c.internTypes(types, c.candScratch)
	novelty, nearest := c.nearest(c.candScratch)
	adm.Novelty = novelty
	adm.CoverageAdmitted = len(adm.NewPairs) > 0 || adm.NewHB
	if len(c.entries) > 0 && novelty <= c.threshold && !adm.CoverageAdmitted {
		return adm
	}
	if len(c.entries) >= c.capacity {
		delete(c.members, c.entries[nearest].digest)
		c.entries = append(c.entries[:nearest], c.entries[nearest+1:]...)
		adm.Evicted = true
	}
	ids := append([]int32(nil), c.candScratch...)
	c.entries = append(c.entries, corpusEntry{digest: d, types: append([]string(nil), types...), ids: ids})
	c.members[d] = true
	adm.Admitted = true
	return adm
}

// fold is the pre-change foldCoverageLocked.
func (r *refCorpus) fold(cov *refDigest, adm *Admission) {
	for _, p := range cov.RacingPairs {
		if !r.pairs[p] {
			r.pairs[p] = true
			adm.NewPairs = append(adm.NewPairs, p)
		}
	}
	for _, tu := range cov.Tuples {
		if !r.tuples[tu] {
			r.tuples[tu] = true
			adm.NewTuples = append(adm.NewTuples, tu)
		}
	}
	if cov.HBDigest != "" && !r.digests[cov.HBDigest] {
		r.digests[cov.HBDigest] = true
		adm.NewHB = true
	}
	newItems := len(adm.NewPairs) + len(adm.NewTuples)
	if adm.NewHB {
		newItems++
	}
	adm.CoverageNew = float64(newItems) / float64(len(cov.RacingPairs)+len(cov.Tuples)+1)
}

// TestPackedCoverageMatchesStringReference is the exactness gate for packed
// coverage keys, over every corpus app × 10 seeds × the three fuzzing
// modes. Each (app, mode) runs its seeds through one reused tracker, Reset
// between trials as a campaign's is, and:
//
//   - each trial's rendered digest must hash to the value recorded from
//     the string-keyed tracker the packed one replaced;
//   - the corpus's admission of the trial must equal the string-keyed
//     reference admission (refCorpus) in NewPairs, NewTuples, NewHB,
//     CoverageNew and Admitted.
func TestPackedCoverageMatchesStringReference(t *testing.T) {
	seeds := exactSeeds
	if testing.Short() {
		seeds = 2
	}
	golden := filepath.Join("testdata", goldenDigestFile)
	var got []string
	for _, app := range bugs.All() {
		for _, m := range exactModes {
			tr := oracle.New()
			c := NewCorpus(DefaultNoveltyThreshold, 0, 0)
			ref := newRefCorpus()
			for s := 0; s < seeds; s++ {
				seed := exactSeed(s)
				tr.Reset()
				types := runExactTrial(app, m.sched(seed), seed, tr)
				cov := tr.Coverage()
				rd := refDigest{RacingPairs: cov.RacingPairs(), HBDigest: cov.HBDigest, Tuples: cov.Tuples()}
				js, err := json.Marshal(rd)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, digestLine(app.Abbr, m.name, seed, js))
				want := ref.admit(types, &rd)
				adm := c.AdmitWithCoverage(types, &cov)
				if !reflect.DeepEqual(adm.NewPairs, want.NewPairs) || !reflect.DeepEqual(adm.NewTuples, want.NewTuples) ||
					adm.NewHB != want.NewHB || adm.CoverageNew != want.CoverageNew || adm.Admitted != want.Admitted {
					t.Fatalf("%s %s seed %d: admission\n%+v\nwant (string reference)\n%+v",
						app.Abbr, m.name, seed, adm, want)
				}
			}
			if p, d, tu := c.CoverageStats(); p != len(ref.pairs) || d != len(ref.digests) || tu != len(ref.tuples) {
				t.Fatalf("%s %s: coverage map sizes %d/%d/%d, reference %d/%d/%d",
					app.Abbr, m.name, p, d, tu, len(ref.pairs), len(ref.digests), len(ref.tuples))
			}
		}
	}
	if *updateGolden && seeds == exactSeeds {
		var b bytes.Buffer
		for _, l := range got {
			b.WriteString(l)
			b.WriteByte('\n')
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(golden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want[sc.Text()] = true
	}
	for _, l := range got {
		if !want[l] {
			t.Errorf("coverage digest differs from the string-keyed tracker's (%s): %s", golden, l)
		}
	}
}
