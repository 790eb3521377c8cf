package campaign

import (
	"bufio"
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"nodefz/internal/bugs"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenCoverageFile holds the "coverage" journal records of the fixed
// campaigns in TestCoverageJournalGolden, byte for byte.
const goldenCoverageFile = "coverage_golden_sio_kue.jsonl"

// TestCoverageJournalGolden pins the interleaving-coverage journal records
// of two fixed-seed, single-worker, virtual-time coverage campaigns (SIO,
// then KUE) to a committed golden file. The records carry every racing
// pair, adjacency tuple and HB digest a trial contributed for the first
// time, in the order the corpus discovered them, so any change to how the
// tracker mines coverage or how the corpus folds it shows up here as a
// byte difference. Regenerate with -update only for an intended change of
// the coverage signal.
func TestCoverageJournalGolden(t *testing.T) {
	var got bytes.Buffer
	for _, abbr := range []string{"SIO", "KUE"} {
		app := bugs.ByAbbr(abbr)
		if app == nil {
			t.Fatalf("%s missing from corpus", abbr)
		}
		path := filepath.Join(t.TempDir(), abbr+".jsonl")
		if _, err := Run(Config{App: app, Trials: 60, Workers: 1, BaseSeed: 20171,
			Coverage: true, CheckpointPath: path, MinimizeTrials: -1}); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
		for sc.Scan() {
			if bytes.Contains(sc.Bytes(), []byte(`"type":"coverage"`)) {
				got.Write(sc.Bytes())
				got.WriteByte('\n')
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	golden := filepath.Join("testdata", goldenCoverageFile)
	if *updateGolden {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() == 0 {
		t.Fatal("campaigns journaled no coverage records")
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte{'\n'}), bytes.Split(want, []byte{'\n'})
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("coverage record %d differs from %s:\n got %s\nwant %s", i, golden, gl[i], wl[i])
			}
		}
		t.Fatalf("coverage journal has %d records, golden %s has %d", len(gl)-1, golden, len(wl)-1)
	}
}
