package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"nodefz/internal/bugs"
)

// elapsedField matches a trial record's wall-time measurement, the one
// journal field that legitimately differs between identical runs.
var elapsedField = regexp.MustCompile(`"elapsed_ms":[0-9]+,`)

// TestDefaultCampaignIsVirtualAndDeterministic: a campaign with no clock
// configuration runs every trial on virtual time, so two single-worker
// coverage campaigns journal byte-identical records once elapsed_ms is
// dropped — trials, coverage, checkpoints and the minimization record
// alike. Setting the deprecated VirtualTime field changes nothing.
func TestDefaultCampaignIsVirtualAndDeterministic(t *testing.T) {
	for _, tc := range []struct {
		abbr   string
		trials int
	}{{"SIO", 40}, {"REP-elect", 15}} {
		app := bugs.ByAbbr(tc.abbr)
		if app == nil {
			t.Fatalf("%s missing from corpus", tc.abbr)
		}
		journal := func(name string, virtual bool) []byte {
			path := filepath.Join(t.TempDir(), name+".jsonl")
			res, err := Run(Config{App: app, Trials: tc.trials, Workers: 1, BaseSeed: 5,
				VirtualTime: virtual, Coverage: true, CheckpointPath: path})
			if err != nil {
				t.Fatal(err)
			}
			if res.Done != tc.trials {
				t.Fatalf("%s: %d/%d trials done", tc.abbr, res.Done, tc.trials)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return elapsedField.ReplaceAll(b, nil)
		}
		first := journal("first", false)
		if !bytes.Contains(first, []byte(`"type":"coverage"`)) {
			t.Fatalf("%s: coverage campaign journaled no coverage records", tc.abbr)
		}
		for _, run := range []struct {
			name    string
			virtual bool
		}{{"second", false}, {"deprecated-field", true}} {
			if got := journal(run.name, run.virtual); !bytes.Equal(got, first) {
				gl, wl := bytes.Split(got, []byte{'\n'}), bytes.Split(first, []byte{'\n'})
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if !bytes.Equal(gl[i], wl[i]) {
						t.Fatalf("%s %s run: journal line %d differs:\n got %s\nwant %s", tc.abbr, run.name, i, gl[i], wl[i])
					}
				}
				t.Fatalf("%s %s run: journal has %d lines, first run %d", tc.abbr, run.name, len(gl), len(wl))
			}
		}
	}
}
