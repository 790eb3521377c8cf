package bugs

import (
	"bytes"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"nodefz/internal/core"
	"nodefz/internal/eventloop"
	"nodefz/internal/oracle"
	"nodefz/internal/sched"
	"nodefz/internal/vclock"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// wireGoldenFile pins the outcome of every trial of the wire-neutrality
// sweep: the apps whose traffic crosses a serialized wire protocol (repkv
// messages and WAL, the kvstore request/response protocol).
const wireGoldenFile = "wire_schedules.txt"

// wireApps are the corpus entries built on repkv or kvstore.
var wireApps = []string{"REP-elect", "REP-replay", "EPL", "FPS", "FPS-novel", "GHO", "KUE", "KUE-novel", "MGS"}

// wireModes are the fuzzing configurations the sweep runs each app under;
// cluster applies only to the replicated apps, whose network delivery is a
// decision point.
var wireModes = []struct {
	name    string
	cluster bool
	sched   func(seed int64) eventloop.Scheduler
}{
	{"fz", false, func(seed int64) eventloop.Scheduler { return core.NewScheduler(core.StandardParams(), seed) }},
	{"cluster", true, func(seed int64) eventloop.Scheduler { return core.NewScheduler(core.ClusterParams(), seed) }},
	{"guided", false, func(seed int64) eventloop.Scheduler { return core.NewGuidedScheduler(seed) }},
}

// scheduleHash folds every recorded callback — kind, label and virtual
// timestamp — so a message that arrives at a different virtual instant, or
// a callback that moves, changes the hash.
func scheduleHash(rec *sched.Recorder) uint64 {
	h := fnv.New64a()
	var b []byte
	for _, e := range rec.Entries() {
		b = append(b[:0], e.Kind...)
		b = append(b, 0)
		b = append(b, e.Label...)
		b = append(b, 0)
		b = strconv.AppendInt(b, e.At.UnixNano(), 10)
		b = append(b, 0)
		_, _ = h.Write(b)
	}
	return h.Sum64()
}

// TestWireScheduleNeutrality pins, for seeds 1–10 of every wire-protocol
// app under each applicable fuzzing mode in virtual time, the outcome
// (Manifested, Note), the full schedule hash and the oracle's report
// count. The encoding of a message is not part of what a trial explores:
// simnet latency is drawn per message, independent of its size. So a
// codec change must leave every line byte-identical. Regenerate with
// -update only for an intended change of trial behaviour.
func TestWireScheduleNeutrality(t *testing.T) {
	if testing.Short() {
		t.Skip("full wire sweep; -short skips it")
	}
	var b bytes.Buffer
	for _, abbr := range wireApps {
		app := ByAbbr(abbr)
		if app == nil {
			t.Fatalf("no app %s", abbr)
		}
		cluster := strings.HasPrefix(abbr, "REP-")
		for _, m := range wireModes {
			if m.cluster && !cluster {
				continue
			}
			for seed := int64(1); seed <= 10; seed++ {
				rec := sched.NewRecorder()
				tr := oracle.New()
				out := app.Run(RunConfig{Seed: seed, Scheduler: m.sched(seed), Recorder: rec, Clock: vclock.NewVirtual(), Oracle: tr})
				fmt.Fprintf(&b, "%s %s %d manifested=%t reports=%d schedule=%s len=%d note=%q\n",
					abbr, m.name, seed, out.Manifested, len(tr.Reports()), sched.DigestString(scheduleHash(rec)), rec.Len(), out.Note)
			}
		}
	}
	golden := filepath.Join("testdata", wireGoldenFile)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(b.String(), "\n")
	wl := strings.Split(string(want), "\n")
	if len(got) != len(wl) {
		t.Fatalf("%d golden lines, got %d", len(wl), len(got))
	}
	for i := range got {
		if got[i] != wl[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], wl[i])
		}
	}
}
