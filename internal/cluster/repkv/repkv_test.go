package repkv

import (
	"reflect"
	"testing"

	"nodefz/internal/cluster"
	"nodefz/internal/simfs"
	"nodefz/internal/simnet"
)

// testReplica is a replica bound to disk with no loop or network: enough to
// drive its WAL, recovery and state-transfer paths directly.
func testReplica(disk *simfs.FS, cfg Config) *Replica {
	cfg.Nodes = 3
	return &Replica{
		cfg:       cfg,
		env:       &cluster.Env{Disk: disk},
		status:    "normal",
		store:     make(map[string]int),
		peers:     make([]*simnet.Conn, cfg.Nodes),
		acks:      make(map[int]map[int]bool),
		clientFor: make(map[int]*simnet.Conn),
		acked:     make(map[int]bool),
	}
}

// writeWAL boots a replica on a fresh disk and persists lg with commit
// advances to each of commits.
func writeWAL(t *testing.T, lg []entry, commits ...int) *simfs.FS {
	t.Helper()
	disk := simfs.New()
	r := testReplica(disk, Config{})
	r.recover()
	if r.status != "normal" || r.log != nil {
		t.Fatalf("first boot: status %q, log %v", r.status, r.log)
	}
	for _, e := range lg {
		r.walAppend(e)
	}
	for _, c := range commits {
		r.walCommit(c)
	}
	return disk
}

func TestWALRecoverRestoresLogCommitAndView(t *testing.T) {
	lg := []entry{{View: 0, Seq: 1, Key: "a"}, {View: 2, Seq: 2, Key: "b"}, {View: 3, Seq: 3, Key: "c"}, {View: 4, Seq: 4, Key: "d"}}
	disk := writeWAL(t, lg, 1, 3)
	r := testReplica(disk, Config{})
	r.recover()
	if !reflect.DeepEqual(r.log, lg) {
		t.Fatalf("log %+v, want %+v", r.log, lg)
	}
	// The view is the newest committed entry's; the uncommitted tail's
	// view 4 is not trusted.
	if r.commit != 3 || r.view != 3 || r.status != "recovering" {
		t.Fatalf("commit %d view %d status %q, want 3, 3, recovering", r.commit, r.view, r.status)
	}
}

func TestWALTornFinalRecordIsDropped(t *testing.T) {
	lg := []entry{{View: 1, Seq: 1, Key: "a"}, {View: 1, Seq: 2, Key: "b"}}
	full := appendWALEntry(nil, &entry{View: 1, Seq: 3, Key: "torn-key"})
	for cut := 1; cut < len(full); cut++ {
		disk := writeWAL(t, lg, 2)
		if err := disk.Append(walPath, full[:cut]); err != nil {
			t.Fatal(err)
		}
		r := testReplica(disk, Config{})
		r.recover()
		if !reflect.DeepEqual(r.log, lg) || r.commit != 2 || r.view != 1 {
			t.Fatalf("cut %d: log %+v commit %d view %d", cut, r.log, r.commit, r.view)
		}
	}
	// So is an unknown record type.
	disk := writeWAL(t, lg, 1)
	_ = disk.Append(walPath, []byte{'x', 9})
	r := testReplica(disk, Config{})
	r.recover()
	if !reflect.DeepEqual(r.log, lg) || r.commit != 1 {
		t.Fatalf("unknown record: log %+v commit %d", r.log, r.commit)
	}
}

// TestReplayWALSeesUncommittedSuffix: a restarted REP-replay node still
// holds its WAL's uncommitted suffix after recovery, and its buggy state
// installation re-applies it on top of the transferred state.
func TestReplayWALSeesUncommittedSuffix(t *testing.T) {
	lg := []entry{{View: 1, Seq: 1, Key: "warm"}, {View: 1, Seq: 2, Key: "hot"}, {View: 1, Seq: 3, Key: "hot"}}
	disk := writeWAL(t, lg, 1)
	var ghosts []string
	r := testReplica(disk, Config{ReplayWAL: true, Tag: func(event string, node int, key string) {
		if event == TagReplayGhost {
			ghosts = append(ghosts, key)
		}
	}})
	r.recover()
	// The group committed both writes through the client's retries.
	r.onState(msg{T: tState, View: 2, Log: lg, Commit: 3})
	if !reflect.DeepEqual(ghosts, []string{"hot", "hot"}) {
		t.Fatalf("replayed %v, want the two uncommitted entries", ghosts)
	}
	if got := r.store["hot"]; got != 4 {
		t.Fatalf("hot = %d, want 4 (2 committed + 2 replayed)", got)
	}
	if r.status != "normal" || r.view != 2 || r.commit != 3 {
		t.Fatalf("after install: status %q view %d commit %d", r.status, r.view, r.commit)
	}
}
