// Package sched records and compares event-loop schedules.
//
// Node.fz §5.3 approximates a libuv schedule by its "type schedule": the
// sequence of callback-type strings ("timer", "network read", "worker pool
// task", ...) in execution order. The variation between two executions is
// the Levenshtein distance between their type schedules, normalized by the
// maximum possible distance so values are comparable across modules
// (Figure 7).
package sched

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Entry is one executed callback in a schedule.
type Entry struct {
	Seq   int       // execution index, starting at 0
	Kind  string    // callback type, e.g. "timer", "net-read", "work-done"
	Label string    // free-form detail, e.g. the handle or task name
	At    time.Time // wall-clock execution time
}

// Recorder captures the schedule of an execution. It satisfies the event
// loop's Recorder hook. A Recorder is safe for concurrent use: in vanilla
// (non-serialized) mode worker-pool tasks may record concurrently with loop
// callbacks.
//
// The zero value is ready to use.
type Recorder struct {
	// Now supplies entry timestamps; nil means time.Now. Trials running
	// under a virtual clock must point this at the trial clock, or the
	// wall-clock stamps make otherwise deterministic traces diverge.
	Now func() time.Time

	mu      sync.Mutex
	entries []Entry
}

// NewRecorder returns an empty Recorder stamping entries with wall time.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends one executed callback to the schedule.
func (r *Recorder) Record(kind, label string) {
	now := time.Now
	if r.Now != nil {
		now = r.Now
	}
	r.mu.Lock()
	r.entries = append(r.entries, Entry{Seq: len(r.entries), Kind: kind, Label: label, At: now()})
	r.mu.Unlock()
}

// Len reports the number of recorded callbacks.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.entries)
}

// Entries returns a copy of the recorded schedule.
func (r *Recorder) Entries() []Entry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Entry, len(r.entries))
	copy(out, r.entries)
	return out
}

// Types returns the type schedule: the Kind of each recorded callback in
// execution order.
func (r *Recorder) Types() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.entries))
	for i, e := range r.entries {
		out[i] = e.Kind
	}
	return out
}

// Reset discards all recorded entries.
func (r *Recorder) Reset() {
	r.mu.Lock()
	r.entries = r.entries[:0]
	r.mu.Unlock()
}

// String renders the schedule compactly, one "kind(label)" per element.
func (r *Recorder) String() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for i, e := range r.entries {
		if i > 0 {
			b.WriteByte(' ')
		}
		if e.Label != "" {
			fmt.Fprintf(&b, "%s(%s)", e.Kind, e.Label)
		} else {
			b.WriteString(e.Kind)
		}
	}
	return b.String()
}

// Histogram returns the count of each callback type, with keys in sorted
// order, useful for summarising long schedules.
func (r *Recorder) Histogram() []TypeCount {
	counts := make(map[string]int)
	r.mu.Lock()
	for _, e := range r.entries {
		counts[e.Kind]++
	}
	r.mu.Unlock()
	out := make([]TypeCount, 0, len(counts))
	for k, n := range counts {
		out = append(out, TypeCount{Kind: k, N: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// TypeCount is one row of a schedule histogram.
type TypeCount struct {
	Kind string
	N    int
}

// Levenshtein returns the edit distance (insertions, deletions,
// substitutions, unit cost each) between the two type schedules.
//
// It interns both schedules to dense symbol IDs and runs the bit-parallel
// Pattern kernel with the shorter schedule as the pattern:
// O(⌈min/64⌉·max) word steps. Scratch state is pooled, so steady-state calls
// do not allocate.
func Levenshtein(a, b []string) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	s := levPool.Get().(*levScratch)
	defer levPool.Put(s)
	// b, the shorter schedule, is the pattern; a symbol of a that b lacks
	// maps to len(s.ids), the alphabet's all-zero mask row.
	clear(s.ids)
	s.pat = slices.Grow(s.pat[:0], len(b))
	for _, t := range b {
		id, ok := s.ids[t]
		if !ok {
			id = int32(len(s.ids))
			s.ids[t] = id
		}
		s.pat = append(s.pat, id)
	}
	absent := int32(len(s.ids))
	s.text = slices.Grow(s.text[:0], len(a))
	for _, t := range a {
		id, ok := s.ids[t]
		if !ok {
			id = absent
		}
		s.text = append(s.text, id)
	}
	s.kernel.Reset(s.pat, len(s.ids))
	return s.kernel.Distance(s.text, len(a))
}

// levScratch is Levenshtein's reusable interning and kernel state.
type levScratch struct {
	ids       map[string]int32
	pat, text []int32
	kernel    Pattern
}

var levPool = sync.Pool{New: func() any {
	return &levScratch{ids: make(map[string]int32)}
}}

// NormalizedLevenshtein returns Levenshtein(a, b) divided by the maximum
// possible distance, max(len(a), len(b)), so 0 means identical schedules and
// 1 means nothing in common. Two empty schedules have distance 0.
func NormalizedLevenshtein(a, b []string) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	return float64(Levenshtein(a, b)) / float64(n)
}

// Truncate returns the first n elements of the schedule (or the schedule
// itself if shorter). Figure 7 considers only the first 20K callbacks of
// each schedule, and the campaign corpus stores truncated schedules, to
// bound the cost of each Levenshtein comparison.
func Truncate(s []string, n int) []string {
	if n >= 0 && len(s) > n {
		return s[:n]
	}
	return s
}

// MeanPairwiseNLD computes the mean normalized Levenshtein distance over all
// unordered pairs of the given schedules, truncating each schedule to
// truncate callbacks first (truncate < 0 means no truncation). This is the
// Figure 7 statistic. It returns 0 when fewer than two schedules are given.
func MeanPairwiseNLD(schedules [][]string, truncate int) float64 {
	if len(schedules) < 2 {
		return 0
	}
	ts := make([][]string, len(schedules))
	for i, s := range schedules {
		ts[i] = Truncate(s, truncate)
	}
	var sum float64
	var pairs int
	for i := 0; i < len(ts); i++ {
		for j := i + 1; j < len(ts); j++ {
			sum += NormalizedLevenshtein(ts[i], ts[j])
			pairs++
		}
	}
	return sum / float64(pairs)
}
