package oracle

import (
	"fmt"
	"strings"
	"sync"
)

// kindTable interns callback-kind strings ("timer", "net-read", ...) to
// small dense IDs, so the tracker's per-callback coverage bookkeeping and
// the campaign's global coverage map work on integers instead of strings.
// ID 0 is reserved: it marks the empty third slot of a 2-tuple key. The
// table only grows — kinds are the substrate's fixed vocabulary of event
// types — and is safe for concurrent use.
type kindTable struct {
	mu    sync.RWMutex
	ids   map[string]uint32
	names []string // names[id-1]
}

// kinds is the one table every tracker and coverage map in the process
// interns into, so IDs agree across concurrent trackers feeding one corpus.
// Each tracker also caches the IDs it has looked up, so its hot path takes
// the lock only on its first sight of a kind.
var kinds = kindTable{ids: make(map[string]uint32)}

// kindBits is the width of one kind ID inside a packed coverage key: three
// IDs fit one uint64.
const (
	kindBits = 21
	maxKinds = 1<<kindBits - 1
)

// validKind reports whether name can be interned: non-empty and free of the
// separators the rendered coverage forms ("a|b", "a>b>c") use, so rendering
// a key and parsing it back is a bijection.
func validKind(name string) bool {
	return name != "" && !strings.ContainsAny(name, "|>")
}

// id interns name, assigning the next ID on first sight. It panics on a
// kind validKind rejects or when the table is full.
func (k *kindTable) id(name string) uint32 {
	k.mu.RLock()
	id, ok := k.ids[name]
	k.mu.RUnlock()
	if ok {
		return id
	}
	k.mu.Lock()
	defer k.mu.Unlock()
	if id, ok := k.ids[name]; ok {
		return id
	}
	if !validKind(name) {
		panic(fmt.Sprintf("oracle: callback kind %q is empty or contains '|' or '>'", name))
	}
	if len(k.names) >= maxKinds {
		panic("oracle: kind table full")
	}
	k.names = append(k.names, name)
	id = uint32(len(k.names))
	k.ids[name] = id
	return id
}

// name returns the kind interned as id.
func (k *kindTable) name(id uint32) string {
	k.mu.RLock()
	defer k.mu.RUnlock()
	return k.names[id-1]
}

// packKey packs up to three kind IDs into one coverage key. Racing pairs
// and 2-tuples leave c = 0.
func packKey(a, b, c uint32) uint64 {
	return uint64(a)<<(2*kindBits) | uint64(b)<<kindBits | uint64(c)
}

func unpackKey(key uint64) (a, b, c uint32) {
	const mask = 1<<kindBits - 1
	return uint32(key >> (2 * kindBits)), uint32(key>>kindBits) & mask, uint32(key) & mask
}

// render spells a packed key the way coverage items are journaled: "a|b"
// for a racing pair (sep '|'), "a>b" or "a>b>c" for a tuple (sep '>').
func (k *kindTable) render(key uint64, sep byte) string {
	a, b, c := unpackKey(key)
	if c == 0 {
		return k.name(a) + string(sep) + k.name(b)
	}
	return k.name(a) + string(sep) + k.name(b) + string(sep) + k.name(c)
}

// parse is render's inverse: it interns the kinds of a rendered pair (sep
// '|', exactly two kinds) or tuple (sep '>', two or three kinds). ok is
// false for a malformed item.
func (k *kindTable) parse(s string, sep byte) (key uint64, ok bool) {
	var ids [3]uint32
	n := 0
	for rest, more := s, true; more; n++ {
		var part string
		part, rest, more = strings.Cut(rest, string(sep))
		if n == len(ids) || (sep == '|' && n == 2) || !validKind(part) {
			return 0, false
		}
		ids[n] = k.id(part)
	}
	if n < 2 {
		return 0, false
	}
	return packKey(ids[0], ids[1], ids[2]), true
}
