package repkv

import (
	"encoding/binary"

	"nodefz/internal/wire"
)

// msgKind is a message's type tag, its first byte on the wire.
type msgKind uint8

const (
	tReq      msgKind = iota + 1 // client -> leader: INCR
	tReply                       // leader -> client: write ack / NAK
	tGet                         // client -> any: local read
	tGetReply                    // reply to tGet
	tPrep                        // leader -> backups: full log + commit
	tPrepOK                      // backup -> leader: ack carrying log length
	tCommit                      // leader -> backups: commit index / heartbeat
	tSVC                         // start-view-change vote
	tSV                          // new leader -> all: start view
	tGetState                    // ask a normal node for its state
	tState                       // state transfer: log + commit
	tMax                         // one past the last valid kind
)

// appendMsg appends m's encoding to b: the kind byte, then View, From, Seq,
// Key, Val, Commit, OK and the log (a count, then each entry's View, Seq
// and Key). Every field is written for every kind; zero-valued ones cost a
// byte each.
func appendMsg(b []byte, m *msg) []byte {
	b = append(b, byte(m.T))
	b = binary.AppendVarint(b, int64(m.View))
	b = binary.AppendVarint(b, int64(m.From))
	b = binary.AppendVarint(b, int64(m.Seq))
	b = wire.AppendString(b, m.Key)
	b = binary.AppendVarint(b, int64(m.Val))
	b = binary.AppendVarint(b, int64(m.Commit))
	b = wire.AppendBool(b, m.OK)
	b = binary.AppendUvarint(b, uint64(len(m.Log)))
	for i := range m.Log {
		b = appendEntry(b, &m.Log[i])
	}
	return b
}

func appendEntry(b []byte, e *entry) []byte {
	b = binary.AppendVarint(b, int64(e.View))
	b = binary.AppendVarint(b, int64(e.Seq))
	return wire.AppendString(b, e.Key)
}

// minEntrySize is the fewest bytes an encoded entry takes (two one-byte
// varints and an empty string's length).
const minEntrySize = 3

func readEntry(r *wire.Reader) entry {
	return entry{View: int(r.Varint()), Seq: int(r.Varint()), Key: r.String()}
}

// decodeMsg decodes one message. An unknown kind, a truncated field or
// trailing bytes make it fail with wire.ErrMalformed. An empty log decodes
// as nil.
func decodeMsg(data []byte) (msg, error) {
	r := wire.NewReader(data)
	m := msg{T: msgKind(r.Byte())}
	m.View = int(r.Varint())
	m.From = int(r.Varint())
	m.Seq = int(r.Varint())
	m.Key = r.String()
	m.Val = int(r.Varint())
	m.Commit = int(r.Varint())
	m.OK = r.Bool()
	if n := r.Count(minEntrySize); n > 0 {
		m.Log = make([]entry, n)
		for i := range m.Log {
			m.Log[i] = readEntry(&r)
		}
	}
	if r.Err() != nil || m.T == 0 || m.T >= tMax || r.Len() != 0 {
		return msg{}, wire.ErrMalformed
	}
	return m, nil
}

// WAL record types: an appended entry ('e' view seq key) or a commit
// advance ('c' commit).
const (
	recEntry  = 'e'
	recCommit = 'c'
)

func appendWALEntry(b []byte, e *entry) []byte {
	return appendEntry(append(b, recEntry), e)
}

func appendWALCommit(b []byte, commit int) []byte {
	return binary.AppendVarint(append(b, recCommit), int64(commit))
}

// readWAL folds the WAL's records back into the log and the committed
// prefix. simfs.Append is atomic, so only a torn final record can be
// malformed: the first record that fails to decode ends the fold and
// everything before it stands.
func readWAL(data []byte) (lg []entry, committed int) {
	r := wire.NewReader(data)
	for r.Len() > 0 {
		switch r.Byte() {
		case recEntry:
			e := readEntry(&r)
			if r.Err() != nil {
				return lg, committed
			}
			lg = append(lg, e)
		case recCommit:
			c := int(r.Varint())
			if r.Err() != nil {
				return lg, committed
			}
			committed = max(committed, c)
		default:
			return lg, committed
		}
	}
	return lg, committed
}
