package repkv

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"strconv"
	"testing"

	"nodefz/internal/wire"
)

func testLog(n int) []entry {
	lg := make([]entry, n)
	for i := range lg {
		lg[i] = entry{View: i / 50, Seq: 1000 + i, Key: "k" + strconv.Itoa(i%7)}
	}
	return lg
}

func TestMsgRoundTripEveryKind(t *testing.T) {
	var msgs []msg
	for k := tReq; k < tMax; k++ {
		msgs = append(msgs,
			msg{T: k},
			msg{T: k, View: 7, From: 2, Seq: 41, Key: "contested", Val: -3, Commit: 9, OK: true, Log: testLog(3)},
		)
	}
	msgs = append(msgs,
		msg{T: tPrep, View: 1 << 40, Log: testLog(256), Commit: 255},
		msg{T: tReq, Key: "quote\" nl\n nul\x00 \xff"},
	)
	for _, m := range msgs {
		got, err := decodeMsg(appendMsg(nil, &m))
		if err != nil {
			t.Fatalf("%+v: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("round trip\n got  %+v\n want %+v", got, m)
		}
	}
}

// TestMsgEmptyLogDecodesNil: nil and empty logs encode alike and decode as
// nil, as they did when an empty log was omitted from the JSON encoding.
func TestMsgEmptyLogDecodesNil(t *testing.T) {
	for _, lg := range [][]entry{nil, {}} {
		got, err := decodeMsg(appendMsg(nil, &msg{T: tSV, Log: lg}))
		if err != nil || got.Log != nil {
			t.Fatalf("log %#v decoded as %#v, err %v", lg, got.Log, err)
		}
	}
}

func TestMsgRejectsMalformed(t *testing.T) {
	good := appendMsg(nil, &msg{T: tState, View: 3, Log: testLog(4), Commit: 2})
	for n := 0; n < len(good); n++ {
		if _, err := decodeMsg(good[:n]); err == nil {
			t.Errorf("prefix of %d/%d bytes decoded", n, len(good))
		}
	}
	bad := map[string][]byte{
		"kind 0":         appendMsg(nil, &msg{T: 0}),
		"kind past end":  appendMsg(nil, &msg{T: tMax}),
		"trailing bytes": append(append([]byte(nil), good...), 0),
		"ok byte 2":      func() []byte { b := appendMsg(nil, &msg{T: tReply}); b[len(b)-2] = 2; return b }(),
	}
	for name, b := range bad {
		if _, err := decodeMsg(b); err != wire.ErrMalformed {
			t.Errorf("%s: err %v, want ErrMalformed", name, err)
		}
	}
}

// BenchmarkWireCodec measures the codec on the largest message a REP
// trial sends: a prepare carrying a 200-entry log. encode appends into a
// reused buffer and must not allocate; decode allocates the log and its
// keys.
func BenchmarkWireCodec(b *testing.B) {
	m := msg{T: tPrep, View: 3, From: 1, Log: testLog(200), Commit: 190}
	buf := appendMsg(nil, &m)
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendMsg(buf[:0], &m)
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeMsg(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// FuzzWireDecode: decoding arbitrary bytes as a message or a WAL never
// panics, never allocates much more than the input's size (a huge length
// or count prefix is rejected before it sizes anything), and whatever
// decodes re-encodes to bytes that decode to the same value.
func FuzzWireDecode(f *testing.F) {
	f.Add(appendMsg(nil, &msg{T: tPrep, View: 2, Log: testLog(3), Commit: 1}))
	f.Add(appendMsg(nil, &msg{T: tReq, Seq: 5, Key: "k"}))
	f.Add(append(binary.AppendUvarint([]byte{byte(tSV), 0, 0, 0, 0, 0, 0, 0}, 1<<60), 0, 0, 0))
	f.Add(appendWALCommit(appendWALEntry(nil, &entry{View: 1, Seq: 2, Key: "k"}), 1))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := decodeMsg(data)
		lg, committed := readWAL(data)
		runtime.ReadMemStats(&after)
		// An entry is 32 bytes in memory and at least minEntrySize on the
		// wire, and readWAL's append doubling can reach twice that; the
		// slack absorbs the fuzz engine's own allocations, which
		// TotalAlloc also counts. A count that sized an allocation would
		// blow through it.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(64*len(data)+1<<20) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if len(lg) > len(data)/minEntrySize || committed > 0 && len(data) < 2 {
			t.Fatalf("WAL of %d bytes gave %d entries, commit %d", len(data), len(lg), committed)
		}
		if err != nil {
			return
		}
		again, err := decodeMsg(appendMsg(nil, &m))
		if err != nil || !reflect.DeepEqual(again, m) {
			t.Fatalf("re-encoding %+v: got %+v, err %v", m, again, err)
		}
	})
}
