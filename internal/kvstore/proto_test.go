package kvstore

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"time"

	"nodefz/internal/eventloop"
	"nodefz/internal/simnet"
	"nodefz/internal/wire"
)

// awkward are strings a text protocol would have to escape.
var awkward = []string{"", "plain", `say "hi"`, "line\nbreak", "nul\x00byte", "\xff\xfe not utf-8", `{"a":"1","b":"x\"y"}`}

func TestRequestRoundTrip(t *testing.T) {
	reqs := []request{
		{ID: 1, Op: OpPing},
		{ID: 1 << 63, Op: OpHSet, Args: awkward},
		{ID: 7, Op: "\x00bogus\n", Args: []string{""}},
	}
	for _, req := range reqs {
		got, err := decodeRequest(encodeRequest(nil, &req))
		if err != nil || !reflect.DeepEqual(got, req) {
			t.Fatalf("round trip %+v: got %+v, err %v", req, got, err)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	hgetall := encodeValue(map[string]string{"f\"1": "v\n1", "f\x002": "\xff"})
	for _, val := range append(awkward, hgetall, encodeValue([]string{"a", "\"b\""})) {
		for _, resp := range []response{
			{ID: 3, Val: val, OK: true},
			{ID: 4, Val: val, Err: val},
		} {
			got, err := decodeResponse(encodeResponse(nil, &resp))
			if err != nil || got != resp {
				t.Fatalf("round trip %+v: got %+v, err %v", resp, got, err)
			}
		}
	}
	// The HGETALL value still decodes as the app-facing JSON map.
	resp, _ := decodeResponse(encodeResponse(nil, &response{Val: hgetall, OK: true}))
	m, err := DecodeMap(resp.Val)
	if err != nil || !reflect.DeepEqual(m, map[string]string{"f\"1": "v\n1", "f\x002": "�"}) {
		t.Fatalf("DecodeMap = %v, %v", m, err)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	req := encodeRequest(nil, &request{ID: 300, Op: OpSet, Args: []string{"key", "value"}})
	for n := 0; n < len(req); n++ {
		if _, err := decodeRequest(req[:n]); err == nil {
			t.Errorf("request prefix %d/%d decoded", n, len(req))
		}
	}
	if _, err := decodeRequest(append(req, 0)); err != wire.ErrMalformed {
		t.Errorf("trailing byte: err %v", err)
	}
	resp := encodeResponse(nil, &response{ID: 300, Val: "v", OK: true, Err: "e"})
	for n := 0; n < len(resp); n++ {
		if _, err := decodeResponse(resp[:n]); err == nil {
			t.Errorf("response prefix %d/%d decoded", n, len(resp))
		}
	}
}

// TestMalformedRequestGetsErrReply: a request the server cannot decode is
// answered, under the ID it carried, with a non-empty Err.
func TestMalformedRequestGetsErrReply(t *testing.T) {
	l := eventloop.New(eventloop.Options{})
	net := simnet.New(simnet.Config{Seed: 1, MinLatency: 20 * time.Microsecond, MaxLatency: 200 * time.Microsecond})
	defer net.Close()
	srv, err := NewServer(l, net, "db")
	if err != nil {
		t.Fatal(err)
	}
	var got *response
	net.Dial(l, "db", func(c *simnet.Conn, err error) {
		if err != nil {
			t.Error(err)
			return
		}
		c.OnData(func(b []byte) {
			resp, err := decodeResponse(b)
			if err != nil {
				t.Errorf("reply undecodable: %v", err)
			}
			got = &resp
			c.Close()
			srv.Close()
		})
		// ID 9, then a string length running past the end.
		_ = c.Send(append(binary.AppendUvarint(nil, 9), 40, 'G'))
	})
	done := make(chan error, 1)
	go func() { done <- l.Run() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("loop did not terminate")
	}
	if got == nil || got.Err == "" || got.ID != 9 || got.OK {
		t.Fatalf("reply %+v, want ID 9 with a non-empty Err", got)
	}
	if srv.Requests() != 0 {
		t.Fatalf("malformed request was applied")
	}
}

// FuzzWireDecode: decoding arbitrary bytes as a request or a response
// never panics, never allocates much more than the input's size, and
// whatever decodes re-encodes to bytes that decode to the same value.
func FuzzWireDecode(f *testing.F) {
	f.Add(encodeRequest(nil, &request{ID: 1, Op: OpHSet, Args: []string{"k", "f", "v"}}))
	f.Add(encodeResponse(nil, &response{ID: 2, Val: `{"a":"b"}`, OK: true}))
	f.Add(append(binary.AppendUvarint([]byte{1, 0}, 1<<60), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		req, reqErr := decodeRequest(data)
		resp, respErr := decodeResponse(data)
		runtime.ReadMemStats(&after)
		// Each argument is a 16-byte string header for at least one wire
		// byte; the slack absorbs the fuzz engine's own allocations.
		if grew := after.TotalAlloc - before.TotalAlloc; grew > uint64(32*len(data)+1<<20) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), grew)
		}
		if reqErr == nil {
			again, err := decodeRequest(encodeRequest(nil, &req))
			if err != nil || !reflect.DeepEqual(again, req) {
				t.Fatalf("re-encoding %+v: got %+v, err %v", req, again, err)
			}
		}
		if respErr == nil {
			again, err := decodeResponse(encodeResponse(nil, &resp))
			if err != nil || again != resp {
				t.Fatalf("re-encoding %+v: got %+v, err %v", resp, again, err)
			}
		}
	})
}
