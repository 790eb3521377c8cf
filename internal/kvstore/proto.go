// Package kvstore is a Redis-like key/value service reached over simnet:
// the back-end database the paper's subjects race on (GHO's user store,
// KUE's Redis job states, MGS's MongoDB documents — §3.3.2 "races on
// system resources").
//
// The server applies each request atomically in a single loop callback; the
// nondeterminism lives in the wire (per-message latency) and in the
// client's connection pool: consecutive commands issued by one client are
// striped round-robin across pooled connections, so — exactly like
// concurrent updates from a JavaScript driver — they may be *processed* in
// either order even though they were *issued* in program order. That
// reordering window is what the KUE/GHO/MGS bugs depend on.
package kvstore

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"nodefz/internal/wire"
)

// Supported operations.
const (
	OpGet     = "GET"
	OpSet     = "SET"
	OpSetNX   = "SETNX" // args: key, val, ttl-ms ("0" = no expiry)
	OpDel     = "DEL"
	OpIncr    = "INCR"
	OpAppend  = "APPEND"
	OpExists  = "EXISTS"
	OpHSet    = "HSET"
	OpHGet    = "HGET"
	OpHDel    = "HDEL"
	OpHGetAll = "HGETALL"
	OpHLen    = "HLEN"
	OpLPush   = "LPUSH"
	OpRPush   = "RPUSH"
	OpLPop    = "LPOP"
	OpLLen    = "LLEN"
	OpLRange  = "LRANGE" // args: key, start, stop (inclusive, negatives from end)
	OpPing    = "PING"
)

// request is one command, client -> server. On the wire (see
// internal/wire): ID as a uvarint, Op as a string, then the argument count
// and each argument as a string.
type request struct {
	ID   uint64
	Op   string
	Args []string
}

// response is one reply, server -> client: ID as a uvarint, Val as a
// string, OK as a byte, Err as a string.
type response struct {
	ID  uint64
	Val string
	OK  bool
	Err string
}

// encodeRequest appends req's encoding to b.
func encodeRequest(b []byte, req *request) []byte {
	b = binary.AppendUvarint(b, req.ID)
	b = wire.AppendString(b, req.Op)
	b = binary.AppendUvarint(b, uint64(len(req.Args)))
	for _, a := range req.Args {
		b = wire.AppendString(b, a)
	}
	return b
}

// decodeRequest decodes one request. On a malformed one it returns
// wire.ErrMalformed and whatever ID it read, so the error reply can carry
// it.
func decodeRequest(data []byte) (request, error) {
	r := wire.NewReader(data)
	req := request{ID: r.Uvarint(), Op: r.String()}
	if n := r.Count(1); n > 0 {
		req.Args = make([]string, n)
		for i := range req.Args {
			req.Args[i] = r.String()
		}
	}
	if r.Err() != nil || r.Len() != 0 {
		return request{ID: req.ID}, wire.ErrMalformed
	}
	return req, nil
}

// encodeResponse appends resp's encoding to b.
func encodeResponse(b []byte, resp *response) []byte {
	b = binary.AppendUvarint(b, resp.ID)
	b = wire.AppendString(b, resp.Val)
	b = wire.AppendBool(b, resp.OK)
	return wire.AppendString(b, resp.Err)
}

// decodeResponse decodes one reply.
func decodeResponse(data []byte) (response, error) {
	r := wire.NewReader(data)
	resp := response{ID: r.Uvarint(), Val: r.String(), OK: r.Bool(), Err: r.String()}
	if r.Err() != nil || r.Len() != 0 {
		return response{}, wire.ErrMalformed
	}
	return resp, nil
}

// encodeValue renders an HGETALL or LRANGE reply value as JSON, the
// Reply.Val form DecodeMap and DecodeList read.
func encodeValue(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Maps and slices of strings marshal unconditionally; failure is a
		// programming error.
		panic(fmt.Sprintf("kvstore: marshal: %v", err))
	}
	return string(b)
}

// Reply is the client-visible outcome of a command.
type Reply struct {
	// Val is the value payload (HGETALL encodes its map as JSON).
	Val string
	// OK is op-specific: key existed (GET/EXISTS/HGET), lock acquired
	// (SETNX), field was new (HSET), ...
	OK bool
	// Err is a transport or server error.
	Err error
}

// ErrClientClosed is reported for commands issued after Client.Close.
var ErrClientClosed = errors.New("kvstore: client closed")

// DecodeMap decodes an HGETALL reply value.
func DecodeMap(val string) (map[string]string, error) {
	m := make(map[string]string)
	if val == "" {
		return m, nil
	}
	if err := json.Unmarshal([]byte(val), &m); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeList decodes an LRANGE reply value.
func DecodeList(val string) ([]string, error) {
	var out []string
	if val == "" {
		return out, nil
	}
	if err := json.Unmarshal([]byte(val), &out); err != nil {
		return nil, err
	}
	return out, nil
}
