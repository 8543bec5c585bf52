// Package serve is the front-end daemon layer: it accepts concurrent query
// sessions over the framed transport of internal/wire, which the shard
// backends speak too (docs/WIRE.md, client protocol section), admits each
// query onto a bounded number of process-lifetime scheduler pools behind an
// admission queue, governs their combined operator memory with one
// process-global budget, and answers every request with a byte-exact
// encoded result. The engine,
// planner, and catalog know nothing of it: serve composes them through the
// same engine.Context seam a single-query run uses, which is what keeps
// daemon results byte-identical to serial single-box runs.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"

	"bdcc/internal/engine"
	"bdcc/internal/expr"
	"bdcc/internal/vector"
)

// Protocol identity of the client protocol: the frames and the hello
// exchange are internal/wire's, shared with the worker protocol, under its
// own magic so a client cannot mistake a worker for a daemon, and its own
// version counter. The hello reply announces the daemon's pool count.
// Version 2 tracks the batch wire form gaining its per-column encoding tag
// byte (result batches cross in that form, so an old client would misparse
// them).
const (
	ProtoMagic   = "BDCQ"
	ProtoVersion = 2
)

// Client-protocol frame types, numbered after the worker protocol's 1-7 so
// the one WIRE.md frame table stays unambiguous. Type 1 is the hello both
// protocols share (wire.FrameHello).
const (
	frameQuery      = byte(8)  // client → daemon: run one query; id = request id
	frameResult     = byte(9)  // daemon → client: status + result; id = request id
	frameStats      = byte(10) // client → daemon: admission/memory counters
	frameStatsReply = byte(11) // daemon → client: JSON-encoded Stats
)

// Result statuses carried in the first payload byte of frameResult.
const (
	statusOK       = byte(0) // payload: encoded result
	statusError    = byte(1) // payload: error text (the query failed)
	statusRejected = byte(2) // payload: reason (admission or memory rejection)
)

// ErrRejected marks a query the daemon refused to run — the admission queue
// was full, the bounded queue wait expired, or the process memory budget
// could not cover it — as opposed to a query that ran and failed. Clients
// retry rejected queries (later, elsewhere, or never); failed queries would
// fail identically again.
var ErrRejected = errors.New("serve: query rejected")

var errClosed = errors.New("serve: closed")

// encodeQuery lays out a frameQuery payload: u16 scheme length + scheme,
// u16 query length + query.
func encodeQuery(scheme, query string, buf []byte) ([]byte, error) {
	if len(scheme) > 1<<16-1 || len(query) > 1<<16-1 {
		return nil, fmt.Errorf("serve: scheme or query name over the u16 length field")
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(scheme)))
	buf = append(buf, scheme...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(query)))
	buf = append(buf, query...)
	return buf, nil
}

func decodeQuery(payload []byte) (scheme, query string, err error) {
	take := func() (string, error) {
		if len(payload) < 2 {
			return "", fmt.Errorf("serve: truncated query frame")
		}
		n := int(binary.LittleEndian.Uint16(payload))
		payload = payload[2:]
		if len(payload) < n {
			return "", fmt.Errorf("serve: truncated query frame")
		}
		s := string(payload[:n])
		payload = payload[n:]
		return s, nil
	}
	if scheme, err = take(); err != nil {
		return "", "", err
	}
	if query, err = take(); err != nil {
		return "", "", err
	}
	return scheme, query, nil
}

// encodeResult appends a result's wire form: u16 column count, each column
// name (u16 length + bytes), then the columns in the exact batch encoding
// of internal/vector — IEEE-754 float bits and raw string bytes — so a
// decoded result reproduces the original bit for bit.
func encodeResult(res *engine.Result, buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(res.Schema)))
	for _, c := range res.Schema {
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(c.Name)))
		buf = append(buf, c.Name...)
	}
	b := &vector.Batch{Cols: res.Cols}
	return b.Encode(buf)
}

func decodeResult(data []byte) (*engine.Result, error) {
	if len(data) < 2 {
		return nil, fmt.Errorf("serve: truncated result encoding")
	}
	ncols := int(binary.LittleEndian.Uint16(data))
	data = data[2:]
	names := make([]string, ncols)
	for i := range names {
		if len(data) < 2 {
			return nil, fmt.Errorf("serve: truncated result schema")
		}
		n := int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		if len(data) < n {
			return nil, fmt.Errorf("serve: truncated result schema")
		}
		names[i] = string(data[:n])
		data = data[n:]
	}
	b, n, err := vector.DecodeBatch(data)
	if err != nil {
		return nil, err
	}
	if n != len(data) {
		return nil, fmt.Errorf("serve: %d trailing bytes after result", len(data)-n)
	}
	if len(b.Cols) != ncols {
		return nil, fmt.Errorf("serve: result names %d columns, carries %d", ncols, len(b.Cols))
	}
	res := &engine.Result{Cols: b.Cols, Schema: make(expr.Schema, ncols)}
	for i, c := range b.Cols {
		res.Schema[i] = expr.ColMeta{Name: names[i], Kind: c.Kind}
	}
	return res, nil
}
