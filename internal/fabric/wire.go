package fabric

// Wire-protocol hardening. The fabric speaks JSON lines over TCP; both ends
// decode through these helpers so a malformed or hostile frame errors
// cleanly — never panics, never allocates beyond the line bound — and the
// fuzz tests (wire_fuzz_test.go) hold that property under arbitrary input.
// The end-to-end completion checksum also lives here: both sides compute it
// from the same three inputs, so any byte that changes between the worker's
// cell function returning and the dispatcher accepting the row flips the
// CRC and the completion is rejected instead of corrupting the campaign.

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
)

// maxResultBytes bounds one completion payload inside a protocol line. The
// base64 encoding inflates it ~4/3 on the wire, so this keeps a whole
// completion line under maxLine with room for the envelope.
const maxResultBytes = 3 * (maxLine / 4)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// completionSum is the end-to-end completion checksum: CRC32C over the
// campaign identity (the spec's SHA-256, hex), the cell index, and the
// encoded row bytes. Binding the spec hash and index means a correct row for
// the wrong cell — or the right cell of the wrong campaign — also fails
// verification, not just a flipped payload byte.
func completionSum(specSHAHex string, cell int, row []byte) uint32 {
	h := crc32.New(castagnoli)
	h.Write([]byte(specSHAHex))
	var idx [8]byte
	binary.LittleEndian.PutUint64(idx[:], uint64(cell))
	h.Write(idx[:])
	h.Write(row)
	return h.Sum32()
}

// knownOp reports whether op is a verb either side of the protocol serves.
func knownOp(op string) bool {
	switch op {
	case "hello", "lease", "heartbeat", "complete", "goodbye", "health":
		return true
	}
	return false
}

// decodeRequest parses one worker→dispatcher line, rejecting frames that are
// oversized, syntactically invalid, name an unknown op, or carry a payload
// past the result bound. Errors are returned, never panicked.
func decodeRequest(line []byte) (request, error) {
	var req request
	if len(line) > maxLine {
		return req, fmt.Errorf("fabric: request line %d bytes exceeds %d", len(line), maxLine)
	}
	if err := json.Unmarshal(line, &req); err != nil {
		return req, fmt.Errorf("fabric: bad request: %w", err)
	}
	if !knownOp(req.Op) {
		return req, fmt.Errorf("fabric: unknown op %q", req.Op)
	}
	if len(req.Result) > maxResultBytes {
		return req, fmt.Errorf("fabric: result %d bytes exceeds %d", len(req.Result), maxResultBytes)
	}
	return req, nil
}

// decodeResponse parses one dispatcher→worker line, rejecting frames that
// are oversized, syntactically invalid, or carry nonsensical campaign shape
// (negative cell counts or cadences), so a confused or hostile dispatcher
// cannot wedge a worker into absurd state.
func decodeResponse(line []byte) (response, error) {
	var resp response
	if len(line) > maxLine {
		return resp, fmt.Errorf("fabric: response line %d bytes exceeds %d", len(line), maxLine)
	}
	if err := json.Unmarshal(line, &resp); err != nil {
		return resp, fmt.Errorf("fabric: bad response: %w", err)
	}
	if resp.Cells < 0 || resp.LeaseMS < 0 || resp.HeartbeatMS < 0 || resp.WaitMS < 0 {
		return resp, fmt.Errorf("fabric: response carries negative campaign shape (cells=%d lease_ms=%d heartbeat_ms=%d wait_ms=%d)",
			resp.Cells, resp.LeaseMS, resp.HeartbeatMS, resp.WaitMS)
	}
	if len(resp.Spec) > maxLine {
		return resp, fmt.Errorf("fabric: spec %d bytes exceeds %d", len(resp.Spec), maxLine)
	}
	return resp, nil
}
