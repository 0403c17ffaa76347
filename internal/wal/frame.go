// Package wal is the one write-ahead-log mechanism under both durable logs
// of this repository: the mini-slurm controller's journal/snapshot pair and
// the sweep fabric's campaign journal. The package owns the bytes — framing,
// verification, damage classification, and the append discipline; its
// callers own the records (a payload is opaque here, judged only through the
// caller's accept callback). A log file is line-oriented and greppable, and
// every record verifies itself:
//
//	<header>                       ← first line: names the log and its format
//	=LLLLLLLL CCCCCCCC <payload>   ← frame: hex payload length, hex CRC32C of
//	                                 the payload, the payload (no newline in it)
//	!NNNNNNNN CCCCCCCC             ← manifest (sealed files only): hex frame
//	                                 count, hex CRC32C of every preceding byte
//
// The length prefix makes a torn append detectable even when the torn bytes
// look like a record; the CRC catches bit rot; the manifest seals files that
// are written atomically (tmp+rename) and must therefore never be torn.
//
// Scan sorts a file into one of three states. Clean: everything verifies.
// Torn: the damage is an unverifiable tail, or the whole file is a prefix of
// its header line — what a crash mid-append (or mid-create) leaves; those
// bytes were never acknowledged, so truncating to ValidLen loses nothing.
// Corrupt: a verifiable frame follows the first damaged line, or a non-empty
// file has no header and is not a prefix of one (bit rot, a foreign file) —
// truncating would silently discard committed records, so the caller must
// refuse or quarantine. Nothing past the first damaged line is ever returned
// as a record.
package wal

import (
	"fmt"
	"hash/crc32"
)

const (
	// frameMetaLen is len("=LLLLLLLL CCCCCCCC "), the fixed-width preamble.
	frameMetaLen = 19
	// manifestLen is len("!NNNNNNNN CCCCCCCC"), a manifest line's exact size.
	manifestLen = 18
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func crc32c(p []byte) uint32 { return crc32.Checksum(p, castagnoli) }

func appendHex8(dst []byte, v uint32) []byte {
	const digits = "0123456789abcdef"
	for shift := 28; shift >= 0; shift -= 4 {
		dst = append(dst, digits[v>>uint(shift)&0xf])
	}
	return dst
}

func parseHex8(s []byte) (uint32, bool) {
	if len(s) != 8 {
		return 0, false
	}
	var v uint32
	for _, c := range s {
		var d uint32
		switch {
		case c >= '0' && c <= '9':
			d = uint32(c - '0')
		case c >= 'a' && c <= 'f':
			d = uint32(c-'a') + 10
		default:
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// AppendFrame appends the frame line for payload, which must not contain a
// newline (encoding/json output never does).
func AppendFrame(dst, payload []byte) []byte {
	dst = append(dst, '=')
	dst = appendHex8(dst, uint32(len(payload)))
	dst = append(dst, ' ')
	dst = appendHex8(dst, crc32c(payload))
	dst = append(dst, ' ')
	dst = append(dst, payload...)
	return append(dst, '\n')
}

// Encode renders a complete file image: the header line, one frame per
// payload, and — for a sealed file — the trailing manifest.
func Encode(header string, payloads [][]byte, sealed bool) []byte {
	buf := append([]byte(header), '\n')
	for _, p := range payloads {
		buf = AppendFrame(buf, p)
	}
	if !sealed {
		return buf
	}
	sum := crc32c(buf)
	buf = append(buf, '!')
	buf = appendHex8(buf, uint32(len(payloads)))
	buf = append(buf, ' ')
	buf = appendHex8(buf, sum)
	return append(buf, '\n')
}

// parseFrame validates a frame line's structure and checksum and returns the
// payload. A non-empty reason describes the damage.
func parseFrame(text []byte) (payload []byte, reason string) {
	if len(text) < frameMetaLen || text[0] != '=' || text[9] != ' ' || text[18] != ' ' {
		return nil, "malformed frame"
	}
	length, ok1 := parseHex8(text[1:9])
	sum, ok2 := parseHex8(text[10:18])
	if !ok1 || !ok2 {
		return nil, "malformed frame header"
	}
	payload = text[frameMetaLen:]
	if uint32(len(payload)) != length {
		return nil, fmt.Sprintf("length mismatch (header %d, payload %d)", length, len(payload))
	}
	if crc32c(payload) != sum {
		return nil, "checksum mismatch"
	}
	return payload, ""
}

// line is one physical line of a log file with its byte offset; terminated
// records whether the trailing newline was present (a final line without one
// is a torn append).
type line struct {
	off        int64
	text       []byte
	terminated bool
}

// end is the byte offset just past the line, newline included.
func (ln line) end() int64 {
	end := ln.off + int64(len(ln.text))
	if ln.terminated {
		end++
	}
	return end
}

// splitLines cuts data into physical lines.
func splitLines(data []byte) []line {
	var lines []line
	start := 0
	for i := 0; i < len(data); i++ {
		if data[i] == '\n' {
			lines = append(lines, line{off: int64(start), text: data[start:i], terminated: true})
			start = i + 1
		}
	}
	if start < len(data) {
		lines = append(lines, line{off: int64(start), text: data[start:], terminated: false})
	}
	return lines
}
