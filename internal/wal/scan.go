package wal

import (
	"bytes"
	"fmt"
)

// Damage describes one damaged line found while scanning. Offsets let a
// checker point at the exact bytes; Raw carries them (newline included when
// present) into a quarantine sidecar.
type Damage struct {
	Line   int   // 1-based line number
	Offset int64 // byte offset of the line start
	Reason string
	Raw    []byte
}

// Scan is the result of verifying one log file.
type Scan struct {
	// Frames counts the accepted records: the verified prefix.
	Frames int
	// ValidLen is the byte length of the verified prefix — everything a
	// salvage may keep. Bytes past it belong to damaged lines.
	ValidLen int64
	// Size is the total length scanned.
	Size   int64
	Damage []Damage
	// Torn reports that all damage is benign crash residue (see the package
	// comment), safe to truncate away. Damage with Torn false is corruption.
	Torn bool
	// Manifest reports a verified trailing manifest.
	Manifest bool
}

func (s *Scan) addDamage(ln line, lineNo int, reason string) {
	raw := ln.text
	if ln.terminated {
		raw = append(append([]byte(nil), raw...), '\n')
	}
	s.Damage = append(s.Damage, Damage{Line: lineNo, Offset: ln.off, Reason: reason, Raw: raw})
}

// ScanBytes verifies the file image data against header. Each checksummed
// payload of the verified prefix is handed, in order, to accept, which
// returns "" to take the record or the reason it is damaged (unparseable,
// out of sequence); the slice is only valid during the call. sealed selects
// a file that must end in a manifest (and may hold nothing after it); an
// unsealed file must hold none. ScanBytes never fails: damage is reported
// for the caller's policy to act on. Empty data scans clean and empty.
func ScanBytes(data []byte, header string, sealed bool, accept func(payload []byte) (reason string)) *Scan {
	s := &Scan{Size: int64(len(data))}
	lines := splitLines(data)
	if len(lines) == 0 {
		return s
	}
	// Past the first damage nothing is trusted; the scan continues only to
	// classify: corrupt is set once the damage cannot be crash residue.
	damaged, corrupt := false, false
	if string(lines[0].text) == header && lines[0].terminated {
		s.ValidLen = lines[0].end()
	} else {
		damaged = true
		s.addDamage(lines[0], 1, "missing or damaged header")
		// A crash while the file was being created leaves a prefix of the
		// header line. Any other bytes were never written by this package's
		// create path: truncating them as "torn" could discard a whole log
		// whose header rotted.
		corrupt = !bytes.HasPrefix(append([]byte(header), '\n'), data)
	}
	for i, ln := range lines[1:] {
		lineNo := i + 2
		if damaged {
			s.addDamage(ln, lineNo, "unverified after damage")
			if ln.terminated {
				if _, reason := parseFrame(ln.text); reason == "" {
					corrupt = true
				}
			}
			continue
		}
		reason := ""
		switch {
		case !ln.terminated:
			reason = "torn record (no trailing newline)"
		case len(ln.text) > 0 && ln.text[0] == '!':
			if !sealed {
				reason = "unexpected manifest in append-only log"
			} else if reason = verifyManifest(data, ln, s.Frames); reason == "" {
				s.Manifest = true
				s.ValidLen = ln.end()
				continue
			}
		case s.Manifest:
			reason = "data after manifest"
		default:
			var payload []byte
			if payload, reason = parseFrame(ln.text); reason == "" {
				reason = accept(payload)
			}
			if reason == "" {
				s.Frames++
				s.ValidLen = ln.end()
				continue
			}
		}
		damaged = true
		s.addDamage(ln, lineNo, reason)
	}
	if sealed && !s.Manifest && !damaged {
		// Sealed files are written atomically: a clean scan with no manifest
		// means the file was cut off exactly at a frame boundary.
		s.Damage = append(s.Damage, Damage{Line: len(lines) + 1, Offset: s.Size, Reason: "missing manifest"})
		damaged = true
	}
	s.Torn = damaged && !corrupt && !s.Manifest
	return s
}

func verifyManifest(data []byte, ln line, frames int) string {
	if len(ln.text) != manifestLen || ln.text[9] != ' ' {
		return "malformed manifest"
	}
	count, ok1 := parseHex8(ln.text[1:9])
	sum, ok2 := parseHex8(ln.text[10:18])
	if !ok1 || !ok2 {
		return "malformed manifest"
	}
	if int(count) != frames {
		return fmt.Sprintf("manifest frame count %d, file has %d", count, frames)
	}
	if crc32c(data[:ln.off]) != sum {
		return "manifest checksum mismatch"
	}
	return ""
}
