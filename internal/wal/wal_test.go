package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/des"
	"repro/internal/vfs"
)

// The framing-level suite, run once over a toy payload: both journals built
// on this package inherit these properties and test only their own records
// and policy.

const toyHeader = "#toy-log v1 crc32c"

func toyPayload(i int) []byte { return []byte(fmt.Sprintf(`{"n":%d,"pad":"%0*d"}`, i, i%7, 0)) }

func toyPayloads(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = toyPayload(i)
	}
	return out
}

// scanToy scans data collecting the accepted payloads. The toy accept
// enforces that record i carries n=i, a stand-in for a caller's sequence rule.
func scanToy(data []byte, sealed bool) (*Scan, [][]byte) {
	var got [][]byte
	s := ScanBytes(data, toyHeader, sealed, func(p []byte) string {
		if !bytes.HasPrefix(p, []byte(fmt.Sprintf(`{"n":%d,`, len(got)))) {
			return "out of order"
		}
		got = append(got, append([]byte(nil), p...))
		return ""
	})
	return s, got
}

// checkPrefix asserts the accepted payloads are exactly the first len(got)
// originals: verification may shorten the log, never alter a record.
func checkPrefix(t *testing.T, ctx string, got [][]byte, s *Scan) {
	t.Helper()
	if s.Frames != len(got) {
		t.Fatalf("%s: Frames=%d but accept took %d", ctx, s.Frames, len(got))
	}
	for i, p := range got {
		if !bytes.Equal(p, toyPayload(i)) {
			t.Fatalf("%s: record %d = %q, want %q", ctx, i, p, toyPayload(i))
		}
	}
}

func TestScanClean(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		data := Encode(toyHeader, toyPayloads(9), sealed)
		s, got := scanToy(data, sealed)
		if len(s.Damage) != 0 || s.Torn || s.ValidLen != s.Size || s.Manifest != sealed || len(got) != 9 {
			t.Fatalf("sealed=%v: clean file scanned as %+v (%d records)", sealed, s, len(got))
		}
		checkPrefix(t, "clean", got, s)
	}
	if s, _ := scanToy(nil, false); len(s.Damage) != 0 || s.Torn || s.ValidLen != 0 {
		t.Fatalf("empty file scanned as %+v", s)
	}
	// A sealed image is damaged as an append-only log and vice versa.
	if s, _ := scanToy(Encode(toyHeader, toyPayloads(2), true), false); len(s.Damage) == 0 {
		t.Fatal("manifest accepted inside an append-only log")
	}
	if s, _ := scanToy(Encode(toyHeader, toyPayloads(2), false), true); len(s.Damage) == 0 || !s.Torn {
		t.Fatalf("sealed file without manifest scanned as %+v", s)
	}
}

// TestScanTruncationEveryOffset: a log cut at any byte scans without losing
// or inventing a record; the damage is always classified torn (no verifiable
// frame can follow a cut), and the verified prefix re-scans clean.
func TestScanTruncationEveryOffset(t *testing.T) {
	data := Encode(toyHeader, toyPayloads(12), false)
	prev := -1
	for cut := 0; cut <= len(data); cut++ {
		ctx := fmt.Sprintf("cut=%d", cut)
		s, got := scanToy(data[:cut], false)
		checkPrefix(t, ctx, got, s)
		if s.ValidLen > int64(cut) || s.Size != int64(cut) {
			t.Fatalf("%s: ValidLen=%d Size=%d", ctx, s.ValidLen, s.Size)
		}
		if (len(s.Damage) > 0) != (s.ValidLen < s.Size) || s.Torn != (len(s.Damage) > 0) {
			t.Fatalf("%s: damage=%d torn=%v ValidLen=%d/%d: a cut must scan clean or torn", ctx, len(s.Damage), s.Torn, s.ValidLen, s.Size)
		}
		if len(got) < prev {
			t.Fatalf("%s: recovered %d records, a shorter cut recovered %d", ctx, len(got), prev)
		}
		prev = len(got)
		if again, _ := scanToy(data[:s.ValidLen], false); len(again.Damage) != 0 || again.Frames != s.Frames {
			t.Fatalf("%s: verified prefix re-scans as %+v", ctx, again)
		}
	}
	if prev != 12 {
		t.Fatalf("uncut log recovered %d records, want 12", prev)
	}
}

// TestScanBitFlips: every single-bit flip is detected — as damage or as a
// shorter verified prefix — and never changes an accepted payload. A flip
// with intact frames after it must classify as corruption, not torn.
func TestScanBitFlips(t *testing.T) {
	rng := des.NewRNG(1).Stream("wal/bit-flip")
	for _, sealed := range []bool{false, true} {
		data := Encode(toyHeader, toyPayloads(12), sealed)
		lines := splitLines(data)
		for i := 0; i < 400; i++ {
			off := rng.Intn(len(data))
			mut := append([]byte(nil), data...)
			mut[off] ^= byte(1) << uint(rng.Intn(8))
			ctx := fmt.Sprintf("sealed=%v flip@%d", sealed, off)
			s, got := scanToy(mut, sealed)
			checkPrefix(t, ctx, got, s)
			if len(s.Damage) == 0 {
				t.Fatalf("%s: flip went undetected", ctx)
			}
			if s.ValidLen > int64(off) {
				t.Fatalf("%s: verified prefix (%d bytes) extends past the flipped byte", ctx, s.ValidLen)
			}
			// In an unsealed log, a flip before the last frame line leaves an
			// intact frame behind it (unless it fused the two by eating the
			// newline between them).
			if !sealed && int64(off) < lines[len(lines)-1].off && data[off] != '\n' && s.Torn {
				t.Fatalf("%s: mid-log damage classified as a torn tail", ctx)
			}
		}
	}
}

// TestScanHeaderDamage: a file torn while its header was being written is
// torn; any other file without a verifiable header is corrupt, whether or
// not frames follow.
func TestScanHeaderDamage(t *testing.T) {
	full := Encode(toyHeader, toyPayloads(3), false)
	for cut := 1; cut <= len(toyHeader); cut++ {
		if s, _ := scanToy(full[:cut], false); !s.Torn || s.ValidLen != 0 {
			t.Fatalf("header cut at %d: %+v, want torn with nothing valid", cut, s)
		}
	}
	flipped := append([]byte(nil), full...)
	flipped[3] ^= 0x01
	for name, data := range map[string][]byte{
		"flipped header over frames": flipped,
		"flipped header alone":       flipped[:len(toyHeader)+1],
		"foreign file":               []byte("{\"seq\":1}\n{\"seq\":2}\n"),
		"frames without header":      full[len(toyHeader)+1:],
	} {
		s, got := scanToy(data, false)
		if len(s.Damage) == 0 || s.Torn || s.ValidLen != 0 || len(got) != 0 {
			t.Fatalf("%s: %+v (%d records), want corrupt with nothing valid", name, s, len(got))
		}
		var raw []byte
		for _, d := range s.Damage {
			raw = append(raw, d.Raw...)
		}
		if !bytes.Equal(raw, data) {
			t.Fatalf("%s: damage list carries %d raw bytes, want the whole file (%d)", name, len(raw), len(data))
		}
	}
}

func readToy(t *testing.T, path string) (*Scan, [][]byte) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return scanToy(data, false)
}

// TestLogRollbackAndWedge drives failed appends through vfs.Faulty: a torn
// write and a failed requested fsync both leave exactly the committed
// prefix on disk and the handle usable; a rollback that cannot truncate
// wedges the log, and the committed prefix is still what a scan finds.
func TestLogRollbackAndWedge(t *testing.T) {
	path := filepath.Join(t.TempDir(), "toy.log")
	faulty := vfs.NewFaulty(vfs.OS{}, vfs.FaultProfile{Seed: 3, SyncFailTransient: true})
	l, err := Create(faulty, path, toyHeader, toyPayload(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(true, toyPayload(1)); err != nil {
		t.Fatal(err)
	}

	faulty.TearWrites(1)
	if err := l.Append(false, toyPayload(2)); !errors.Is(err, vfs.ErrTornWrite) {
		t.Fatalf("torn append error = %v, want ErrTornWrite", err)
	}
	faulty.FailSyncs(1)
	if err := l.Append(true, toyPayload(2)); !errors.Is(err, vfs.ErrSyncFailed) {
		t.Fatalf("append with failed fsync error = %v, want ErrSyncFailed", err)
	}
	if s, got := readToy(t, path); len(s.Damage) != 0 || len(got) != 2 {
		t.Fatalf("after two rolled-back appends the file scans as %+v (%d records), want 2 clean", s, len(got))
	}
	// The retry of the same record lands once, after the committed prefix.
	if err := l.Append(true, toyPayload(2)); err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if err := l.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s, got := readToy(t, path)
	if len(s.Damage) != 0 || len(got) != 3 {
		t.Fatalf("after the retry the file scans as %+v (%d records), want 3 clean", s, len(got))
	}
	checkPrefix(t, "retry", got, s)

	// A multi-frame append is one rollback unit. A failed fsync has all three
	// frames on disk, whole, before the rollback; a torn write anything from
	// nothing to two frames and a piece. Either way the file is cut back to
	// exactly the committed bytes — no whole frame of the failed group stays
	// behind to collide with the retry.
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	group := [][]byte{toyPayload(3), toyPayload(4), toyPayload(5)}
	for i := 0; i < 12; i++ {
		want := vfs.ErrSyncFailed
		if i%2 == 0 {
			faulty.TearWrites(1)
			want = vfs.ErrTornWrite
		} else {
			faulty.FailSyncs(1)
		}
		if err := l.Append(true, group...); !errors.Is(err, want) {
			t.Fatalf("3-frame append %d error = %v, want %v", i, err, want)
		}
		if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, committed) {
			t.Fatalf("3-frame append %d left %d bytes on disk, want the %d committed ones (err %v)", i, len(after), len(committed), err)
		}
	}
	if faulty.Stats().TornWrites < 7 || faulty.Stats().SyncFails < 7 {
		t.Fatalf("fault stats %+v: the group appends were not faulted", faulty.Stats())
	}
	// The retry lands all three, once, in order.
	if err := l.Append(true, group...); err != nil {
		t.Fatalf("3-frame append after rollbacks: %v", err)
	}
	s, got = readToy(t, path)
	if len(s.Damage) != 0 || len(got) != 6 {
		t.Fatalf("after the group retry the file scans as %+v (%d records), want 6 clean", s, len(got))
	}
	checkPrefix(t, "group retry", got, s)

	// Wedge: the write hits a crash point, so the rollback's truncate fails too.
	faulty.CrashAfterWrites(0)
	if err := l.Append(false, toyPayload(6)); err == nil {
		t.Fatal("append through a crashed filesystem succeeded")
	}
	if err := l.Append(false, toyPayload(6)); !errors.Is(err, ErrWedged) {
		t.Fatalf("append on a wedged log = %v, want ErrWedged", err)
	}
	if err := l.Checkpoint(); !errors.Is(err, ErrWedged) {
		t.Fatalf("checkpoint on a wedged log = %v, want ErrWedged", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	s, got = readToy(t, path)
	if len(got) != 6 || (len(s.Damage) > 0 && !s.Torn) {
		t.Fatalf("wedged log scans as %+v (%d records), want the 6 committed records and at most a torn tail", s, len(got))
	}
	// The next open salvages and continues.
	if err := os.Truncate(path, s.ValidLen); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenAppend(vfs.OS{}, path, s.ValidLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append(true, toyPayload(6)); err != nil {
		t.Fatal(err)
	}
	l2.Close()
	if s, got := readToy(t, path); len(s.Damage) != 0 || len(got) != 7 {
		t.Fatalf("reopened log scans as %+v (%d records), want 7 clean", s, len(got))
	}
}

// TestLogAppendReusesFrameBuffer: the handle frames every append into the one
// buffer it keeps, so a steady stream of appends — single records or groups —
// allocates no frame of its own.
func TestLogAppendReusesFrameBuffer(t *testing.T) {
	l, err := Create(vfs.OS{}, filepath.Join(t.TempDir(), "toy.log"), toyHeader)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(false, toyPayloads(4)...); err != nil {
		t.Fatal(err)
	}
	buf := &l.buf[0]
	for i := 4; i < 20; i++ {
		if err := l.Append(false, toyPayloads(i%4)...); err != nil {
			t.Fatal(err)
		}
		if len(l.buf) > 0 && &l.buf[0] != buf {
			t.Fatalf("append %d framed into a fresh buffer", i)
		}
	}
}

// FuzzScan: no input makes the scanner panic or report a verified prefix
// outside the data, and the verified prefix always re-scans clean.
func FuzzScan(f *testing.F) {
	clean := Encode(toyHeader, toyPayloads(4), false)
	f.Add(clean, false)
	f.Add(Encode(toyHeader, toyPayloads(4), true), true)
	f.Add(clean[:len(clean)/2], false)
	f.Add([]byte(toyHeader), false)
	f.Add([]byte("=00000002 00000000 {}\n!00000000 00000000\n"), true)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, data []byte, sealed bool) {
		accept := func([]byte) string { return "" }
		s := ScanBytes(data, toyHeader, sealed, accept)
		if s.ValidLen < 0 || s.ValidLen > int64(len(data)) || s.Size != int64(len(data)) {
			t.Fatalf("ValidLen=%d Size=%d for %d bytes", s.ValidLen, s.Size, len(data))
		}
		if s.Torn && len(s.Damage) == 0 {
			t.Fatal("torn without damage")
		}
		if again := ScanBytes(data[:s.ValidLen], toyHeader, false, accept); !sealed && (len(again.Damage) != 0 || again.Frames != s.Frames) {
			t.Fatalf("verified prefix re-scans as %+v, first scan %+v", again, s)
		}
	})
}

// TestReplace: a replace that fails at the file's fsync or at a torn write
// leaves the old content and no temp file; one that succeeds leaves the new
// content and no temp file.
func TestReplace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "toy.snap")
	faulty := vfs.NewFaulty(vfs.OS{}, vfs.FaultProfile{Seed: 3, SyncFailTransient: true})
	check := func(want string) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Fatalf("content %q (%v), want %q", got, err, want)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("temp file left behind: %v", err)
		}
	}
	if err := Replace(faulty, path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	check("old")
	faulty.FailSyncs(1)
	if err := Replace(faulty, path, []byte("new")); !errors.Is(err, vfs.ErrSyncFailed) {
		t.Fatalf("failed fsync: error %v, want ErrSyncFailed", err)
	}
	check("old")
	faulty.TearWrites(1)
	if err := Replace(faulty, path, []byte("new")); !errors.Is(err, vfs.ErrTornWrite) {
		t.Fatalf("torn write: error %v, want ErrTornWrite", err)
	}
	check("old")
	if err := Replace(faulty, path, []byte("new")); err != nil {
		t.Fatal(err)
	}
	check("new")
}
