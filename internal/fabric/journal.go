package fabric

// The campaign journal makes the dispatcher itself crash-recoverable: PR 6
// taught the fabric to survive any worker dying, but killing the dispatcher
// lost every completed cell. The journal records, through the internal/vfs
// seam, everything a restarted dispatcher needs to resume the campaign
// byte-identically:
//
//	#fabric-campaign v1 crc32c                ← header line
//	=LLLLLLLL CCCCCCCC {"kind":"campaign",…}  ← campaign identity: cell count
//	                                             and the SHA-256 of the spec,
//	                                             so a journal can never be
//	                                             resumed against a different
//	                                             grid
//	=LLLLLLLL CCCCCCCC {"kind":"gen","gen":1} ← one per dispatcher
//	                                             incarnation; the highest is
//	                                             the fencing generation
//	=LLLLLLLL CCCCCCCC {"kind":"cell",…}      ← one per accepted completion:
//	                                             cell index + row bytes
//
// Framing, verification, and the append discipline are internal/wal's, so
// its failure taxonomy applies: a torn tail — the expected artifact of a
// crash mid-append — is physically truncated and the prefix salvaged; a file
// torn before its first synced write committed anything reinitializes;
// corruption (damage with verifiable records after it, a damaged header over
// a non-empty log) refuses to resume. Cells are pure, so the operator can
// always delete the journal and recompute from scratch — silently replaying
// doubtful state, or forgetting a fence, is the only unforgivable outcome.
//
// Durability policy: the header, campaign, and generation records are
// fsynced at open (losing a generation bump would un-fence stale workers);
// cell records are appended unsynced, because a lost cell record costs only
// a recompute of a pure function, never a wrong byte. Checkpoint forces the
// tail down — the dispatcher calls it on drain.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/vfs"
	"repro/internal/wal"
)

const campaignHeader = "#fabric-campaign v1 crc32c"

// ErrCampaignMismatch is returned when a journal belongs to a different
// campaign than the one being started (spec hash or cell count disagree).
var ErrCampaignMismatch = errors.New("fabric: journal belongs to a different campaign")

// ErrJournalCorrupt marks a journal that refuses to resume: damage that is
// not a torn tail (bit rot, concurrent writers), or verified records that
// contradict each other.
var ErrJournalCorrupt = errors.New("fabric: campaign journal corrupt")

// journalRecord is one framed payload. Kind selects which fields are live.
type journalRecord struct {
	Kind string `json:"kind"` // campaign | gen | cell | poison | quarantine | unquarantine
	// campaign fields.
	Cells   int    `json:"cells,omitempty"`
	SpecSHA string `json:"spec_sha,omitempty"`
	// gen field: the dispatcher incarnation this record opens.
	Gen int64 `json:"gen,omitempty"`
	// cell fields: one accepted completion. poison shares Cell and adds Err —
	// the cell-function error that exhausted the retry budget.
	Cell int    `json:"cell"`
	Row  []byte `json:"row,omitempty"`
	Err  string `json:"err,omitempty"`
	// quarantine/unquarantine fields: the worker fenced off the campaign (or
	// readmitted by cooldown), why, and at what strike score.
	Worker  string `json:"worker,omitempty"`
	Reason  string `json:"reason,omitempty"`
	Strikes int    `json:"strikes,omitempty"`
}

// Recovery is what replaying a campaign journal yielded.
type Recovery struct {
	// Resumed reports that the journal pre-existed: this dispatcher is a
	// restart, not a fresh campaign.
	Resumed bool
	// Gen is the new dispatcher generation (highest journaled + 1; 1 for a
	// fresh campaign). It is already journaled when Open returns.
	Gen int64
	// Rows maps recovered cell index → row bytes.
	Rows map[int][]byte
	// Poisoned maps terminal POISONED cell index → the cell-function error
	// that retired it; Quarantined maps fenced worker ID → the offence. Both
	// survive restarts so a hostile worker cannot launder its record (nor a
	// bad cell its budget) by crashing the dispatcher.
	Poisoned    map[int]string
	Quarantined map[string]string
	// SalvagedBytes is how many torn-tail bytes were truncated away.
	SalvagedBytes int64
}

// CampaignJournal is the dispatcher's durable campaign state: a wal.Log
// written through a vfs.FS, so torn-write, fsync-fail, and crash-point
// injection apply to it verbatim.
type CampaignJournal struct {
	log *wal.Log
	gen int64
}

// specSHA is the campaign identity: the spec bytes' SHA-256, hex.
func specSHA(spec []byte) string {
	sum := sha256.Sum256(spec)
	return hex.EncodeToString(sum[:])
}

// encodeRecord renders one record's frame payload.
func encodeRecord(rec journalRecord) []byte {
	payload, err := json.Marshal(rec)
	if err != nil {
		// journalRecord marshals unconditionally; reaching here is a
		// programming error, not an I/O condition.
		panic(fmt.Sprintf("fabric: encode journal record: %v", err))
	}
	return payload
}

// OpenCampaignJournal opens (resuming) or creates (fresh) the campaign
// journal at path for a campaign of cells cells described by spec. On resume
// it verifies the campaign identity, salvages a torn tail, bumps and
// journals the generation, and returns the recovered rows.
func OpenCampaignJournal(fsys vfs.FS, path string, spec []byte, cells int) (*CampaignJournal, Recovery, error) {
	if fsys == nil {
		fsys = vfs.OS{}
	}
	data, err := fsys.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, Recovery{}, fmt.Errorf("fabric: read journal: %w", err)
	}
	rec, validLen, err := parseCampaignJournal(data, spec, cells)
	if err != nil {
		return nil, Recovery{}, err
	}
	var log *wal.Log
	if !rec.Resumed {
		// Fresh campaign (missing, empty, or torn-before-first-commit file):
		// header + campaign + generation 1 in one write to a temp file,
		// synced and renamed into place before any lease is granted, so the
		// path never holds a half-written campaign another dispatcher could
		// read as fresh and truncate.
		rec.Gen = 1
		buf := wal.Encode(campaignHeader, [][]byte{
			encodeRecord(journalRecord{Kind: "campaign", Cells: cells, SpecSHA: specSHA(spec)}),
			encodeRecord(journalRecord{Kind: "gen", Gen: 1}),
		}, false)
		tmp := path + ".tmp"
		var f vfs.File
		if f, err = fsys.Create(tmp); err == nil {
			if _, err = f.Write(buf); err == nil {
				err = f.Sync()
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err == nil {
			err = fsys.Rename(tmp, path)
		}
		if err == nil {
			fsys.SyncDir(filepath.Dir(path)) // best effort: the file itself is synced
			log, err = wal.OpenAppend(fsys, path, int64(len(buf)))
		}
		if err != nil {
			fsys.Remove(tmp)
			return nil, Recovery{}, fmt.Errorf("fabric: init journal: %w", err)
		}
	} else {
		// Salvage the torn tail, then journal the generation bump. The bump
		// must be durable before any grant: a worker from the old generation
		// must never find a dispatcher that forgot it restarted.
		if rec.SalvagedBytes > 0 {
			if err := fsys.Truncate(path, validLen); err != nil {
				return nil, Recovery{}, fmt.Errorf("fabric: salvage journal tail: %w", err)
			}
		}
		rec.Gen++
		if log, err = wal.OpenAppend(fsys, path, validLen); err == nil {
			if err = log.Append(true, encodeRecord(journalRecord{Kind: "gen", Gen: rec.Gen})); err != nil {
				log.Close()
			}
		}
		if err != nil {
			return nil, Recovery{}, fmt.Errorf("fabric: journal generation: %w", err)
		}
	}
	return &CampaignJournal{log: log, gen: rec.Gen}, rec, nil
}

// appendRecord appends one record, optionally fsyncing it. Containment
// records (poison, quarantine, unquarantine) are synced — they are rare and
// load-bearing across restarts, where losing one would un-fence a hostile
// worker or reopen a poisoned cell's budget. A failed append is rolled back
// (or wedges the journal) by the wal: the committed prefix, plus at most one
// salvageable torn tail, is what survives.
func (j *CampaignJournal) appendRecord(rec journalRecord, sync bool) error {
	if err := j.log.Append(sync, encodeRecord(rec)); err != nil {
		what := rec.Kind
		if rec.Kind == "cell" {
			what = fmt.Sprintf("cell %d", rec.Cell)
		}
		return fmt.Errorf("fabric: journal %s: %w", what, err)
	}
	return nil
}

// Checkpoint forces every appended record to stable storage — the drain
// path's guarantee that a clean shutdown loses nothing.
func (j *CampaignJournal) Checkpoint() error {
	if err := j.log.Checkpoint(); err != nil {
		return fmt.Errorf("fabric: checkpoint journal: %w", err)
	}
	return nil
}

// Close releases the append handle.
func (j *CampaignJournal) Close() error { return j.log.Close() }

// journalLocked is the one place the dispatcher writes its journal, with or
// without one: a record is appended under the durability policy above (cell
// records unsynced, everything else fsynced), nil checkpoints the tail. A
// failed write degrades durability, never correctness — cells are pure, a
// restarted dispatcher recomputes what the journal lost — so the campaign
// keeps running and the error is counted and logged instead of fatal. The
// error already names what was being written; nothing is formatted unless
// there is one.
func (d *Dispatcher) journalLocked(rec *journalRecord) {
	if d.jr == nil {
		return
	}
	var err error
	if rec == nil {
		err = d.jr.Checkpoint()
	} else {
		err = d.jr.appendRecord(*rec, rec.Kind != "cell")
	}
	if err != nil {
		d.count(cJournalErrors)
		d.logLocked("journal-error %v", err)
	}
}

// parseCampaignJournal replays data. A missing or empty file, or one whose
// first synced write never committed a campaign and generation, parses as
// fresh; a verified prefix with a torn tail parses as a resume with
// SalvagedBytes set (validLen is where the salvage cuts); corruption or a
// campaign mismatch is an error.
func parseCampaignJournal(data, spec []byte, cells int) (Recovery, int64, error) {
	fresh := func() Recovery {
		return Recovery{Rows: make(map[int][]byte), Poisoned: make(map[int]string), Quarantined: make(map[string]string)}
	}
	p := fresh()
	var recs []journalRecord
	scan := wal.ScanBytes(data, campaignHeader, false, func(payload []byte) string {
		var rec journalRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Sprintf("payload parse error: %v", err)
		}
		recs = append(recs, rec)
		return ""
	})
	if len(scan.Damage) > 0 && !scan.Torn {
		d := scan.Damage[0]
		return p, 0, fmt.Errorf("%w: %s at line %d is not a torn tail (move the journal aside or start a fresh campaign)",
			ErrJournalCorrupt, d.Reason, d.Line)
	}

	sawCampaign := false
	for i, rec := range recs {
		lineNo := i + 2 // the verified prefix is contiguous after the header
		switch rec.Kind {
		case "campaign":
			if sawCampaign {
				return p, 0, fmt.Errorf("%w: duplicate campaign record at line %d", ErrJournalCorrupt, lineNo)
			}
			sawCampaign = true
			if rec.Cells != cells || rec.SpecSHA != specSHA(spec) {
				return p, 0, fmt.Errorf("%w: journal is for %d cells spec %.12s…, campaign has %d cells spec %.12s…",
					ErrCampaignMismatch, rec.Cells, rec.SpecSHA, cells, specSHA(spec))
			}
		case "gen":
			if rec.Gen <= p.Gen {
				return p, 0, fmt.Errorf("%w: generation regressed to %d after %d at line %d",
					ErrJournalCorrupt, rec.Gen, p.Gen, lineNo)
			}
			p.Gen = rec.Gen
		case "cell":
			if rec.Cell < 0 || rec.Cell >= cells {
				return p, 0, fmt.Errorf("%w: cell %d out of range at line %d", ErrJournalCorrupt, rec.Cell, lineNo)
			}
			if _, dup := p.Rows[rec.Cell]; dup {
				return p, 0, fmt.Errorf("%w: duplicate record for cell %d at line %d", ErrJournalCorrupt, rec.Cell, lineNo)
			}
			if _, poisoned := p.Poisoned[rec.Cell]; poisoned {
				return p, 0, fmt.Errorf("%w: cell %d completed after being poisoned at line %d", ErrJournalCorrupt, rec.Cell, lineNo)
			}
			p.Rows[rec.Cell] = rec.Row
		case "poison":
			if rec.Cell < 0 || rec.Cell >= cells {
				return p, 0, fmt.Errorf("%w: poisoned cell %d out of range at line %d", ErrJournalCorrupt, rec.Cell, lineNo)
			}
			if _, done := p.Rows[rec.Cell]; done {
				return p, 0, fmt.Errorf("%w: cell %d poisoned after completing at line %d", ErrJournalCorrupt, rec.Cell, lineNo)
			}
			if _, dup := p.Poisoned[rec.Cell]; dup {
				return p, 0, fmt.Errorf("%w: duplicate poison record for cell %d at line %d", ErrJournalCorrupt, rec.Cell, lineNo)
			}
			p.Poisoned[rec.Cell] = rec.Err
		case "quarantine":
			if rec.Worker == "" {
				return p, 0, fmt.Errorf("%w: quarantine record without a worker at line %d", ErrJournalCorrupt, lineNo)
			}
			p.Quarantined[rec.Worker] = rec.Reason
		case "unquarantine":
			if rec.Worker == "" {
				return p, 0, fmt.Errorf("%w: unquarantine record without a worker at line %d", ErrJournalCorrupt, lineNo)
			}
			delete(p.Quarantined, rec.Worker)
		default:
			return p, 0, fmt.Errorf("%w: unknown record kind %q at line %d", ErrJournalCorrupt, rec.Kind, lineNo)
		}
		if !sawCampaign {
			return p, 0, fmt.Errorf("%w: first record is %q, want campaign", ErrJournalCorrupt, rec.Kind)
		}
	}
	if !sawCampaign || p.Gen == 0 {
		// The campaign/gen records did not commit (a crash inside the very
		// first write): nothing to honour, reinitialize.
		return fresh(), 0, nil
	}
	p.Resumed = true
	p.SalvagedBytes = scan.Size - scan.ValidLen
	return p, scan.ValidLen, nil
}
