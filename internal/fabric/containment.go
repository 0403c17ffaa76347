package fabric

// Integrity & containment (DESIGN §14). The lease machinery in dispatcher.go
// assumes workers fail by stopping; this file handles workers that fail by
// lying. Three mechanisms compose:
//
//   - Checksum rejection (complete): a completion whose CRC32C does not match
//     its payload is thrown away before dedup — corruption between
//     computation and acceptance never wins first-result-wins — and the
//     sender takes an instant quarantine-weight strike.
//   - Worker strikes → quarantine: every misbehaviour charges strikes
//     (integrity violations instantly, lease expiries / disconnects / cell
//     failures one each; accepted completions decay one), and a worker at
//     the threshold is fenced off the campaign: no new leases, in-flight
//     leases removed and requeued, the verdict journaled so a restarted
//     dispatcher keeps the fence up. An optional cooldown readmits.
//   - Cell poisoning: a cell whose function fails on enough distinct workers
//     (or past an absolute retry cap) is the problem itself. It goes
//     terminal POISONED — journaled like DONE, skipped by the flush — and
//     the campaign completes around it, ending with a *PoisonedError that
//     names every such cell instead of dying at the first one.
//
// Sampled redundant verification guards against the failure checksums
// cannot see: a worker that computes the wrong
// bytes and checksums them correctly. A deterministic seed-derived sample of
// cells is executed twice on distinct workers and byte-compared; divergence
// quarantines the minority worker after a tie-breaking third execution.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"time"
)

// PoisonedCell names one cell retired as POISONED and why.
type PoisonedCell struct {
	Cell int    `json:"cell"`
	Err  string `json:"err"`
}

// PoisonedError ends a campaign that completed around poisoned cells: every
// healthy row was delivered in strict order, the listed cells were not. It
// is an error — the output is incomplete — but a contained one: hours of
// healthy work survive a single bad cell.
type PoisonedError struct {
	Cells []PoisonedCell `json:"cells"`
}

func (e *PoisonedError) Error() string {
	parts := make([]string, 0, len(e.Cells))
	for _, c := range e.Cells {
		parts = append(parts, fmt.Sprintf("%d (%s)", c.Cell, c.Err))
	}
	return fmt.Sprintf("fabric: campaign completed around %d poisoned cell(s): %s",
		len(e.Cells), strings.Join(parts, "; "))
}

// maxStrikes caps a worker's strike score so repeated offences cannot
// overflow it.
const maxStrikes = 1 << 20

// workerRec is the dispatcher's per-worker disciplinary record.
type workerRec struct {
	strikes       int
	quarantined   bool
	quarantinedAt time.Time
	reason        string
}

// workerLocked returns (creating if needed) the record for worker.
func (d *Dispatcher) workerLocked(worker string) *workerRec {
	w := d.workers[worker]
	if w == nil {
		w = &workerRec{}
		d.workers[worker] = w
	}
	return w
}

// strikeLocked charges weight strikes against worker for cause, quarantining
// it at the configured threshold. Instant-quarantine offences (integrity
// violations) pass the threshold itself as the weight.
func (d *Dispatcher) strikeLocked(worker, cause string, weight int) {
	if worker == "" {
		return
	}
	w := d.workerLocked(worker)
	if w.quarantined {
		return
	}
	w.strikes += weight
	if w.strikes > maxStrikes {
		w.strikes = maxStrikes
	}
	d.logLocked("strike worker=%s cause=%s weight=%d strikes=%d", worker, cause, weight, w.strikes)
	if w.strikes >= d.cfg.QuarantineAfter {
		d.quarantineLocked(worker, cause)
	}
}

// rewardLocked decays one strike on an accepted completion, so an honest
// worker that weathers a few flaky leases over a long campaign drifts back
// to a clean record instead of accumulating its way into quarantine.
func (d *Dispatcher) rewardLocked(worker string) {
	if w := d.workers[worker]; w != nil && !w.quarantined && w.strikes > 0 {
		w.strikes--
	}
}

// quarantineLocked fences worker off the whole campaign: no new leases will
// be granted, every in-flight lease is removed and its cell requeued (the
// worker's next heartbeat finds the lease gone and self-fences), and the
// verdict is journaled so a restarted dispatcher keeps the fence up.
func (d *Dispatcher) quarantineLocked(worker, cause string) {
	w := d.workerLocked(worker)
	if w.quarantined {
		return
	}
	w.quarantined = true
	w.quarantinedAt = d.now()
	w.reason = cause
	d.count(cQuarantinedWorkers)
	d.journalLocked(&journalRecord{Kind: "quarantine", Worker: worker, Reason: cause, Strikes: w.strikes})
	d.dropLeasesLocked(exitFence, func(_ int, l *leaseRec) bool { return l.worker == worker })
	d.logLocked("quarantine worker=%s cause=%s strikes=%d cooldown=%s",
		worker, cause, w.strikes, d.cfg.QuarantineCooldown)
	d.maybeFinishDrainLocked()
}

// quarantinedLocked reports whether worker is currently fenced off the
// campaign, releasing it first if the cooldown (when configured) elapsed.
func (d *Dispatcher) quarantinedLocked(worker string) bool {
	w := d.workers[worker]
	if w == nil || !w.quarantined {
		return false
	}
	if d.cfg.QuarantineCooldown > 0 && d.now().Sub(w.quarantinedAt) >= d.cfg.QuarantineCooldown {
		w.quarantined = false
		w.strikes = 0
		d.count(cQuarantineReleases)
		d.journalLocked(&journalRecord{Kind: "unquarantine", Worker: worker})
		d.logLocked("quarantine-release worker=%s after=%s", worker, d.cfg.QuarantineCooldown)
		return false
	}
	return true
}

// quarantinedWorkersLocked lists the currently fenced worker IDs, sorted.
func (d *Dispatcher) quarantinedWorkersLocked() []string {
	var out []string
	for id, w := range d.workers {
		if w.quarantined {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// failLeaseLocked handles a cell-function failure reported under a live
// lease: the lease dies, the failure is charged to both the worker (one
// strike) and the cell (one retry from its budget), and the cell either
// requeues behind an exponential backoff or — once it has failed on enough
// distinct workers, or past the absolute cap — goes terminal POISONED.
func (d *Dispatcher) failLeaseLocked(cell, li int, worker, errStr string) {
	c := &d.cells[cell]
	c.leases = slices.Delete(c.leases, li, li+1)
	c.failures++
	if c.failedWorkers == nil {
		c.failedWorkers = make(map[string]bool)
	}
	c.failedWorkers[worker] = true
	d.count(cFailed)
	d.logLocked("fail cell=%d worker=%s failures=%d distinct=%d err=%q",
		cell, worker, c.failures, len(c.failedWorkers), errStr)
	d.strikeLocked(worker, "cell-failure", 1)
	if len(c.failedWorkers) >= d.cfg.PoisonAfter || c.failures >= d.cfg.MaxCellRetries {
		d.poisonCellLocked(cell, errStr)
		return
	}
	// Not when the strike above quarantined the reporter: the fence already
	// requeued the cell it found bare, with no backoff.
	if d.requeueLocked(cell, exitFailure) {
		backoff := d.cfg.RetryBackoff
		for i := 1; i < c.failures && backoff < d.cfg.LeaseTTL; i++ {
			backoff *= 2
		}
		backoff = min(backoff, d.cfg.LeaseTTL)
		c.notBefore = d.now().Add(backoff)
		d.logLocked("retry cell=%d failures=%d backoff=%s", cell, c.failures, backoff)
	}
	d.maybeFinishDrainLocked()
}

// poisonCellLocked retires cell as terminal POISONED: journaled like a DONE
// cell, skipped by the flush, reported in the campaign's final error. The
// rest of the grid proceeds as if the cell never existed.
func (d *Dispatcher) poisonCellLocked(cell int, errStr string) {
	c := d.retireLocked(cell, statePoisoned, cPoisoned, &journalRecord{Kind: "poison", Cell: cell, Err: errStr})
	c.err = errStr
	d.logLocked("poison cell=%d failures=%d distinct=%d err=%q",
		cell, c.failures, len(c.failedWorkers), errStr)
	d.flushLocked()
}

// poisonedCellsLocked lists the POISONED cells in index order.
func (d *Dispatcher) poisonedCellsLocked() []PoisonedCell {
	var out []PoisonedCell
	for idx := range d.cells {
		if d.cells[idx].state == statePoisoned {
			out = append(out, PoisonedCell{Cell: idx, Err: d.cells[idx].err})
		}
	}
	return out
}

// ---- sampled redundant verification ----

// verifyResult is one checksum-valid candidate execution of a sampled cell.
type verifyResult struct {
	worker string
	row    []byte
}

// verifyState holds a sampled cell's candidates until a quorum agrees.
type verifyState struct {
	results []verifyResult
}

// verifyContributor reports whether worker already contributed a candidate
// for this cell — grants and speculation exclude contributors, so every
// candidate comes from a distinct worker.
func (c *cellRec) verifyContributor(worker string) bool {
	if c.verify == nil {
		return false
	}
	for _, r := range c.verify.results {
		if r.worker == worker {
			return true
		}
	}
	return false
}

// verifySampled reports whether cell is in the redundant-verification
// sample: a pure function of (campaign identity, VerifySeed, cell), so the
// sample is deterministic per campaign and stable across restarts.
func (d *Dispatcher) verifySampled(cell int) bool {
	if d.cfg.VerifyFraction <= 0 {
		return false
	}
	if d.cfg.VerifyFraction >= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(d.specSHAHex))
	h.Write(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, d.cfg.VerifySeed), uint64(cell)))
	return float64(h.Sum64()%(1<<24))/float64(1<<24) < d.cfg.VerifyFraction
}

// verifyAcceptLocked records one checksum-valid candidate for a sampled cell
// and resolves the cell once enough distinct executions agree. First
// candidate: hold the row, requeue for a confirming execution elsewhere. Two
// agreeing: accept. Two diverging: one of them computed wrong bytes with a
// correct checksum — re-execute on a third worker, then majority wins and
// the odd worker out is quarantined. Three-way disagreement has no majority
// to trust, so the cell is poisoned rather than guessed at.
func (d *Dispatcher) verifyAcceptLocked(cell, li int, worker string, result []byte) {
	c := &d.cells[cell]
	lease := c.leases[li]
	c.leases = slices.Delete(c.leases, li, li+1)
	if c.verify == nil {
		c.verify = &verifyState{}
		d.count(cVerifySampled)
	}
	c.verify.results = append(c.verify.results, verifyResult{worker: worker, row: result})
	switch n := len(c.verify.results); n {
	case 1:
		d.observeLocked(lease)
		d.requeueLocked(cell, exitVerify)
		d.logLocked("verify-hold cell=%d worker=%s", cell, worker)
	case 2:
		first, second := c.verify.results[0], c.verify.results[1]
		if bytes.Equal(first.row, second.row) {
			d.count(cVerifyMatches)
			d.rewardLocked(first.worker)
			d.rewardLocked(second.worker)
			d.logLocked("verify-match cell=%d workers=%s,%s", cell, first.worker, second.worker)
			d.acceptCellLocked(cell, first.row)
		} else {
			d.count(cVerifyDivergence)
			d.logLocked("verify-diverge cell=%d workers=%s,%s (re-executing on a third)",
				cell, first.worker, second.worker)
			d.requeueLocked(cell, exitVerify)
		}
	default:
		first, second, third := c.verify.results[0], c.verify.results[1], c.verify.results[2]
		switch {
		case bytes.Equal(third.row, first.row):
			d.logLocked("verify-majority cell=%d agree=%s,%s odd=%s", cell, first.worker, third.worker, second.worker)
			d.quarantineLocked(second.worker, "verify-divergence")
			d.acceptCellLocked(cell, first.row)
		case bytes.Equal(third.row, second.row):
			d.logLocked("verify-majority cell=%d agree=%s,%s odd=%s", cell, second.worker, third.worker, first.worker)
			d.quarantineLocked(first.worker, "verify-divergence")
			d.acceptCellLocked(cell, second.row)
		default:
			d.strikeLocked(first.worker, "verify-divergence", 1)
			d.strikeLocked(second.worker, "verify-divergence", 1)
			d.strikeLocked(third.worker, "verify-divergence", 1)
			d.poisonCellLocked(cell, "redundant verification: three executions disagree")
		}
	}
}
