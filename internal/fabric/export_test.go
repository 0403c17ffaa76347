package fabric

// Dispatcher and journal state only the tests read.

// Generation is the dispatcher's fencing generation: 1 for a fresh or
// journal-less campaign, +1 per journaled restart.
func (d *Dispatcher) Generation() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.generation
}

// Decisions returns a copy of the in-memory decision log.
func (d *Dispatcher) Decisions() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]string, len(d.decisions))
	copy(out, d.decisions)
	return out
}

// Generation is the incarnation this journal was opened under.
func (j *CampaignJournal) Generation() int64 { return j.gen }
