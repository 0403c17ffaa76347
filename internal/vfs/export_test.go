package vfs

// Revive clears the crashed state, modelling a process restart on the same
// storage. Broken-sync state persists: the files' lost writes stay lost.
func (f *Faulty) Revive() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = false
}
