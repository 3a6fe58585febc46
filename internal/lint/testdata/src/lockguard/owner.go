package lockguard

// part has no lock of its own: it lives under its owner's, the way a
// hosted view lives under its System's.
type part struct {
	owner *box
	next  *part
}

// bumpLocked declares that the caller holds the owner's mutexes.
func (p *part) bumpLocked() {
	o := p.owner
	o.n++
	p.owner.n++
}

// The seed is one hop deep: a neighbour's owner is someone else's lock.
func (p *part) neighbourLocked() int {
	return p.next.owner.n // want `read of "n" requires mu held`
}

func (p *part) badBump() {
	p.owner.n++ // want `write to "n" requires mu held for writing`
}

func (p *part) goodBump() {
	p.owner.mu.Lock()
	defer p.owner.mu.Unlock()
	p.bumpLocked()
}
