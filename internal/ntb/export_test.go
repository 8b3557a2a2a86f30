package ntb

// DirtyExtent reports the dirty extent of p's inbound window r, for the
// tests outside the package that drive ports through whole worlds.
func DirtyExtent(p *Port, r Region) (lo, hi int) {
	d := p.winDirty[r]
	return int(d.lo), int(d.hi)
}
