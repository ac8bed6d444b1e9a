package obs

// SetProfAllocFn replaces the allocation counter p reads, for tests outside
// the package.
func SetProfAllocFn(p *Prof, fn func() int64) { p.allocFn = fn }
