package opt

// SetArenaPoison switches poison-on-reset for every arena checked out from
// now on, so tests outside the package (the serve handler under poison) can
// prove no plan pointer outlives Result.Release.
func SetArenaPoison(on bool) { arenaPoison = on }

// key is the mask's canonical table-set key; the enumeration reads it off
// the set, parallel_test.go pins that doing so stays allocation-free.
func (mc *maskCache) key(mask uint32) string { return mc.set(mask).Key() }
