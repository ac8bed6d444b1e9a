package opt

// SetArenaPoison switches poison-on-reset for every arena checked out from
// now on, so tests outside the package (the serve handler under poison) can
// prove no plan pointer outlives Result.Release.
func SetArenaPoison(on bool) { arenaPoison = on }
