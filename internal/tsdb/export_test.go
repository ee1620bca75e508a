package tsdb

// SetFSHook installs h as the commit path's fault seam (fsHook,
// commit.go) for the external crash-point tests and returns a function
// that removes it again.
func SetFSHook(h func(op, path string) error) (restore func()) {
	fsHook = h
	return func() { fsHook = nil }
}
