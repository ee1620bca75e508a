package tsdb

// BatchWriter accepts point batches. *DB implements it by committing
// directly to the store; *Staged implements it by accumulating the
// points for a later commit. The probing modules write through this
// interface so the sharded campaign scheduler can defer each partition's
// writes to the tick barrier.
type BatchWriter interface {
	WriteBatch(points []BatchPoint)
}

var (
	_ BatchWriter = (*DB)(nil)
	_ BatchWriter = (*Staged)(nil)
)

// Staged accumulates write batches in memory until Commit ships them to
// a DB in one WriteBatch. It is NOT safe for concurrent use: each
// scheduler partition owns exactly one Staged, written only by that
// partition's events and committed at the barrier, when no event is in
// flight.
type Staged struct {
	points []BatchPoint
}

// NewStaged returns an empty staging buffer.
func NewStaged() *Staged { return &Staged{} }

// WriteBatch stages the points.
func (st *Staged) WriteBatch(points []BatchPoint) {
	st.points = append(st.points, points...)
}

// Len returns the number of staged points.
func (st *Staged) Len() int { return len(st.points) }

// Commit ships every staged point to db in one WriteBatch and resets the
// buffer (retaining its capacity for the next tick). Because it flows
// through WriteBatch, each committed point also marks its window dirty
// for the next incremental SnapshotDir — staged commits
// need no extra persistence bookkeeping.
func (st *Staged) Commit(db *DB) {
	if len(st.points) == 0 {
		return
	}
	db.WriteBatch(st.points)
	st.points = st.points[:0]
}
