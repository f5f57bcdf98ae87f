package core

import (
	"github.com/insane-mw/insane/internal/ringbuf"
)

// txLane is the per-(session,technology) token queue between Emit and the
// technology's polling threads (§5.3): one Vyukov MPMC ring, so any
// number of sources of the session may push while any number of pollers
// serving the technology drain it. The lane is created with the
// session's first source on the technology and lives until the session
// detaches.
//
//insane:shared
type txLane struct {
	ring *ringbuf.MPMC[txToken] //insane:guardedby immutable after=newTxLane
}

// newTxLane builds an empty lane.
func newTxLane() (*txLane, error) {
	r, err := ringbuf.NewMPMC[txToken](txRingDepth)
	if err != nil {
		return nil, err
	}
	return &txLane{ring: r}, nil
}

// push appends one token, reporting whether there was room. False means
// backpressure: the caller keeps buffer ownership and may retry.
//
// On success the token — and the tenant TX charge and slot reference it
// carries — belongs to the poller that drains the lane.
//
//insane:hotpath
//insane:transfer resource=tenant-tx on=true
//insane:transfer resource=mem-slot on=true
func (l *txLane) push(tok txToken) bool { return l.ring.TryPush(tok) }

// pop drains one buffered token. It is the teardown-side counterpart of
// push: the caller takes over the tenant TX charge and slot reference
// the token carries. The runtime calls it only after dropping the
// session from the poll list and waiting out two poller passes, so no
// poller is still dispatching the session's tokens.
//
//insane:acquire resource=tenant-tx on=true
//insane:acquire resource=mem-slot on=true
func (l *txLane) pop() (txToken, bool) { return l.ring.TryPop() }

// queued returns the tokens buffered in the lane. Snapshot semantics,
// like ringbuf Len.
func (l *txLane) queued() int { return l.ring.Len() }
