package cluster

import (
	"context"
	"sync"
	"time"
)

// ListVersion is the primary's side of session discovery: a version of the
// set of replicable sessions that moves whenever the set changes, and a
// wait for the next move. A follower names the version it holds in its
// list request (api.QueryListVersion) and the primary answers when the
// version moves or after the follower's poll period (api.QueryListWait),
// so a session created on the primary reaches its followers at once while
// an idle follower sends about one request per poll period.
type ListVersion struct {
	mu sync.Mutex
	v  uint64
	ch chan struct{} // closed and replaced by Bump
}

// NewListVersion returns a version seeded from the clock, so a restarted
// primary does not hand out a version its followers still hold from its
// previous life. The version is never zero: zero means "none" on the wire.
func NewListVersion() *ListVersion {
	return &ListVersion{v: uint64(time.Now().UnixNano()) | 1, ch: make(chan struct{})}
}

// Bump moves the version and wakes every waiter. Call it after the session
// registry changed, so a waiter woken by it reads the new set.
func (lv *ListVersion) Bump() {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	lv.v++
	close(lv.ch)
	lv.ch = make(chan struct{})
}

// Load returns the current version.
func (lv *ListVersion) Load() uint64 {
	lv.mu.Lock()
	defer lv.mu.Unlock()
	return lv.v
}

// Wait blocks while the version equals held, for at most limit, and until
// ctx ends or done closes (the server's drain). It returns at once when
// held is already stale.
func (lv *ListVersion) Wait(ctx context.Context, held uint64, limit time.Duration, done <-chan struct{}) {
	lv.mu.Lock()
	v, ch := lv.v, lv.ch
	lv.mu.Unlock()
	if v != held || limit <= 0 {
		return
	}
	t := time.NewTimer(limit)
	defer t.Stop()
	select {
	case <-ch:
	case <-t.C:
	case <-ctx.Done():
	case <-done:
	}
}
