package lockcheck

import (
	"fmt"

	"gotle/internal/diagfmt"
)

// lockIdent is one mutex's identity as reported by the runtime.
type lockIdent struct {
	name string
	site string // file:line of the NewMutex call, "" when unknown
}

// LockCreated records mutex mid's name and creation site. The TLE runtime
// calls it from NewMutex when its Tracer also implements the optional
// tle.LockNamer interface; mid numbering matches the Acquire/Release
// events. The path is shortened with diagfmt.Rel, like every other
// diagnostic position.
func (c *Checker) LockCreated(mid int, name, file string, line int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.locks == nil {
		c.locks = make(map[int]lockIdent)
	}
	c.locks[mid] = lockIdent{name: name, site: fmt.Sprintf("%s:%d", diagfmt.Rel(file), line)}
}

// LockKey returns mid's canonical identity, "name@file:line" when the
// creation site was reported and the bare name (or the numeric id)
// otherwise, so a report names two locks of one name apart.
func (c *Checker) LockKey(mid int) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lockKeyLocked(mid)
}

func (c *Checker) lockKeyLocked(mid int) string {
	li, ok := c.locks[mid]
	switch {
	case !ok:
		return fmt.Sprintf("lock#%d", mid)
	case li.site == "":
		return li.name
	default:
		return li.name + "@" + li.site
	}
}

// LockKeys returns the identities of every mutex reported so far.
func (c *Checker) LockKeys() map[int]string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]string, len(c.locks))
	for mid := range c.locks {
		out[mid] = c.lockKeyLocked(mid)
	}
	return out
}
