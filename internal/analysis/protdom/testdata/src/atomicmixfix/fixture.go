// Fixture for the atomicmix promote autofix: `tmvet -fix` rewrites every
// plain site of a mixed location to the matching sync/atomic call — reads
// become Load, `x = v` stores become Store, `x++`/`x--` become Add.
package fixture

import "sync/atomic"

type counter struct {
	n uint64
}

var c = &counter{}

func Inc() {
	atomic.AddUint64(&c.n, 1)
}

func Bump() {
	c.n++
}

func Dec() {
	c.n--
}

func Drain() uint64 {
	v := c.n
	c.n = 0
	return v
}
