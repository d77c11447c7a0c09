// Fixture for the tmflow unit tests: reaching-definition facts, dead-code
// pruning, and lock identity. The tests locate declarations by name and
// NewMutex calls by their source text, so the code here can move freely as
// long as the names stay.
package fixture

import (
	"gotle/internal/tle"
	"gotle/internal/tm"
)

var (
	r  *tle.Runtime
	th *tm.Thread
)

// roundtripMu's initializer is the site the static half of the lock-key
// round trip resolves; the dynamic half (lockcheck's identity test)
// records the same "name@file:line" shape through tle.LockNamer.
var roundtripMu = r.NewMutex("roundtrip")

func noop(tx tm.Tx) error { return nil }

func useRoundtrip() { _ = roundtripMu.Do(th, noop) }

func useLocal() {
	mu := r.NewMutex("local")
	_ = mu.Do(th, noop)
}

func flowFacts(p int) int {
	early := p // use before any redefinition: the initial value reaches
	p = 5
	late := p // every path redefines p first: the initial value cannot reach
	panic("beyond here the body is dead")
	dead := early + late // statically unreachable
	return dead
}

func single() int {
	once := seed()
	return once
}

func twice(cond bool) int {
	n := 1
	if cond {
		n = 2
	}
	return n
}

func taken() int {
	esc := 3
	sink(&esc)
	return esc
}

func seed() int   { return 4 }
func sink(p *int) { _ = p }
