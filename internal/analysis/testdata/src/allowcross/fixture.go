// Cross-pass suppression fixture: one call trips both lockorder and txsafe
// at the same position. The allow directive names lockorder only, so the
// co-located txsafe finding must survive — suppression is per-rule, and
// the runner's (pos, rule) dedup must not fold diagnostics from different
// analyzers. An allow naming a rule no analyzer registers suppresses
// nothing and is reported where it stands.
package fixture

import (
	"time"

	"gotle/internal/condvar"
	"gotle/internal/tle"
	"gotle/internal/tm"
)

var (
	th  *tm.Thread
	muA *tle.Mutex
	muB *tle.Mutex
	cv  *condvar.Cond
)

func noop(tx tm.Tx) error { return nil }

func Reenter() {
	muA.Do(th, func(tx tm.Tx) error {
		muB.Do(th, noop)
		//gotle:allow lockorder the harness re-enters muB deliberately
		muB.Await(th, cv, time.Second, noop) // want txsafe:"Mutex.Await inside an atomic block"
		return nil
	})
}

func Stale() {
	//gotle:allow nosuchrule names no registered analyzer // want allow:"names \"nosuchrule\", which is not a tmvet rule"
	muA.Do(th, noop)
}
