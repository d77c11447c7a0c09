// Cross-pass suppression fixture: one statement trips both txsafe and
// txpure. The allow directive names txpure only, so the co-located txsafe
// finding must survive — suppression is per-rule, not per-line. An allow
// naming a rule no analyzer registers suppresses nothing and is reported
// where it stands.
package fixture

import (
	"gotle/internal/memseg"
	"gotle/internal/tle"
	"gotle/internal/tm"
)

var (
	th        *tm.Thread
	muA       *tle.Mutex
	handoff   chan memseg.Addr
	published memseg.Addr
)

func noop(tx tm.Tx) error { return nil }

func Receive() {
	muA.Do(th, func(tx tm.Tx) error {
		//gotle:allow txpure the harness publishes the handed-off address deliberately
		published = <-handoff // want txsafe:"channel receive inside an atomic block"
		return nil
	})
}

func Stale() {
	//gotle:allow nosuchrule names no registered analyzer // want allow:"names \"nosuchrule\", which is not a tmvet rule"
	muA.Do(th, noop)
}
