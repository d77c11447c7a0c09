// Cross-pass suppression fixture: one line trips both txescape and txpure
// at the same position. The allow directive names txescape only, so the
// co-located txpure finding must survive — suppression is per-rule, and
// the runner's (pos, rule) dedup must not fold diagnostics from different
// analyzers.
package fixture

import (
	"gotle/internal/memseg"
	"gotle/internal/tm"
)

var (
	eng       *tm.Engine
	th        *tm.Thread
	published memseg.Addr
)

func Publish() {
	eng.Atomic(th, func(tx tm.Tx) error {
		//gotle:allow txescape the consumer reads it only after the harness joins
		published = tx.Alloc(2) // want txpure:"package-level variable published"
		return nil
	})
}
