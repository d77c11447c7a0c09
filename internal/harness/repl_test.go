package harness

import (
	"context"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestReplConvergence runs one full replication round on the real
// binaries: a primary streaming to two followers through chaos proxies,
// shipping only fsynced records read back from its WAL to every follower
// the proxies cut off and reconnect, loadgen mutating the primary and
// stale-reading the followers, then quiesce + byte-identical shard dumps.
// The wider seed sweep (and the kill-9 follower restart) lives in `make
// repl-smoke` / `make repl-chaos`; one round here keeps the harness from
// bit-rotting.
func TestReplConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a primary, two followers, and a load generator")
	}
	served, loadgen, err := BuildCrashBinaries(t.TempDir())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	// Every primary keeps a WAL; the subtest keeps the name the round had
	// when a WAL-less primary was the other case.
	t.Run("primary-wal=true", func(t *testing.T) {
		res := RunRepl(ReplConfig{
			FleetConfig: FleetConfig{ServedBin: served, LoadgenBin: loadgen, WorkDir: t.TempDir(), Seed: 7},
			Ops:         8000,
			Chaos:       true,
		})
		if res.Err != nil {
			t.Fatalf("replication round failed: %v", res.Err)
		}
		if res.Published == 0 {
			t.Fatal("primary published zero records under a write-heavy load")
		}
		if res.Applied < res.Published*uint64(res.Followers) {
			t.Fatalf("followers applied %d records, want at least %d (published %d x %d followers)",
				res.Applied, res.Published*uint64(res.Followers), res.Published, res.Followers)
		}
		t.Logf("%v", res)
	})
}

// TestReplKillFollower exercises the kill-9 catch-up path: follower 0 is
// killed mid-stream and restarted from its own WAL; it must resume from
// the recovered cursor (not replay from zero) and still converge. What
// the restarted follower missed comes from the primary's log.
func TestReplKillFollower(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes and kill-9s one of them")
	}
	served, loadgen, err := BuildCrashBinaries(t.TempDir())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res := RunRepl(ReplConfig{
		FleetConfig:  FleetConfig{ServedBin: served, LoadgenBin: loadgen, WorkDir: t.TempDir(), Seed: 11},
		Ops:          12000,
		KillFollower: true,
	})
	if res.Err != nil {
		t.Fatalf("kill-follower round failed: %v", res.Err)
	}
	if res.Recovered == 0 {
		t.Fatal("restarted follower recovered zero WAL records")
	}
	if res.LogCatchup == 0 {
		t.Fatal("the primary sent nothing from its log")
	}
	t.Logf("%v", res)
}

// TestPrimaryNeedsWAL: a primary's WAL is the history its followers are
// sent, so tleserved given -repl-listen without -wal must exit non-zero at
// start, naming -wal, and never serve.
func TestPrimaryNeedsWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs tleserved")
	}
	served, _, err := BuildCrashBinaries(t.TempDir())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	out, err := exec.CommandContext(ctx, served, "-addr", "127.0.0.1:0", "-repl-listen", "127.0.0.1:0").CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("tleserved -repl-listen without -wal still ran after 10 s:\n%s", out)
	}
	if err == nil || strings.Contains(string(out), "listening") || !strings.Contains(string(out), "-wal") {
		t.Fatalf("tleserved -repl-listen without -wal: %v, want a non-zero exit naming -wal before it serves:\n%s", err, out)
	}
	t.Logf("refused: %s", strings.TrimSpace(string(out)))
}
