package harness

import "testing"

// TestReplConvergence runs one full replication round on the real
// binaries: a primary streaming to two followers through chaos proxies,
// loadgen mutating the primary and stale-reading the followers, then
// quiesce + byte-identical shard dumps. The wider seed sweep (and the
// kill-9 follower restart) lives in `make repl-smoke` / `make
// repl-chaos`; one round here keeps the harness from bit-rotting.
func TestReplConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a primary, two followers, and a load generator")
	}
	served, loadgen, err := BuildCrashBinaries(t.TempDir())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
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
}

// TestReplKillFollower exercises the kill-9 catch-up path: follower 0 is
// killed mid-stream and restarted from its own WAL; it must resume from
// the recovered cursor (not replay from zero) and still converge.
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
	t.Logf("%v", res)
}
