package harness

import (
	"strings"
	"testing"
	"time"
)

// TestCrashRecoveryKill9 runs one full kill-9 round trip on the real
// binaries: tleserved with -wal under loadgen traffic, SIGKILLed at a
// seeded point, restarted from the log, merged history checked. The wider
// seed sweep lives in `make crash-smoke` / `make crash-chaos`; one round
// here keeps the harness itself from bit-rotting.
func TestCrashRecoveryKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes and sleeps through a kill window")
	}
	served, loadgen, err := BuildCrashBinaries(t.TempDir())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res := RunCrash(CrashConfig{
		FleetConfig: FleetConfig{ServedBin: served, LoadgenBin: loadgen, WorkDir: t.TempDir(), Seed: 42},
		KillMin:     250 * time.Millisecond,
		KillMax:     500 * time.Millisecond,
		Phase2Ops:   2000,
	})
	if res.Err != nil {
		t.Fatalf("crash round trip failed: %v", res.Err)
	}
	if res.Phase1Acked == 0 {
		t.Fatal("phase 1 acked nothing before the kill")
	}
	if res.Recovered == 0 {
		t.Fatal("restart recovered zero records despite acked mutations")
	}
	t.Logf("%v", res)
}

// TestCrashHarnessTeeth proves the kill-9 round bites: the same round as
// TestCrashRecoveryKill9, but with the newest WAL segment's second half
// cut off before the restart, so writes acked before the kill are gone.
// The merged history must then fail to linearize and RunCrash must
// report it.
func TestCrashHarnessTeeth(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes and sleeps through a kill window")
	}
	served, loadgen, err := BuildCrashBinaries(t.TempDir())
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	res := RunCrash(CrashConfig{
		FleetConfig: FleetConfig{ServedBin: served, LoadgenBin: loadgen, WorkDir: t.TempDir(), Seed: 42},
		KillMin:     250 * time.Millisecond,
		KillMax:     500 * time.Millisecond,
		Phase2Ops:   2000,
		ChopTail:    true,
	})
	if res.Err == nil {
		t.Fatalf("a WAL missing acked records passed the crash round: %v", res)
	}
	if !strings.Contains(res.Err.Error(), "NOT linearizable") {
		t.Fatalf("crash round failed, but not on the history check: %v", res.Err)
	}
	t.Logf("caught: %v", res.Err)
}
