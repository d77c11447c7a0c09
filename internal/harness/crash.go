package harness

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// Kill-9 crash-consistency harness: the durability counterpart to the
// in-process chaos driver. Where RunChaos injects aborts inside one
// process, RunCrash kills the WHOLE server — tleserved running with -wal,
// under live loadgen traffic — at a seeded random point, restarts it from
// the log, and requires the combined pre- and post-crash client history
// to linearize per key. Before the kill comes a clean restart: the first
// server is loaded and stopped with SIGTERM, so its WAL Close compacts the
// log into a base, and the server that is killed recovered from that base
// and logs its tail above it; the history of all three runs is checked as
// one:
//
//   - every acked-at-kill write must survive recovery (acked implies
//     fsynced implies inside the replayed prefix);
//   - every in-flight (unacked) write may surface or vanish, but not
//     half-apply or reorder — phase 1 saves them as pending ops and the
//     checker may place each anywhere after its invocation, or nowhere.
//
// The phases run as child processes on the real binaries, so the test
// covers the full stack: protocol framing, the commit-pipeline tap, group
// fsync, torn-tail recovery and replay. SIGKILL (never SIGTERM) means the
// server gets no chance to flush anything the group-commit loop had not
// already made durable.

// FleetConfig is what every black-box round over the real binaries shares
// (RunCrash, RunRepl; cmd/fleettest sets it from one flag set).
type FleetConfig struct {
	// ServedBin and LoadgenBin are prebuilt tleserved / loadgen binaries
	// (BuildCrashBinaries; go run would add seconds per phase).
	ServedBin  string
	LoadgenBin string
	// WorkDir holds the WAL directories and history files. The caller owns
	// cleanup (keep it to debug a failure).
	WorkDir string
	// Seed drives the workload and every seeded fault (kill points, link
	// chaos).
	Seed int64
	// Conns/Depth/Keyspace shape the load. Keyspace must stay well under
	// Capacity on every node: the per-key model and the dump comparison
	// both assume no eviction.
	Conns, Depth, Keyspace int
	// SetPct/DelPct keep the mix write-heavy (default 50/10 for a crash
	// round, so the kill lands on in-flight mutations; 40/10 for a
	// replication round).
	SetPct, DelPct int
	// Shards and Capacity configure every node's store identically.
	Shards, Capacity int
	// Log, when set, receives all child output (debugging).
	Log io.Writer
}

// withDefaults fills the shared defaults; the two that differ by mode are
// passed in.
func (c FleetConfig) withDefaults(keyspace, setPct int) FleetConfig {
	if c.Conns == 0 {
		c.Conns = 8
	}
	if c.Depth == 0 {
		c.Depth = 4
	}
	if c.Keyspace == 0 {
		c.Keyspace = keyspace
	}
	if c.SetPct == 0 {
		c.SetPct = setPct
	}
	if c.DelPct == 0 {
		c.DelPct = 10
	}
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Capacity == 0 {
		c.Capacity = 4096
	}
	return c
}

// CrashConfig parameterises one kill-9 round trip.
type CrashConfig struct {
	FleetConfig
	// Phase1Ops is the phase-1 budget — deliberately enormous; the kill
	// truncates it. Phase2Ops is the post-restart verification load, and
	// the load before the clean restart.
	Phase1Ops, Phase2Ops int
	// KillMin/KillMax bound the seeded kill delay after phase 1 starts.
	KillMin, KillMax time.Duration
	// ChopTail cuts the second half of the newest WAL segment off
	// between the kill and the restart, so the restarted server has lost
	// acked records. It exists to prove the round catches a log that
	// forgets what it acked (the harness's teeth); a real round leaves it
	// false.
	ChopTail bool
}

func (c CrashConfig) withDefaults() CrashConfig {
	c.FleetConfig = c.FleetConfig.withDefaults(48, 50)
	if c.Phase1Ops == 0 {
		c.Phase1Ops = 5_000_000
	}
	if c.Phase2Ops == 0 {
		c.Phase2Ops = 4000
	}
	if c.KillMin == 0 {
		c.KillMin = 300 * time.Millisecond
	}
	if c.KillMax <= c.KillMin {
		c.KillMax = c.KillMin + 500*time.Millisecond
	}
	return c
}

// CrashResult reports one round trip.
type CrashResult struct {
	Seed      int64
	KillAfter time.Duration
	// Recovered is the record count the restarted server replayed;
	// CleanRecovered the one the server after the clean restart replayed,
	// the base's live keys.
	Recovered, CleanRecovered int
	// Phase1Acked counts operations completed before the kill.
	Phase1Acked int
	Err         error
}

func (r CrashResult) String() string {
	if r.Err != nil {
		return fmt.Sprintf("seed=%d kill@%v FAIL: %v", r.Seed, r.KillAfter.Round(time.Millisecond), r.Err)
	}
	return fmt.Sprintf("seed=%d kill@%v base=%d acked=%d recovered=%d linearizable=yes",
		r.Seed, r.KillAfter.Round(time.Millisecond), r.CleanRecovered, r.Phase1Acked, r.Recovered)
}

// RunCrash executes one seeded kill-9 round trip. Any Err means either an
// infrastructure failure (a child misbehaved) or — the interesting case —
// a durability violation reported by the merged linearizability check.
func RunCrash(cfg CrashConfig) CrashResult {
	cfg = cfg.withDefaults()
	res := CrashResult{Seed: cfg.Seed}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res.KillAfter = cfg.KillMin + time.Duration(rng.Int63n(int64(cfg.KillMax-cfg.KillMin)+1))

	walDir := filepath.Join(cfg.WorkDir, "wal")
	cleanFile := filepath.Join(cfg.WorkDir, "phase0-history.json")
	histFile := filepath.Join(cfg.WorkDir, "phase1-history.json")

	// Phase 0: server up, a load run to its end, SIGTERM: the WAL's Close
	// compacts the log into a base.
	srv0, err := startServer(cfg, walDir)
	if err != nil {
		res.Err = fmt.Errorf("phase 0 server: %w", err)
		return res
	}
	defer srv0.stop()
	lg0, err := startLoadgen(cfg.FleetConfig, srv0.addr, cfg.Phase2Ops, cfg.Seed+2_000_000,
		"-history-out", cleanFile)
	if err != nil {
		res.Err = fmt.Errorf("phase 0 loadgen: %w", err)
		return res
	}
	if out, err := lg0.wait(60 * time.Second); err != nil || !strings.Contains(out, "check: OK") {
		res.Err = fmt.Errorf("phase 0 loadgen: %v\n%s", err, tail(out))
		return res
	}
	srv0.cmd.Process.Signal(syscall.SIGTERM)
	srv0.reap()
	if segs, _ := filepath.Glob(filepath.Join(walDir, "w-*.wal")); len(segs) != 0 {
		res.Err = fmt.Errorf("a clean shutdown left segments %v beside the base", segs)
		return res
	}

	// Phase 1: restart from the base, load on, SIGKILL mid-flight.
	srv, err := startServer(cfg, walDir)
	if err != nil {
		res.Err = fmt.Errorf("phase 1 server: %w", err)
		return res
	}
	defer srv.stop()
	res.CleanRecovered = srv.recovered
	lg, err := startLoadgen(cfg.FleetConfig, srv.addr, cfg.Phase1Ops, cfg.Seed,
		"-tolerate-disconnect", "-presweep", "-history-in", cleanFile, "-history-out", histFile)
	if err != nil {
		res.Err = fmt.Errorf("phase 1 loadgen: %w", err)
		return res
	}
	time.Sleep(res.KillAfter)
	if lg.exited() {
		out, _ := lg.wait(time.Second)
		res.Err = fmt.Errorf("phase 1 finished before the kill (raise Phase1Ops):\n%s", tail(out))
		return res
	}
	if err := srv.cmd.Process.Kill(); err != nil { // SIGKILL: no flush, no goodbye
		res.Err = fmt.Errorf("kill server: %w", err)
		return res
	}
	srv.reap()
	p1out, err := lg.wait(60 * time.Second)
	if err != nil {
		res.Err = fmt.Errorf("phase 1 loadgen after kill: %w\n%s", err, tail(p1out))
		return res
	}
	if !strings.Contains(p1out, "check: DEFERRED") {
		res.Err = fmt.Errorf("phase 1 did not defer its check (no disconnect seen?):\n%s", tail(p1out))
		return res
	}
	res.Phase1Acked = parseCompleted(p1out)
	if cfg.ChopTail {
		if err := chopNewestSegment(walDir); err != nil {
			res.Err = fmt.Errorf("chop WAL tail: %w", err)
			return res
		}
	}

	// Phase 2: restart from the same WAL, then verify the merged history
	// (presweep pins the recovered state before fresh load runs).
	srv2, err := startServer(cfg, walDir)
	if err != nil {
		res.Err = fmt.Errorf("restart server: %w", err)
		return res
	}
	defer srv2.stop()
	res.Recovered = srv2.recovered
	lg2, err := startLoadgen(cfg.FleetConfig, srv2.addr, cfg.Phase2Ops, cfg.Seed+1_000_000,
		"-presweep", "-history-in", histFile)
	if err != nil {
		res.Err = fmt.Errorf("phase 2 loadgen: %w", err)
		return res
	}
	p2out, err := lg2.wait(120 * time.Second)
	if err != nil {
		res.Err = fmt.Errorf("phase 2 (merged history NOT linearizable, or loadgen failed): %w\n%s", err, tail(p2out))
		return res
	}
	if !strings.Contains(p2out, "check: OK") {
		res.Err = fmt.Errorf("phase 2 exited clean without check: OK:\n%s", tail(p2out))
		return res
	}
	srv2.cmd.Process.Signal(syscall.SIGTERM)
	srv2.reap()
	return res
}

// chopNewestSegment truncates the newest WAL segment (segment names are
// zero-padded, so the last in lexical order) to half its length.
func chopNewestSegment(walDir string) error {
	segs, err := filepath.Glob(filepath.Join(walDir, "w-*.wal"))
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return fmt.Errorf("no segment in %s", walDir)
	}
	newest := segs[len(segs)-1]
	fi, err := os.Stat(newest)
	if err != nil {
		return err
	}
	return os.Truncate(newest, fi.Size()/2)
}

// startServer launches tleserved with the WAL enabled and waits for it to
// report recovery and its bound address.
func startServer(cfg CrashConfig, walDir string) (*nodeProc, error) {
	return startNode(cfg.ServedBin, cfg.Log, "server",
		"-addr", "127.0.0.1:0",
		"-wal", walDir,
		"-shards", strconv.Itoa(cfg.Shards),
		"-capacity", strconv.Itoa(cfg.Capacity),
	)
}

// loadgenProc is one loadgen child with captured output.
type loadgenProc struct {
	cmd  *exec.Cmd
	out  *syncBuf
	done chan error
}

func startLoadgen(cfg FleetConfig, addr string, ops int, seed int64, extra ...string) (*loadgenProc, error) {
	args := []string{
		"-addr", addr,
		"-conns", strconv.Itoa(cfg.Conns),
		"-depth", strconv.Itoa(cfg.Depth),
		"-ops", strconv.Itoa(ops),
		"-keyspace", strconv.Itoa(cfg.Keyspace),
		"-seed", strconv.FormatInt(seed, 10),
		"-set", strconv.Itoa(cfg.SetPct),
		"-del", strconv.Itoa(cfg.DelPct),
		"-check",
	}
	return startLoadgenArgs(cfg.LoadgenBin, cfg.Log, append(args, extra...))
}

func (p *loadgenProc) exited() bool {
	select {
	case err := <-p.done:
		p.done <- err
		return true
	default:
		return false
	}
}

// wait blocks for exit (bounded) and returns the combined output; a
// non-zero exit or timeout is an error.
func (p *loadgenProc) wait(timeout time.Duration) (string, error) {
	select {
	case err := <-p.done:
		p.done <- err
		return p.out.String(), err
	case <-time.After(timeout):
		p.cmd.Process.Kill()
		<-p.done
		return p.out.String(), fmt.Errorf("loadgen did not exit within %v", timeout)
	}
}

// syncBuf is a goroutine-safe output sink with optional live tee.
type syncBuf struct {
	mu     sync.Mutex
	b      strings.Builder
	log    io.Writer
	prefix string
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	s.b.Write(p)
	s.mu.Unlock()
	if s.log != nil {
		for _, line := range strings.Split(strings.TrimRight(string(p), "\n"), "\n") {
			fmt.Fprintf(s.log, "%s%s\n", s.prefix, line)
		}
	}
	return len(p), nil
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// cutInt extracts the integer between prefix and sep in line.
func cutInt(line, prefix, sep string) (int, bool) {
	rest, ok := strings.CutPrefix(line, prefix)
	if !ok {
		return 0, false
	}
	numStr, _, ok := strings.Cut(rest, sep)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSpace(numStr))
	if err != nil {
		return 0, false
	}
	return n, true
}

// parseCompleted pulls completed=N out of loadgen's summary line.
func parseCompleted(out string) int {
	for _, line := range strings.Split(out, "\n") {
		if i := strings.Index(line, "completed="); i >= 0 {
			var n int
			fmt.Sscanf(line[i:], "completed=%d", &n)
			return n
		}
	}
	return 0
}

// tail trims child output for error messages: the last lines carry the
// check verdict and counterexample.
func tail(out string) string {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) > 40 {
		lines = lines[len(lines)-40:]
	}
	return strings.Join(lines, "\n")
}

// BuildCrashBinaries compiles tleserved and loadgen into dir and returns
// their paths. Callers in tests share one build across seeds.
func BuildCrashBinaries(dir string) (served, loadgen string, err error) {
	served = filepath.Join(dir, "tleserved")
	loadgen = filepath.Join(dir, "loadgen")
	// Import paths, not ./relative ones: tests build from their own
	// package directory, not the module root.
	for bin, pkg := range map[string]string{served: "gotle/cmd/tleserved", loadgen: "gotle/cmd/loadgen"} {
		cmd := exec.Command("go", "build", "-o", bin, pkg)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return "", "", fmt.Errorf("build %s: %w", pkg, err)
		}
	}
	return served, loadgen, nil
}
