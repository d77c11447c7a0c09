package harness

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gotle/internal/server/client"
)

// Replication convergence harness: one primary tleserved streaming its
// per-shard commit log (-repl-listen) to N follower processes (-follow),
// with loadgen mutating the primary and optionally reading from the
// followers. The round passes when, after the load quiesces and every
// follower's applied cursors reach the primary's published tips, all
// shard dumps are byte-identical across every node — same keys, same
// values, same flags, same CAS tokens.
//
// Chaos mode interposes a seeded faulty TCP proxy on each follower's
// replication link: chunks are delayed, links severed, and bytes
// corrupted at random. A sever or a corrupt frame (CRC) forces the
// follower through its reconnect-and-resume path; convergence afterwards
// proves the handshake cursor discipline loses and duplicates nothing.
//
// KillFollower goes further: follower 0 runs with its own WAL and is
// SIGKILLed mid-stream, then restarted from its log. Its recovered tail
// doubles as the replication resume cursor, so the round asserts it
// (a) replayed a non-empty WAL, (b) applied only the missing suffix of
// the stream after restart, and (c) still converged byte-for-byte.

// ReplConfig parameterises one replication round.
type ReplConfig struct {
	FleetConfig
	// Followers is the replica count (default 2).
	Followers int
	// Ops is the total loadgen budget against the primary.
	Ops int
	// ReplicaGetPct routes that share of loadgen's gets to follower
	// replicas as synchronous stale reads, checked under StaleKVModel.
	ReplicaGetPct int
	// Chaos interposes the faulty proxy on each replication link.
	Chaos bool
	// KillFollower SIGKILLs follower 0 mid-load and restarts it from its
	// WAL; loadgen then only reads from the surviving followers.
	KillFollower bool
}

func (c ReplConfig) withDefaults() ReplConfig {
	c.FleetConfig = c.FleetConfig.withDefaults(64, 40)
	if c.Followers == 0 {
		c.Followers = 2
	}
	if c.Ops == 0 {
		c.Ops = 20000
	}
	if c.ReplicaGetPct == 0 {
		c.ReplicaGetPct = 40
	}
	return c
}

// ReplResult reports one round.
type ReplResult struct {
	Seed      int64
	Followers int
	// Completed is loadgen's completed op count against the primary.
	Completed int
	// Published is the primary's total published record count.
	Published uint64
	// Applied sums records applied across followers (post-restart counts
	// only for a killed follower).
	Applied uint64
	// Reconnects sums follower re-handshakes beyond the first.
	Reconnects uint64
	// Recovered is the killed follower's WAL replay count (KillFollower).
	Recovered int
	// Elapsed spans load start to full quiesce.
	Elapsed time.Duration
	// ApplyPerSec is Applied / Elapsed: follower apply throughput.
	ApplyPerSec float64
	// MaxLag is the worst repl_lag_records sampled on any follower while
	// the load ran: the steady-state staleness bound the run observed.
	MaxLag uint64
	Err    error
}

func (r ReplResult) String() string {
	if r.Err != nil {
		return fmt.Sprintf("seed=%d followers=%d FAIL: %v", r.Seed, r.Followers, r.Err)
	}
	s := fmt.Sprintf("seed=%d followers=%d completed=%d published=%d applied=%d reconnects=%d max-lag=%d %.0f applies/sec converged=yes",
		r.Seed, r.Followers, r.Completed, r.Published, r.Applied, r.Reconnects, r.MaxLag, r.ApplyPerSec)
	if r.Recovered > 0 {
		s += fmt.Sprintf(" recovered=%d", r.Recovered)
	}
	return s
}

// RunRepl executes one seeded replication round. Any Err means an
// infrastructure failure, a non-converged replica, or a history the
// stale-read model rejects.
func RunRepl(cfg ReplConfig) ReplResult {
	cfg = cfg.withDefaults()
	res := ReplResult{Seed: cfg.Seed, Followers: cfg.Followers}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Primary: no WAL (replication retention starts at zero), commit log
	// streamed on a loopback port.
	primary, err := startNode(cfg.ServedBin, cfg.Log, "primary",
		"-addr", "127.0.0.1:0",
		"-repl-listen", "127.0.0.1:0",
		"-shards", strconv.Itoa(cfg.Shards),
		"-capacity", strconv.Itoa(cfg.Capacity),
	)
	if err != nil {
		res.Err = fmt.Errorf("primary: %w", err)
		return res
	}
	defer primary.stop()
	if primary.replAddr == "" {
		res.Err = fmt.Errorf("primary did not report a replication address")
		return res
	}

	// Each follower streams through its own chaos proxy (or straight from
	// the primary), and owns a WAL so a kill-9 resumes from its log tail.
	followTargets := make([]string, cfg.Followers)
	var proxies []*chaosProxy
	defer func() {
		for _, p := range proxies {
			p.close()
		}
	}()
	for i := range followTargets {
		followTargets[i] = primary.replAddr
		if cfg.Chaos {
			p, err := startChaosProxy(primary.replAddr, cfg.Seed^int64(0x9e3779b9*uint32(i+1)), cfg.Log)
			if err != nil {
				res.Err = fmt.Errorf("chaos proxy %d: %w", i, err)
				return res
			}
			proxies = append(proxies, p)
			followTargets[i] = p.addr
		}
	}
	followers := make([]*nodeProc, cfg.Followers)
	defer func() {
		for _, f := range followers {
			if f != nil {
				f.stop()
			}
		}
	}()
	startFollower := func(i int) (*nodeProc, error) {
		return startNode(cfg.ServedBin, cfg.Log, fmt.Sprintf("follower%d", i),
			"-addr", "127.0.0.1:0",
			"-follow", followTargets[i],
			"-wal", filepath.Join(cfg.WorkDir, fmt.Sprintf("fwal%d", i)),
			"-shards", strconv.Itoa(cfg.Shards),
			"-capacity", strconv.Itoa(cfg.Capacity),
		)
	}
	for i := range followers {
		if followers[i], err = startFollower(i); err != nil {
			res.Err = fmt.Errorf("follower %d: %w", i, err)
			return res
		}
	}

	// The kill victim must not serve loadgen reads: its death would fail
	// the client, not the replication path under test.
	readTargets := make([]string, 0, cfg.Followers)
	for i, f := range followers {
		if cfg.KillFollower && i == 0 {
			continue
		}
		readTargets = append(readTargets, f.addr)
	}
	var replicaArgs []string
	if len(readTargets) > 0 {
		replicaArgs = []string{
			"-replica", strings.Join(readTargets, ","),
			"-replica-get-pct", strconv.Itoa(cfg.ReplicaGetPct)}
	}
	start := time.Now()
	lg, err := startLoadgen(cfg.FleetConfig, primary.addr, cfg.Ops, cfg.Seed, replicaArgs...)
	if err != nil {
		res.Err = fmt.Errorf("loadgen: %w", err)
		return res
	}

	// Lag sampler: while the load runs, compute each follower's true lag —
	// primary published sequence minus follower applied cursor, summed over
	// shards — and keep the worst sample as the steady-state staleness
	// bound. fmu guards the followers slice against the kill path's
	// restart swap.
	var fmu sync.Mutex
	followerAddrs := func() []string {
		fmu.Lock()
		defer fmu.Unlock()
		addrs := make([]string, 0, len(followers))
		for _, f := range followers {
			if f != nil {
				addrs = append(addrs, f.addr)
			}
		}
		return addrs
	}
	samplerStop := make(chan struct{})
	samplerDone := make(chan uint64, 1)
	go func() {
		var worst uint64
		tick := time.NewTicker(150 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-samplerStop:
				samplerDone <- worst
				return
			case <-tick.C:
			}
			pst, err := serverStatsAt(primary.addr)
			if err != nil {
				continue
			}
			for _, addr := range followerAddrs() {
				fst, err := serverStatsAt(addr)
				if err != nil {
					continue
				}
				var lag uint64
				for i := 0; i < cfg.Shards; i++ {
					seq, _ := strconv.ParseUint(pst[fmt.Sprintf("shard%d_repl_seq", i)], 10, 64)
					applied, _ := strconv.ParseUint(fst[fmt.Sprintf("shard%d_repl_applied", i)], 10, 64)
					if seq > applied {
						lag += seq - applied
					}
				}
				if lag > worst {
					worst = lag
				}
			}
		}
	}()

	if cfg.KillFollower {
		// Kill after a seeded delay inside the load window, restart from
		// the same WAL. A load that already finished still exercises the
		// restart, just with the whole suffix to catch up on.
		time.Sleep(200*time.Millisecond + time.Duration(rng.Int63n(int64(600*time.Millisecond))))
		if err := followers[0].cmd.Process.Kill(); err != nil {
			res.Err = fmt.Errorf("kill follower 0: %w", err)
			return res
		}
		followers[0].reap()
		time.Sleep(100 * time.Millisecond)
		f0, err := startFollower(0)
		if err != nil {
			res.Err = fmt.Errorf("restart follower 0: %w", err)
			return res
		}
		fmu.Lock()
		followers[0] = f0
		fmu.Unlock()
		res.Recovered = f0.recovered
		if res.Recovered == 0 {
			res.Err = fmt.Errorf("restarted follower replayed zero WAL records (kill landed before any apply was logged?)")
			return res
		}
	}

	lgOut, err := lg.wait(180 * time.Second)
	close(samplerStop)
	res.MaxLag = <-samplerDone
	if err != nil {
		res.Err = fmt.Errorf("loadgen (stale-read history rejected, or load failed): %w\n%s", err, tail(lgOut))
		return res
	}
	if !strings.Contains(lgOut, "check: OK") {
		res.Err = fmt.Errorf("loadgen exited clean without check: OK:\n%s", tail(lgOut))
		return res
	}
	res.Completed = parseCompleted(lgOut)

	// Quiesce: every follower's applied cursor reaches the primary's
	// published tip on every shard.
	if err := waitQuiesced(primary, followers, cfg.Shards, 30*time.Second); err != nil {
		res.Err = err
		return res
	}
	res.Elapsed = time.Since(start)

	res.Published, _ = serverCounter(primary.addr, "repl_published_records")
	for _, f := range followers {
		n, _ := serverCounter(f.addr, "repl_applied_records")
		res.Applied += n
		rc, _ := serverCounter(f.addr, "repl_reconnects")
		res.Reconnects += rc
	}
	if res.Elapsed > 0 {
		res.ApplyPerSec = float64(res.Applied) / res.Elapsed.Seconds()
	}
	if cfg.KillFollower {
		// The restarted follower must have resumed, not replayed: its
		// post-restart apply count stays short of the full stream.
		n, err := serverCounter(followers[0].addr, "repl_applied_records")
		if err != nil {
			res.Err = fmt.Errorf("killed follower stats: %w", err)
			return res
		}
		if res.Published > 0 && n >= res.Published {
			res.Err = fmt.Errorf("restarted follower applied %d of %d records — it replayed the stream from zero instead of resuming from its WAL cursor", n, res.Published)
			return res
		}
	}

	addrs := make([]string, len(followers))
	for i, f := range followers {
		addrs[i] = f.addr
	}
	if err := AssertConverged(primary.addr, addrs, cfg.Shards); err != nil {
		res.Err = err
		return res
	}

	// Graceful teardown so the deferred stops are no-ops on live children.
	for _, f := range followers {
		f.cmd.Process.Signal(syscall.SIGTERM)
		f.reap()
	}
	primary.cmd.Process.Signal(syscall.SIGTERM)
	primary.reap()
	return res
}

// AssertConverged dumps every shard on the primary and each follower over
// the client protocol and requires byte-identical contents: same keys,
// values, flags, and CAS tokens in the same key order.
func AssertConverged(primaryAddr string, followerAddrs []string, shards int) error {
	pc, err := client.Dial(primaryAddr)
	if err != nil {
		return fmt.Errorf("converge: dial primary: %w", err)
	}
	defer pc.Close()
	for fi, addr := range followerAddrs {
		fc, err := client.Dial(addr)
		if err != nil {
			return fmt.Errorf("converge: dial follower %d: %w", fi, err)
		}
		for i := 0; i < shards; i++ {
			pd, err := pc.ShardDump(i)
			if err != nil {
				fc.Close()
				return fmt.Errorf("converge: primary dump shard %d: %w", i, err)
			}
			fd, err := fc.ShardDump(i)
			if err != nil {
				fc.Close()
				return fmt.Errorf("converge: follower %d dump shard %d: %w", fi, i, err)
			}
			if !bytes.Equal(pd, fd) {
				fc.Close()
				return fmt.Errorf("converge: follower %d shard %d diverged: primary %d bytes, follower %d bytes",
					fi, i, len(pd), len(fd))
			}
		}
		fc.Close()
	}
	return nil
}

// waitQuiesced polls stats until every follower's per-shard applied
// cursors reach the primary's published sequence numbers.
func waitQuiesced(primary *nodeProc, followers []*nodeProc, shards int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		pst, err := serverStatsAt(primary.addr)
		if err != nil {
			return fmt.Errorf("quiesce: primary stats: %w", err)
		}
		behind := ""
		for _, f := range followers {
			fst, err := serverStatsAt(f.addr)
			if err != nil {
				behind = fmt.Sprintf("follower %s unreachable: %v", f.addr, err)
				break
			}
			for i := 0; i < shards; i++ {
				seq := pst[fmt.Sprintf("shard%d_repl_seq", i)]
				applied := fst[fmt.Sprintf("shard%d_repl_applied", i)]
				if seq != applied {
					behind = fmt.Sprintf("follower %s shard %d: applied %s of %s", f.addr, i, applied, seq)
					break
				}
			}
			if behind != "" {
				break
			}
		}
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("quiesce: followers never caught up within %v: %s", timeout, behind)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// nodeProc is one tleserved child plus its parsed startup lines.
type nodeProc struct {
	cmd       *exec.Cmd
	name      string
	addr      string // serving address ("listening on ...")
	replAddr  string // replication address ("repl: streaming on ...", primary only)
	recovered int    // "wal: recovered N records"
	waitOnce  sync.Once
	waitErr   error
}

// startNode launches tleserved (the crash and replication harnesses share
// it) and waits for its startup lines; the info lines (wal recovery, repl
// role) print before "listening on", so one scan collects everything. log,
// when set, receives the child's output.
func startNode(bin string, log io.Writer, name string, args ...string) (*nodeProc, error) {
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &nodeProc{cmd: cmd, name: name}

	type startup struct {
		addr, replAddr string
		recovered      int
		err            error
	}
	ch := make(chan startup, 1)
	go func() {
		var st startup
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if log != nil {
				fmt.Fprintf(log, "[%s] %s\n", name, line)
			}
			if n, ok := cutInt(line, "wal: recovered ", " records"); ok {
				st.recovered = n
			}
			if rest, ok := strings.CutPrefix(line, "repl: streaming on "); ok {
				st.replAddr = strings.Fields(rest)[0]
			}
			if rest, ok := strings.CutPrefix(line, "listening on "); ok {
				st.addr = strings.Fields(rest)[0]
				ch <- st
				for sc.Scan() { // drain so the child never blocks on a full pipe
					if log != nil {
						fmt.Fprintf(log, "[%s] %s\n", name, sc.Text())
					}
				}
				return
			}
		}
		st.err = fmt.Errorf("%s exited before listening (scan err: %v)", name, sc.Err())
		ch <- st
	}()

	select {
	case st := <-ch:
		if st.err != nil {
			cmd.Process.Kill()
			p.reap()
			return nil, st.err
		}
		p.addr, p.replAddr, p.recovered = st.addr, st.replAddr, st.recovered
		return p, nil
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		p.reap()
		return nil, fmt.Errorf("%s did not report listening within 30s", name)
	}
}

// reap waits for the child exactly once (Kill/SIGTERM callers included).
func (p *nodeProc) reap() error {
	p.waitOnce.Do(func() { p.waitErr = p.cmd.Wait() })
	return p.waitErr
}

// stop force-kills and reaps; safe on an already-dead child. Deferred so
// an early error return never leaks a listening server.
func (p *nodeProc) stop() {
	p.cmd.Process.Kill()
	p.reap()
}

// startLoadgenArgs launches loadgen with explicit args.
func startLoadgenArgs(bin string, log io.Writer, args []string) (*loadgenProc, error) {
	cmd := exec.Command(bin, args...)
	buf := &syncBuf{log: log, prefix: "[loadgen] "}
	cmd.Stdout = buf
	cmd.Stderr = buf
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &loadgenProc{cmd: cmd, out: buf, done: make(chan error, 1)}
	go func() { p.done <- cmd.Wait() }()
	return p, nil
}

// serverStatsAt fetches the stats map over a throwaway connection.
func serverStatsAt(addr string) (map[string]string, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Stats()
}

// serverCounter fetches one numeric stats field (absent fields read 0).
func serverCounter(addr, field string) (uint64, error) {
	st, err := serverStatsAt(addr)
	if err != nil {
		return 0, err
	}
	n, _ := strconv.ParseUint(st[field], 10, 64)
	return n, nil
}

// chaosProxy is a faulty TCP relay for one replication link. Faults hit
// only the downstream direction (primary → follower record stream): each
// chunk may be delayed, the link severed, or a byte corrupted. Upstream
// (handshake + acks) passes clean, so every reconnect renegotiates from
// the follower's true cursor.
type chaosProxy struct {
	ln       net.Listener
	addr     string
	upstream string
	seed     int64
	log      io.Writer

	mu     sync.Mutex
	conns  []net.Conn
	nconns int64
	closed bool
}

func startChaosProxy(upstream string, seed int64, log io.Writer) (*chaosProxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &chaosProxy{ln: ln, addr: ln.Addr().String(), upstream: upstream, seed: seed, log: log}
	go p.acceptLoop()
	return p, nil
}

func (p *chaosProxy) acceptLoop() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		up, err := net.DialTimeout("tcp", p.upstream, 2*time.Second)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			c.Close()
			up.Close()
			return
		}
		p.nconns++
		rng := rand.New(rand.NewSource(p.seed + p.nconns))
		p.conns = append(p.conns, c, up)
		p.mu.Unlock()

		// Upstream (follower → primary): clean relay.
		go func() {
			io.Copy(up, c)
			up.Close()
			c.Close()
		}()
		// Downstream (primary → follower): the faulty leg.
		go p.relayFaulty(up, c, rng)
	}
}

// relayFaulty copies src → dst chunk by chunk, injecting seeded faults.
func (p *chaosProxy) relayFaulty(src, dst net.Conn, rng *rand.Rand) {
	defer src.Close()
	defer dst.Close()
	buf := make([]byte, 4096)
	for {
		n, err := src.Read(buf)
		if n > 0 {
			if d := rng.Intn(6); d > 0 {
				time.Sleep(time.Duration(d-1) * time.Millisecond)
			}
			if rng.Intn(200) == 0 {
				if p.log != nil {
					fmt.Fprintf(p.log, "[chaos] severing link to %s\n", dst.RemoteAddr())
				}
				return // sever: both ends close, follower redials
			}
			if rng.Intn(500) == 0 {
				i := rng.Intn(n)
				buf[i] ^= 0x20 // CRC catches it; follower reconnects
				if p.log != nil {
					fmt.Fprintf(p.log, "[chaos] corrupting byte %d of a %d-byte chunk\n", i, n)
				}
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
		}
		if err != nil {
			return
		}
	}
}

func (p *chaosProxy) close() {
	p.mu.Lock()
	p.closed = true
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	p.ln.Close()
	for _, c := range conns {
		c.Close()
	}
}
