package repl

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gotle/internal/kvstore"
	"gotle/internal/logrec"
	"gotle/internal/tle"
	"gotle/internal/tm"
)

// Follower subscribes to a Source and applies the record stream into its
// own store through the front door — the same SetItem/Delete mutators
// client traffic uses, each a transaction on the follower's own TLE
// shards. Applying in per-shard sequence order makes every follower state
// some prefix of the primary's per-shard serialization order: reads served
// from the follower are stale but never torn, and each applied record
// takes the primary's sequence number (a set's CAS token is that number),
// so converged shards match byte for byte, CAS included.
//
// The follower owns its connection lifecycle: it dials, handshakes with
// its applied cursors, and on any error (link cut, corrupt frame, stream
// gap) drops the connection and redials with backoff — the handshake
// cursor makes reconnection self-synchronizing. With a WAL attached to
// the follower's store the applied stream is also redo-logged locally, so
// a kill-9'd follower recovers its cursor from its own log tail and
// resumes from there.
//
//gotle:allow falseshare connected/sessions change once per (re)connect — per-session cold, never contended
type Follower struct {
	store  *kvstore.Store
	rt     *tle.Runtime
	addr   string
	shards int

	//gotle:allow falseshare single-writer (the apply goroutine); acker/stats read at >=100ms cadence, no ping-pong
	applied []atomic.Uint64 // per shard: highest seq applied
	//gotle:allow falseshare single-writer (the session loop, on tip frames); stats-only readers
	tips []atomic.Uint64 // per shard: source's last shippable seq, from tip frames

	connected    atomic.Bool
	sessions     atomic.Uint64 // successful handshakes
	dialFailures atomic.Uint64 // dials the primary refused or let time out
	appliedTotal atomic.Uint64 // records applied by this process

	mu      sync.Mutex
	conn    net.Conn
	stopped bool

	stopCh chan struct{}
	done   chan struct{}
}

// NewFollower builds a follower that will stream from addr into store.
// cursors[i], when non-nil, seeds shard i's applied cursor (the store's
// recovered WAL tail); nil means a fresh replica starting from zero.
func NewFollower(rt *tle.Runtime, store *kvstore.Store, addr string, cursors []uint64) *Follower {
	f := &Follower{
		store:   store,
		rt:      rt,
		addr:    addr,
		shards:  store.ShardCount(),
		stopCh:  make(chan struct{}),
		done:    make(chan struct{}),
		applied: make([]atomic.Uint64, store.ShardCount()),
		tips:    make([]atomic.Uint64, store.ShardCount()),
	}
	for i := range f.applied {
		if cursors != nil {
			f.applied[i].Store(cursors[i])
		}
		// Until the first tip arrives, lag reads as zero.
		f.tips[i].Store(f.applied[i].Load())
	}
	return f
}

// Start launches the subscribe/apply loop in the background.
func (f *Follower) Start() {
	go f.run()
}

// Stop tears the follower down: the current connection closes, the apply
// loop exits, and Stop returns once it has.
func (f *Follower) Stop() {
	f.mu.Lock()
	f.stopped = true
	if f.conn != nil {
		f.conn.Close()
	}
	f.mu.Unlock()
	close(f.stopCh)
	<-f.done
}

// run redials forever with capped exponential backoff until stopped.
func (f *Follower) run() {
	defer close(f.done)
	backoff := 50 * time.Millisecond
	for {
		select {
		case <-f.stopCh:
			return
		default:
		}
		start := time.Now()
		err := f.session()
		f.connected.Store(false)
		if err == nil {
			return // stopped
		}
		// A session that streamed for a while earns a fresh backoff.
		if time.Since(start) > time.Second {
			backoff = 50 * time.Millisecond
		}
		select {
		case <-f.stopCh:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > time.Second {
			backoff = time.Second
		}
	}
}

// session runs one connection: dial, handshake from the applied cursors,
// then apply frames until the link dies or the follower stops. A nil
// return means the follower is stopping; any error means "redial".
func (f *Follower) session() error {
	conn, err := net.DialTimeout("tcp", f.addr, 2*time.Second)
	if err != nil {
		f.dialFailures.Add(1)
		return err
	}
	f.mu.Lock()
	if f.stopped {
		f.mu.Unlock()
		conn.Close()
		return nil
	}
	f.conn = conn
	f.mu.Unlock()
	defer conn.Close()

	cursors := make([]uint64, f.shards)
	for i := range cursors {
		cursors[i] = f.applied[i].Load()
	}
	if _, err := conn.Write(appendHandshake(nil, cursors)); err != nil {
		return err
	}
	br := newConnReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := readLine(br)
	if err != nil {
		return err
	}
	conn.SetReadDeadline(time.Time{})
	if line != fmt.Sprintf("OK %d", f.shards) {
		return fmt.Errorf("repl: handshake refused: %q", line)
	}
	f.sessions.Add(1)
	f.connected.Store(true)

	// Acker: periodic ACK lines over the applied cursors. It shares the
	// connection with nobody (the session goroutine only reads after the
	// handshake), and dies with the connection.
	ackDone := make(chan struct{})
	defer func() {
		// Close before waiting: a session can end with the connection
		// still writable (a read wedged mid-frame times out while acks
		// keep succeeding), and the acker only exits on write failure.
		conn.Close()
		<-ackDone
	}()
	go func() {
		defer close(ackDone)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		var buf []byte
		acks := make([]uint64, f.shards)
		for {
			select {
			case <-f.stopCh:
				return
			case <-tick.C:
			}
			for i := range acks {
				acks[i] = f.applied[i].Load()
			}
			if _, err := conn.Write(appendAck(buf[:0], acks)); err != nil {
				return
			}
		}
	}()

	th := f.rt.NewThread()
	defer th.Release()
	var scratch []byte
	for {
		// The source beacons a tip at least every keepaliveInterval, so a
		// read stalled this long means the link is dead or wedged mid-frame
		// (e.g. a corrupted length prefix promising bytes that never come);
		// drop it and resume from the cursor.
		conn.SetReadDeadline(time.Now().Add(5 * keepaliveInterval))
		var fr Frame
		fr, scratch, err = readFrame(br, scratch)
		if err != nil {
			f.mu.Lock()
			stopped := f.stopped
			f.mu.Unlock()
			if stopped {
				return nil
			}
			return err
		}
		switch fr.Kind {
		case FrameTip:
			if len(fr.Tips) != f.shards {
				return fmt.Errorf("repl: tip frame has %d shards, want %d", len(fr.Tips), f.shards)
			}
			for i, t := range fr.Tips {
				f.tips[i].Store(t)
			}
		case FrameRecord:
			if err := f.apply(th, fr.Rec); err != nil {
				return err
			}
		}
	}
}

// apply routes one record through the front door, enforcing per-shard
// sequence order. Duplicates (a resend overlapping the handshake cursor)
// are skipped; a gap means the stream and the store disagree, which only
// a re-handshake from the real cursor can repair.
func (f *Follower) apply(th *tm.Thread, rec logrec.Record) error {
	sh := int(rec.Shard)
	if sh >= f.shards {
		return fmt.Errorf("repl: record for shard %d, follower has %d", sh, f.shards)
	}
	cur := f.applied[sh].Load()
	if rec.Seq <= cur {
		return nil
	}
	if rec.Seq != cur+1 {
		return fmt.Errorf("repl: stream gap on shard %d: applied %d, got %d", sh, cur, rec.Seq)
	}
	if err := f.store.Apply(th, rec); err != nil {
		return fmt.Errorf("repl: apply shard %d seq %d: %w", sh, rec.Seq, err)
	}
	f.applied[sh].Store(rec.Seq)
	f.appliedTotal.Add(1)
	return nil
}

// Applied returns shard i's applied cursor (the highest sequence number
// whose record has been applied locally).
func (f *Follower) Applied(i int) uint64 { return f.applied[i].Load() }

// StatLines reports follower-side replication state for the server's
// stats verb. Lag is records published at the source but not yet applied
// here, per the freshest tip frame — zero while disconnected tips go
// stale, so repl_connected qualifies it.
func (f *Follower) StatLines() [][2]string {
	out := [][2]string{
		{"repl_role", "follower"},
		{"repl_connected", strconv.FormatBool(f.connected.Load())},
		{"repl_reconnects", strconv.FormatUint(max(f.sessions.Load(), 1)-1, 10)},
		{"repl_dial_failures", strconv.FormatUint(f.dialFailures.Load(), 10)},
		{"repl_applied_records", strconv.FormatUint(f.appliedTotal.Load(), 10)},
	}
	var totalLag uint64
	for i := 0; i < f.shards; i++ {
		applied, tip := f.applied[i].Load(), f.tips[i].Load()
		var lag uint64
		if tip > applied {
			lag = tip - applied
		}
		totalLag += lag
		pfx := "shard" + strconv.Itoa(i) + "_repl_"
		out = append(out,
			[2]string{pfx + "applied", strconv.FormatUint(applied, 10)},
			[2]string{pfx + "lag", strconv.FormatUint(lag, 10)},
		)
	}
	out = append(out, [2]string{"repl_lag_records", strconv.FormatUint(totalLag, 10)})
	return out
}
