package repl

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"gotle/internal/logrec"
	"gotle/internal/wal"
)

// Source is the primary-side streamer: it fans the per-shard record stream
// out to subscribed followers. Every follower's sender works from its own
// cursor, so a slow follower exerts backpressure only on itself.
//
// The primary's WAL is the history (AttachLog; tleserved refuses
// -repl-listen without -wal): the store appends every record to the log
// and to nothing else, and each sender, woken by the log's fsync callback,
// reads what the log has fsynced back through its own wal.Reader, so no
// follower ever holds a record that a restarted primary lacks, and the
// source holds none. A source with no log is fed by Publish, copies each
// record into its shard's in-memory history, which it never frees, and
// ships it as published. Outside this package's tests only the benchmark's
// log-layer probe (benchmark/probes.go) runs one; the history goes once
// that probe publishes to a WAL-backed source.
//
// A follower whose handshake cursor predates the source's base (the
// store's sequence tail when the tap was attached) is refused: catching it
// up would need a snapshot transfer, which is deliberately out of scope
// (see DESIGN.md).
type Source struct {
	shards int
	ln     net.Listener
	log    *wal.Log // nil: the source keeps the history itself

	mu       sync.Mutex
	sh       []srcShard
	subs     map[*subscriber]struct{}
	draining bool
	closed   bool
	closeCh  chan struct{}
	fromLog  uint64 // records sent to followers from the log

	wg sync.WaitGroup // accept loop + 2 goroutines per subscriber
}

// srcShard is one shard's stream and, without a log, its history: frame
// base+i is buf[offs[i-1]:offs[i]].
type srcShard struct {
	// base is the sequence number the stream starts after.
	base uint64
	// next is, without a log, the lowest sequence number not yet
	// published; with one, the log's LastSeq is the last published.
	next uint64
	// durable is the highest sequence number the log has fsynced; without
	// a log it stays at base.
	durable uint64
	buf     []byte
	offs    []int
}

// subscriber is one connected follower.
type subscriber struct {
	conn net.Conn
	// cur is the next seq to send per shard (written by the sender, under
	// Source.mu).
	cur []uint64
	// kick wakes the sender after an fsync, or a publish without a log
	// (cap 1, non-blocking send).
	kick chan struct{}
}

// NewSource builds a streamer for a store with the given shard count.
// base[i], when non-nil, is shard i's last already-durable sequence number
// at attach time (the recovered WAL tail); followers must present cursors
// at or above it.
func NewSource(shards int, base []uint64) *Source {
	s := &Source{
		shards:  shards,
		sh:      make([]srcShard, shards),
		subs:    make(map[*subscriber]struct{}),
		closeCh: make(chan struct{}),
	}
	for i := range s.sh {
		b := uint64(0)
		if base != nil {
			b = base[i]
		}
		s.sh[i] = srcShard{base: b, next: b + 1, durable: b, offs: []int{0}}
	}
	return s
}

// AttachLog makes l the source's history: followers are sent what l has
// fsynced, read back from its segments. kvstore.AttachTap calls it with
// the store's WAL; like the attach itself it belongs before traffic, and
// the source's base must be l's recovered tail.
func (s *Source) AttachLog(l *wal.Log) {
	s.mu.Lock()
	s.log = l
	for i := range s.sh {
		s.sh[i].durable = l.Durable(i)
	}
	s.mu.Unlock()
	l.OnSync(s.synced)
}

// synced is the log's fsync callback: it advances the durable watermarks
// and wakes the senders.
func (s *Source) synced(durable []uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.sh {
		s.sh[i].durable = durable[i]
	}
	s.kickAllLocked()
}

// lastLocked is shard i's last published sequence number: with a log, the
// last it has appended; without one, the last Publish.
func (s *Source) lastLocked(i int) uint64 {
	if s.log != nil {
		return s.log.LastSeq(i)
	}
	return s.sh[i].next - 1
}

// lastsLocked fills last with every shard's lastLocked and returns it.
func (s *Source) lastsLocked(last []uint64) []uint64 {
	for i := range last {
		last[i] = s.lastLocked(i)
	}
	return last
}

// tipLocked is the last seq of shard i a follower may be sent: what the
// log has fsynced, or everything published when there is no log.
func (s *Source) tipLocked(i int) uint64 {
	if s.log == nil {
		return s.sh[i].next - 1
	}
	return s.sh[i].durable
}

// Publish frames one record for shard, after its kind byte, into the
// shard's history; a source with a log takes no records this way. Records
// must arrive in sequence order: one that does not continue its shard's
// sequence would ship followers the wrong records, and only a wiring bug
// makes one. rec.Key/Val are copied by the encoding.
func (s *Source) Publish(shard int, rec logrec.Record) {
	rec.Shard = uint16(shard)
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := &s.sh[shard]
	if s.log != nil || rec.Seq != sh.next {
		panic(fmt.Sprintf("repl: shard %d: publish of seq %d to a source with a log, or not after seq %d", shard, rec.Seq, sh.next-1))
	}
	sh.next++
	sh.buf = logrec.AppendRecord(append(sh.buf, FrameRecord), rec)
	sh.offs = append(sh.offs, len(sh.buf))
	s.kickAllLocked()
}

func (s *Source) kickAllLocked() {
	for sub := range s.subs {
		select {
		case sub.kick <- struct{}{}:
		default:
		}
	}
}

// Start binds addr and serves subscriptions in the background.
func (s *Source) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.Serve(ln)
	return ln.Addr(), nil
}

// Serve serves subscriptions on ln in the background; Close closes ln. A
// primary binds its listener before it replays its log and serves it after:
// a follower that dials meanwhile waits in the accept queue instead of being
// refused and backing off.
func (s *Source) Serve(ln net.Listener) {
	s.ln = ln
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				if !errors.Is(err, net.ErrClosed) {
					fmt.Fprintf(os.Stderr, "repl: accept: %v\n", err)
				}
				return
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.handle(c)
			}()
		}
	}()
}

// handle runs one subscription: handshake, then the sender loop, with an
// ack reader on the side.
func (s *Source) handle(c net.Conn) {
	defer c.Close()
	br := newConnReader(c)
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := readLine(br)
	if err != nil {
		return
	}
	c.SetReadDeadline(time.Time{})
	cursors, err := parseHandshake(line)
	if err != nil {
		fmt.Fprintf(c, "ERR %v\r\n", err)
		return
	}
	if len(cursors) != s.shards {
		fmt.Fprintf(c, "ERR follower has %d shards, source has %d\r\n", len(cursors), s.shards)
		return
	}

	sub := &subscriber{
		conn: c,
		cur:  make([]uint64, s.shards),
		kick: make(chan struct{}, 1),
	}
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		fmt.Fprintf(c, "ERR source is shutting down\r\n")
		return
	}
	hErr := ""
	next := make([]uint64, s.shards) // the handshake cursor: sub.cur's first value, and the sender's own copy
	for i, cur := range cursors {
		if cur < s.sh[i].base {
			hErr = fmt.Sprintf("shard %d cursor %d predates retained history (base %d); snapshot transfer is not supported", i, cur, s.sh[i].base)
			break
		}
		if last := s.lastLocked(i); cur > last {
			hErr = fmt.Sprintf("shard %d cursor %d is ahead of the source (last %d); the follower belongs to a different history", i, cur, last)
			break
		}
		next[i] = cur + 1
	}
	var r *wal.Reader
	if hErr == "" && s.log != nil {
		if r, err = s.log.NewReader(cursors); err != nil {
			hErr = err.Error()
		}
	}
	if hErr != "" {
		s.mu.Unlock()
		fmt.Fprintf(c, "ERR %s\r\n", hErr)
		return
	}
	copy(sub.cur, next)
	s.subs[sub] = struct{}{}
	s.mu.Unlock()
	fmt.Fprintf(c, "OK %d\r\n", s.shards)

	defer s.drop(sub)
	if r != nil {
		defer r.Close()
	}

	// Ack reader: the follower's ACK lines keep the link two-way, so a dead
	// follower is noticed here; their cursors are not needed (the follower
	// re-handshakes with the cursor that matters).
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			if _, err := readLine(br); err != nil {
				s.drop(sub) // wake an idle sender
				c.Close()   // unblock the sender's write
				return
			}
		}
	}()

	s.sender(sub, r, next)
}

// drop unsubscribes sub and wakes its sender to exit.
func (s *Source) drop(sub *subscriber) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.subs, sub)
	select {
	case sub.kick <- struct{}{}:
	default:
	}
}

// senderBatchBytes caps one batch, which goes out as one Write: enough to
// amortize syscalls, small enough to keep cursor updates (and drain
// checks) timely.
const senderBatchBytes = 64 << 10

// keepaliveInterval bounds how long an idle (caught-up) subscription goes
// without traffic: the sender re-sends the current tip as a liveness
// beacon. Followers arm a read deadline several times this long, so a
// link wedged mid-frame (e.g. a corrupted length prefix promising bytes
// that never come) times out and reconnects instead of hanging forever.
const keepaliveInterval = time.Second

// sender streams frames from the subscriber's handshake cursor cur, read
// back from the log through r, or from memory when r is nil, and a tip
// frame whenever the follower has everything shippable. cur is the
// sender's own: on the log path it runs ahead of sub.cur by the batch in
// out.
func (s *Source) sender(sub *subscriber, r *wal.Reader, cur []uint64) {
	var out []byte
	tip := make([]uint64, s.shards)
	resend := true // the first idle pass sends the tips
	var closing <-chan struct{} = s.closeCh
	keepalive := time.NewTicker(keepaliveInterval)
	defer keepalive.Stop()
	for {
		var n int
		var err error
		if r != nil {
			out, n, err = s.sendLog(sub, r, cur, out[:0])
		} else {
			out, n, err = s.sendMemory(sub, out[:0])
		}
		if err == nil && n == 0 {
			out, err = s.sendTip(sub, out[:0], tip, resend)
		}
		if err != nil {
			return
		}
		if n > 0 {
			continue
		}
		resend = false
		select {
		case <-sub.kick:
		case <-closing:
			closing = nil // draining: the next fsync's kick, or Close's, wakes the sender
		case <-keepalive.C:
			resend = true // idle-link liveness beacon
		}
	}
}

// sendMemory writes one batch of the frames published past the
// follower's cursor, copied into out, and reports how many it sent.
func (s *Source) sendMemory(sub *subscriber, out []byte) ([]byte, int, error) {
	n := 0
	s.mu.Lock()
	for i := range s.sh {
		sh := &s.sh[i]
		for ; sub.cur[i] < sh.next && len(out) < senderBatchBytes; sub.cur[i]++ {
			j := sub.cur[i] - sh.base
			out = append(out, sh.buf[sh.offs[j-1]:sh.offs[j]]...)
			n++
		}
	}
	s.mu.Unlock()
	if n == 0 {
		return out, 0, nil
	}
	_, err := sub.conn.Write(out)
	return out, n, err
}

// sendLog writes, in batches, every record r reads up to the log's
// durable watermarks, advancing cur, and reports how many it sent.
func (s *Source) sendLog(sub *subscriber, r *wal.Reader, cur []uint64, out []byte) ([]byte, int, error) {
	sent, n := 0, 0
	flush := func() error {
		// Counted before the write, since the follower may apply the batch
		// before Write returns, and taken back if the write fails. The
		// cursor moves after it, so Close's drain waits for the write.
		s.mu.Lock()
		s.fromLog += uint64(n)
		s.mu.Unlock()
		if _, err := sub.conn.Write(out); err != nil {
			s.mu.Lock()
			s.fromLog -= uint64(n)
			s.mu.Unlock()
			return err
		}
		out = out[:0]
		s.mu.Lock()
		copy(sub.cur, cur)
		s.mu.Unlock()
		sent, n = sent+n, 0
		return nil
	}
	err := r.Next(func(sh int, seq uint64, frame []byte) error {
		out = append(append(out, FrameRecord), frame...)
		cur[sh] = seq + 1
		if n++; len(out) < senderBatchBytes {
			return nil
		}
		return flush()
	})
	if err == nil && n > 0 {
		err = flush()
	}
	return out, sent, err
}

// sendTip runs when the follower has everything shippable: it sends a tip
// frame when the tips moved from those in tip, or when resend asks, and
// ends the subscription once the source is draining and the follower has
// everything published, or once it was dropped.
func (s *Source) sendTip(sub *subscriber, out []byte, tip []uint64, resend bool) ([]byte, error) {
	s.mu.Lock()
	if _, ok := s.subs[sub]; !ok || s.closed {
		s.mu.Unlock()
		return out, net.ErrClosed
	}
	drained := true
	for i := range s.sh {
		if t := s.tipLocked(i); t != tip[i] {
			tip[i], resend = t, true
		}
		drained = drained && sub.cur[i] > s.lastLocked(i)
	}
	draining := s.draining
	s.mu.Unlock()
	if resend {
		out = AppendTipFrame(out, tip)
		if _, err := sub.conn.Write(out); err != nil {
			return out, err
		}
	}
	if draining && drained {
		// Leave the connection open for the follower's final acks; the ack
		// reader dies with the close in Close().
		return out, net.ErrClosed
	}
	return out, nil
}

// Close drains and shuts the source down: publishing is expected to have
// stopped (the server has drained), connected followers receive everything
// published (with a log, once it is fsynced) plus a final tip, then
// connections and the listener close. Followers that cannot keep up within
// timeout are cut off — they would resume from their cursor on a future
// source anyway.
func (s *Source) Close(timeout time.Duration) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.draining = true
	s.kickAllLocked()
	s.mu.Unlock()
	close(s.closeCh)

	deadline := time.Now().Add(timeout)
	last := make([]uint64, s.shards)
	for time.Now().Before(deadline) {
		s.mu.Lock()
		s.lastsLocked(last)
		lag := false
		for sub := range s.subs {
			for i := range last {
				if sub.cur[i] <= last[i] {
					lag = true
				}
			}
		}
		s.mu.Unlock()
		if !lag {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	s.mu.Lock()
	s.closed = true
	for sub := range s.subs {
		sub.conn.Close()
	}
	s.kickAllLocked()
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.wg.Wait()
}

// Seq reports shard i's last published sequence number; with a log, the
// last it has appended, which a follower is sent once it is fsynced.
// Harnesses compare follower applied cursors against it to decide
// quiescence.
func (s *Source) Seq(i int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastLocked(i)
}

// StatLines reports source-side replication counters for the server's
// stats verb: follower count, the records published past the base (with a
// log, those it has appended since it was recovered), each shard's last
// published sequence (followers' applied cursors are compared against
// these to compute lag), and the records sent to followers from the log
// (every record sent).
func (s *Source) StatLines() [][2]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	last := s.lastsLocked(make([]uint64, s.shards))
	published := uint64(0)
	for i, l := range last {
		published += l - s.sh[i].base
	}
	out := [][2]string{
		{"repl_role", "source"},
		{"repl_followers", strconv.Itoa(len(s.subs))},
		{"repl_published_records", strconv.FormatUint(published, 10)},
	}
	for i, l := range last {
		out = append(out, [2]string{
			"shard" + strconv.Itoa(i) + "_repl_seq",
			strconv.FormatUint(l, 10),
		})
	}
	return append(out, [2]string{"repl_log_catchup_records", strconv.FormatUint(s.fromLog, 10)})
}
