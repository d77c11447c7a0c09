package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"sync"
	"time"

	"gotle/internal/logrec"
)

// Source is the primary-side streamer: a sink on the kvstore commit stream
// (logrec.Sink) that fans the per-shard record stream out to subscribed
// followers.
//
// logrec.Stream has already turned the unordered post-commit publishes
// into contiguous per-shard runs, framed once; the source only retains
// each frame behind its wire kind byte. Every follower's sender walks the
// shared retained-frame slice from its own cursor, so a slow follower
// exerts backpressure only on itself (its cursor lags) and never queues
// per-follower copies.
//
// Retention: frames are retained from the source's base (the store's
// sequence tail when the tap was attached — the recovered WAL tail, or
// zero on a fresh store). A follower whose handshake cursor predates the
// base is refused: catching it up would need a snapshot transfer, which is
// deliberately out of scope (see DESIGN.md). Retained frames are not yet
// trimmed; a long-lived primary pays memory for the full stream, which is
// acceptable for the harness-scale runs this PR targets and is the flip
// side of the same limitation.
type Source struct {
	shards int
	ln     net.Listener

	mu        sync.Mutex
	sh        []srcShard
	subs      map[*subscriber]struct{}
	draining  bool
	closed    bool
	closeCh   chan struct{}
	published uint64

	wg sync.WaitGroup // accept loop + 2 goroutines per subscriber
}

// srcShard is one shard's retained history.
type srcShard struct {
	// base is the sequence number the stream starts after: frames[i]
	// holds seq base+1+i.
	base uint64
	// next is the lowest sequence number not yet released to the wire.
	next uint64
	// frames is the released, contiguous, encoded history.
	frames [][]byte
}

// subscriber is one connected follower.
type subscriber struct {
	conn net.Conn
	// cur is the next seq to send per shard (sender-owned).
	cur []uint64
	// acked mirrors the follower's last ACK line (under Source.mu).
	acked []uint64
	// kick wakes the sender after a publish (cap 1, non-blocking send).
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
		s.sh[i] = srcShard{base: b, next: b + 1}
	}
	return s
}

// Publish frames one record for shard and retains it. Like Emit it takes
// records in sequence order only; rec.Key/Val are copied by the encoding.
func (s *Source) Publish(shard int, rec logrec.Record) {
	rec.Shard = uint16(shard)
	s.retain(shard, rec.Seq, 1, AppendRecordFrame(nil, rec))
}

// Emit retains a run of n framed records for shard, sequence numbers
// first..first+n-1 (logrec.Sink). frames is the stream's scratch, so the
// run is copied, in one allocation, with the kind byte before each frame.
func (s *Source) Emit(shard int, first uint64, n int, frames []byte) {
	wire := make([]byte, 0, len(frames)+n)
	for len(frames) > 0 {
		sz := logrec.FrameHeader + int(binary.LittleEndian.Uint32(frames))
		wire = append(append(wire, FrameRecord), frames[:sz]...)
		frames = frames[sz:]
	}
	s.retain(shard, first, n, wire)
}

// retain appends n wire frames, back to back in wire (now owned by the
// source), to shard's history. Reordering is logrec.Stream's job,
// upstream; frames are indexed by seq-base, so a run that does not continue
// the shard's sequence would ship followers the wrong records. Only a
// wiring bug can produce one, hence the panic.
func (s *Source) retain(shard int, first uint64, n int, wire []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := &s.sh[shard]
	if first != sh.next {
		panic(fmt.Sprintf("repl: shard %d: publish of seq %d does not continue seq %d", shard, first, sh.next-1))
	}
	for len(wire) > 0 {
		sz := 1 + logrec.FrameHeader + int(binary.LittleEndian.Uint32(wire[1:]))
		sh.frames = append(sh.frames, wire[:sz:sz])
		wire = wire[sz:]
	}
	sh.next += uint64(n)
	s.published += uint64(n)
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
	return ln.Addr(), nil
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
		conn:  c,
		cur:   make([]uint64, s.shards),
		acked: make([]uint64, s.shards),
		kick:  make(chan struct{}, 1),
	}
	s.mu.Lock()
	if s.closed || s.draining {
		s.mu.Unlock()
		fmt.Fprintf(c, "ERR source is shutting down\r\n")
		return
	}
	hErr := ""
	for i, cur := range cursors {
		if cur < s.sh[i].base {
			hErr = fmt.Sprintf("shard %d cursor %d predates retained history (base %d); snapshot transfer is not supported", i, cur, s.sh[i].base)
			break
		}
		if cur >= s.sh[i].next {
			hErr = fmt.Sprintf("shard %d cursor %d is ahead of the source (last %d); the follower belongs to a different history", i, cur, s.sh[i].next-1)
			break
		}
		sub.cur[i] = cur + 1
		sub.acked[i] = cur
	}
	if hErr != "" {
		s.mu.Unlock()
		fmt.Fprintf(c, "ERR %s\r\n", hErr)
		return
	}
	s.subs[sub] = struct{}{}
	s.mu.Unlock()
	fmt.Fprintf(c, "OK %d\r\n", s.shards)

	defer func() {
		s.mu.Lock()
		delete(s.subs, sub)
		s.mu.Unlock()
	}()

	// Ack reader: cursor lines are diagnostics/drain state, so a parse
	// failure just ends the subscription (the follower re-handshakes with
	// the cursor that matters).
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		var acks []uint64
		for {
			line, err := readLine(br)
			if err != nil {
				c.Close() // unblock the sender's write
				return
			}
			var ok bool
			if acks, ok = parseAck(line, acks); ok && len(acks) == s.shards {
				s.mu.Lock()
				copy(sub.acked, acks)
				s.mu.Unlock()
			}
		}
	}()

	s.sender(sub)
}

// senderBatch caps how many frames one collect pass hands to the writer:
// enough to amortize syscalls, small enough to keep cursor updates (and
// drain checks) timely.
const senderBatch = 256

// keepaliveInterval bounds how long an idle (caught-up) subscription goes
// without traffic: the sender re-sends the current tip as a liveness
// beacon. Followers arm a read deadline several times this long, so a
// link wedged mid-frame (e.g. a corrupted length prefix promising bytes
// that never come) times out and reconnects instead of hanging forever.
const keepaliveInterval = time.Second

// sender streams retained frames from the subscriber's cursor, sending a
// tip frame whenever the follower is fully caught up.
func (s *Source) sender(sub *subscriber) {
	var batch [][]byte
	lastTip := make([]uint64, s.shards)
	sentTip := false
	tipBuf := make([]byte, 0, 1+logrec.FrameHeader+2+8*s.shards)
	keepalive := time.NewTicker(keepaliveInterval)
	defer keepalive.Stop()
	for {
		batch = batch[:0]
		s.mu.Lock()
		for i := range s.sh {
			sh := &s.sh[i]
			for sub.cur[i] < sh.next && len(batch) < senderBatch {
				batch = append(batch, sh.frames[sub.cur[i]-sh.base-1])
				sub.cur[i]++
			}
		}
		caughtUp := len(batch) == 0
		tipChanged := false
		if caughtUp {
			for i := range s.sh {
				if tip := s.sh[i].next - 1; tip != lastTip[i] || !sentTip {
					lastTip[i] = tip
					tipChanged = true
				}
			}
		}
		draining := s.draining || s.closed
		s.mu.Unlock()

		if !caughtUp {
			for _, f := range batch {
				if _, err := sub.conn.Write(f); err != nil {
					return
				}
			}
			continue
		}
		if tipChanged {
			sentTip = true
			tipBuf = AppendTipFrame(tipBuf[:0], lastTip)
			if _, err := sub.conn.Write(tipBuf); err != nil {
				return
			}
		}
		if draining {
			// Caught up with nothing more coming: the stream is drained.
			// Leave the connection open for the follower's final acks; the
			// ack reader dies with the close in Close().
			return
		}
		select {
		case <-sub.kick:
		case <-s.closeCh:
		case <-keepalive.C:
			sentTip = false // force a tip resend: idle-link liveness beacon
		}
	}
}

// Close drains and shuts the source down: publishing is expected to have
// stopped (the server has drained), connected followers receive everything
// retained plus a final tip, then connections and the listener close.
// Followers that cannot keep up within timeout are cut off — they would
// resume from their cursor on a future source anyway.
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
	for time.Now().Before(deadline) {
		s.mu.Lock()
		lag := false
		for sub := range s.subs {
			for i := range s.sh {
				if sub.cur[i] < s.sh[i].next {
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
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.wg.Wait()
}

// Seq reports shard i's last published (released-to-the-wire) sequence
// number. Harnesses compare follower applied cursors against it to decide
// quiescence.
func (s *Source) Seq(i int) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sh[i].next - 1
}

// StatLines reports source-side replication counters for the server's
// stats verb: follower count, total released records, and each shard's
// last published sequence (followers' applied cursors are compared against
// these to compute lag).
func (s *Source) StatLines() [][2]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := [][2]string{
		{"repl_role", "source"},
		{"repl_followers", strconv.Itoa(len(s.subs))},
		{"repl_published_records", strconv.FormatUint(s.published, 10)},
	}
	retained := 0
	for i := range s.sh {
		retained += len(s.sh[i].frames)
		out = append(out, [2]string{
			"shard" + strconv.Itoa(i) + "_repl_seq",
			strconv.FormatUint(s.sh[i].next-1, 10),
		})
	}
	out = append(out, [2]string{"repl_retained_frames", strconv.Itoa(retained)})
	return out
}
