package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// The load generator: one OS thread per connection, each running a poll
// loop over a raw non-blocking socket. Go's runtime timers round sub-
// millisecond sleeps up to a millisecond when a process is otherwise idle,
// which would put the generator's own lateness into every open-loop latency;
// ppoll with a tight timer slack wakes when the next request is due.

const (
	modeOpen = iota
	modeClosed
)

// inflight is one sent request awaiting its reply.
type inflight struct {
	due int64 // intended send time, ns on the run clock
	op  op
	ver uint64 // sentinel set: the version written
}

// sliceStats is what one connection measured in one slice.
type sliceStats struct {
	sent       int       // requests sent
	done       int       // replies received and correct
	doneBy     int       // ... of those, received before the slice's end (closed-loop throughput)
	busy       int       // SERVER_ERROR busy
	errs       int       // other error replies and unparseable replies
	wrong      int       // a value that is not what the key was last set to
	unanswered int       // still in flight when the drain timeout passed
	lat        []uint32  // open loop: reply time minus intended send time, ns (aliases the connection's arena)
	late       []uint32  // open loop: actual minus intended send time, ns
	versionRTT []uint32  // version probes, ns
	rtt        []rttSpan // traced slices: one span per request
	cpuNs      int64
	reads      int64 // the generator's own read and write calls, to take out of /proc/self/io
	writes     int64
	sloMiss    int
	userBytes  int // key and value bytes of the mutations sent
}

func (s *sliceStats) failed() int { return s.busy + s.errs + s.wrong + s.unanswered }

// rttSpan is a client-side span on the socket path.
type rttSpan struct {
	id         uint64
	start, end int64
}

// gconn is one generator connection and its thread.
type gconn struct {
	id   int
	st   *stream
	base time.Time // run clock origin
	file *os.File  // owns fd
	fd   int
	tid  int
	pos  int // next op of the stream

	wbuf []byte
	woff int
	rbuf []byte
	rlo  int
	rhi  int

	ring       [256]inflight
	head, tail uint32 // ring[head%256] is the oldest in flight

	sentVer [sentinelKeys]uint64 // last version sent
	sentAck [sentinelKeys]uint64 // last version the server acknowledged (0 = none)

	// Sample arenas, allocated once; slices of a run carve from them.
	latArena, lateArena, verArena []uint32
	rttArena                      []rttSpan
	seq                           uint64

	cur      sliceStats
	record   bool // open-loop slices keep per-request samples
	traceRTT bool
	limitNs  int64
	sliceEnd int64

	cmd  chan sliceCmd
	done chan sliceStats
}

type sliceCmd struct {
	mode       int
	start, end int64 // run-clock ns
	interval   int64 // open loop: ns between this connection's requests
	trace      bool
}

func (c *gconn) now() int64 { return int64(time.Since(c.base)) }

// dialGen connects to addr and starts the connection's thread. arena is the
// number of open-loop samples the whole run may record on this connection.
func dialGen(id int, addr string, st *stream, base time.Time, arena int) (*gconn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	f, err := nc.(*net.TCPConn).File() // a dup of the socket; TCP_NODELAY, set by Dial, carries over
	nc.Close()
	if err != nil {
		return nil, err
	}
	fd := int(f.Fd())
	if err := syscall.SetNonblock(fd, true); err != nil {
		f.Close()
		return nil, err
	}
	c := &gconn{
		id: id, st: st, base: base, file: f, fd: fd,
		wbuf:      make([]byte, 0, 512<<10),
		rbuf:      make([]byte, 1<<20),
		latArena:  make([]uint32, 0, arena),
		lateArena: make([]uint32, 0, arena),
		verArena:  make([]uint32, 0, arena/versionEvery+1024),
		rttArena:  make([]rttSpan, 0, arena),
		limitNs:   int64(st.w.latLimitUs * 1000),
		cmd:       make(chan sliceCmd),
		done:      make(chan sliceStats),
	}
	ready := make(chan struct{})
	go func() {
		runtime.LockOSThread()
		tightTimerSlack()
		c.tid = syscall.Gettid()
		close(ready)
		for cmd := range c.cmd {
			c.done <- c.runSlice(cmd)
		}
		c.file.Close()
		close(c.done)
	}()
	<-ready
	return c, nil
}

// close stops the connection's thread and waits for it.
func (c *gconn) close() {
	close(c.cmd)
	<-c.done
}

func (c *gconn) inflightN() int { return int(c.tail - c.head) }

// enqueue appends the stream's next request to the write buffer.
func (c *gconn) enqueue(due, now int64) {
	o := c.st.ops[c.id][c.pos]
	if c.pos++; c.pos == len(c.st.ops[c.id]) {
		c.pos = 0
	}
	f := inflight{due: due, op: o}
	k := o.key()
	switch o.kind() {
	case kGet:
		c.wbuf = append(c.wbuf, c.st.getReq[k]...)
	case kDel:
		c.wbuf = append(c.wbuf, c.st.delReq[k]...)
		c.cur.userBytes += len(c.st.keys[k])
	case kSet:
		c.appendSet(k, o.size())
		c.cur.userBytes += len(c.st.keys[k]) + c.st.w.valSizes[o.size()]
	case kSentSet:
		c.sentVer[k]++
		f.ver = c.sentVer[k]
		c.appendSentinelSet(k, f.ver)
		c.cur.userBytes += len(c.st.sentKey[c.id][k]) + sentinelValLen
	case kSentGet:
		c.wbuf = append(c.wbuf, "get "...)
		c.wbuf = append(c.wbuf, c.st.sentKey[c.id][k]...)
		c.wbuf = append(c.wbuf, '\r', '\n')
	case kVersion:
		c.wbuf = append(c.wbuf, versionReq...)
	}
	c.ring[c.tail%uint32(len(c.ring))] = f
	c.tail++
	c.cur.sent++
	if late := now - due; c.record && len(c.cur.late) < cap(c.cur.late) {
		c.cur.late = append(c.cur.late, clampU32(late))
	}
}

func (c *gconn) appendSet(k, size int) {
	c.wbuf = append(c.wbuf, c.st.setHdr[size][k]...)
	c.wbuf = append(c.wbuf, c.st.value(k, c.st.w.valSizes[size])...)
	c.wbuf = append(c.wbuf, '\r', '\n')
}

func (c *gconn) appendSentinelSet(k int, ver uint64) {
	c.wbuf = append(c.wbuf, "set "...)
	c.wbuf = append(c.wbuf, c.st.sentKey[c.id][k]...)
	c.wbuf = append(c.wbuf, " 0 0 64\r\n"...)
	c.wbuf = c.st.appendSentinelValue(c.wbuf, k, ver)
	c.wbuf = append(c.wbuf, '\r', '\n')
}

func clampU32(v int64) uint32 {
	if v < 0 {
		return 0
	}
	if v > 1<<32-1 {
		return 1<<32 - 1
	}
	return uint32(v)
}

// runSlice drives one slice and then drains what is still in flight.
func (c *gconn) runSlice(cmd sliceCmd) sliceStats {
	c.cur = sliceStats{
		lat:        c.latArena[len(c.latArena):],
		late:       c.lateArena[len(c.lateArena):],
		versionRTT: c.verArena[len(c.verArena):],
		rtt:        c.rttArena[len(c.rttArena):],
	}
	c.record = cmd.mode == modeOpen
	c.traceRTT = cmd.trace
	c.sliceEnd = cmd.end
	cpu0, giveUp := threadCPUNs(), cmd.end+drainNs
	nextDue := cmd.start + cmd.interval*int64(c.id)/genConns // connections interleave
	for {
		now := c.now()
		sending := now < cmd.end
		if cmd.mode == modeOpen {
			sending = nextDue < cmd.end
			for sending && nextDue <= now && c.inflightN() < openWindowCap {
				c.enqueue(nextDue, now)
				nextDue += cmd.interval
				sending = nextDue < cmd.end
			}
		} else if sending {
			for c.inflightN() < closedWindow {
				c.enqueue(now, now)
			}
		}
		if c.woff < len(c.wbuf) {
			n, err := syscall.Write(c.fd, c.wbuf[c.woff:])
			c.cur.writes++
			if n > 0 {
				c.woff += n
			}
			if err != nil && err != syscall.EAGAIN && err != syscall.EINTR {
				break // the drain below reports what was lost
			}
			if c.woff == len(c.wbuf) {
				c.wbuf, c.woff = c.wbuf[:0], 0
			}
		}
		if !sending && c.inflightN() == 0 {
			break
		}
		if now >= giveUp {
			break
		}
		// Sleep until a reply, room in the socket, or the next due time.
		wake := giveUp
		switch {
		case cmd.mode == modeOpen && sending && c.inflightN() < openWindowCap:
			wake = nextDue
		case cmd.mode == modeClosed && sending:
			wake = cmd.end
		}
		events := int16(pollIn)
		if c.woff < len(c.wbuf) {
			events |= pollOut
		}
		if c.poll(events, wake-now)&pollIn != 0 {
			if !c.readReplies() {
				break
			}
		}
	}
	c.cur.unanswered = c.inflightN()
	c.head = c.tail // late replies would now misparse, but a run that lost any has failed already
	c.cur.cpuNs = threadCPUNs() - cpu0
	c.latArena = c.latArena[:len(c.latArena)+len(c.cur.lat)]
	c.lateArena = c.lateArena[:len(c.lateArena)+len(c.cur.late)]
	c.verArena = c.verArena[:len(c.verArena)+len(c.cur.versionRTT)]
	c.rttArena = c.rttArena[:len(c.rttArena)+len(c.cur.rtt)]
	return c.cur
}

const (
	pollIn  = 0x1
	pollOut = 0x4
)

type pollFd struct {
	fd      int32
	events  int16
	revents int16
}

// poll waits up to timeoutNs for events on the socket and returns the ready
// set (0 on timeout or interrupt).
func (c *gconn) poll(events int16, timeoutNs int64) int16 {
	if timeoutNs < 0 {
		timeoutNs = 0
	}
	pfd := pollFd{fd: int32(c.fd), events: events}
	ts := syscall.NsecToTimespec(timeoutNs)
	n, _, _ := syscall.Syscall6(syscall.SYS_PPOLL, uintptr(unsafe.Pointer(&pfd)), 1, uintptr(unsafe.Pointer(&ts)), 0, 0, 0)
	if int(n) <= 0 {
		return 0
	}
	if pfd.revents&^(pollIn|pollOut) != 0 {
		return pollIn // error or hang-up: let read report it
	}
	return pfd.revents
}

// readReplies reads what the socket holds and settles every complete reply.
// It reports false once the connection is unusable.
func (c *gconn) readReplies() bool {
	if c.rhi == len(c.rbuf) {
		copy(c.rbuf, c.rbuf[c.rlo:c.rhi])
		c.rhi -= c.rlo
		c.rlo = 0
	}
	n, err := syscall.Read(c.fd, c.rbuf[c.rhi:])
	c.cur.reads++
	if err == syscall.EAGAIN || err == syscall.EINTR {
		return true
	}
	if err != nil || n == 0 {
		return false
	}
	c.rhi += n
	now := c.now()
	for c.inflightN() > 0 {
		f := &c.ring[c.head%uint32(len(c.ring))]
		used, verdict := c.parseReply(c.rbuf[c.rlo:c.rhi], f)
		if used == 0 {
			break
		}
		c.rlo += used
		c.head++
		c.settle(f, verdict, now)
	}
	if c.rlo == c.rhi {
		c.rlo, c.rhi = 0, 0
	}
	return true
}

// Reply verdicts.
const (
	vOK = iota
	vHit
	vMiss
	vBusy
	vErr
	vWrong
)

func (c *gconn) settle(f *inflight, verdict int, now int64) {
	kind := f.op.kind()
	switch verdict {
	case vBusy:
		c.cur.busy++
	case vErr:
		c.cur.errs++
	case vWrong:
		c.cur.wrong++
	default:
		ok := true
		switch kind {
		case kSentSet:
			c.sentAck[f.op.key()] = f.ver
		case kSentGet:
			// Only this connection writes the key and the server runs a
			// connection's requests in order, so a hit was checked against
			// the last acknowledged version; a miss is legal only where
			// the workload evicts.
			if verdict == vMiss && c.sentAck[f.op.key()] != 0 && !c.st.w.evicts {
				c.cur.wrong++
				ok = false
			}
		}
		if ok {
			c.cur.done++
			if now <= c.sliceEnd {
				c.cur.doneBy++
			}
		}
	}
	lat := now - f.due
	if verdict >= vBusy || lat > c.limitNs {
		c.cur.sloMiss++
	}
	switch {
	case !c.record:
	case kind == kVersion && len(c.cur.versionRTT) < cap(c.cur.versionRTT):
		c.cur.versionRTT = append(c.cur.versionRTT, clampU32(lat))
	case kind != kVersion && len(c.cur.lat) < cap(c.cur.lat):
		c.cur.lat = append(c.cur.lat, clampU32(lat))
	}
	if c.traceRTT && len(c.cur.rtt) < cap(c.cur.rtt) {
		c.seq++
		c.cur.rtt = append(c.cur.rtt, rttSpan{id: uint64(c.id)<<56 | c.seq, start: f.due, end: now})
	}
}

var (
	crlf        = []byte("\r\n")
	lineEnd     = []byte("END")
	lineStored  = []byte("STORED")
	lineDeleted = []byte("DELETED")
	lineNotFnd  = []byte("NOT_FOUND")
	lineBusy    = []byte("SERVER_ERROR busy")
	preValue    = []byte("VALUE ")
	preVersion  = []byte("VERSION ")
)

// parseReply parses the reply to f at the front of b. It returns the bytes
// consumed (0 if the reply is not complete yet) and a verdict.
func (c *gconn) parseReply(b []byte, f *inflight) (int, int) {
	eol := bytes.IndexByte(b, '\n')
	if eol < 0 {
		return 0, 0
	}
	line := bytes.TrimSuffix(b[:eol], crlf[:1])
	used := eol + 1
	if bytes.Equal(line, lineBusy) {
		return used, vBusy
	}
	kind, k := f.op.kind(), f.op.key()
	switch kind {
	case kSet, kSentSet:
		if bytes.Equal(line, lineStored) {
			return used, vOK
		}
	case kDel:
		if bytes.Equal(line, lineDeleted) || bytes.Equal(line, lineNotFnd) {
			return used, vOK
		}
	case kVersion:
		if bytes.HasPrefix(line, preVersion) {
			return used, vOK
		}
	case kGet, kSentGet:
		if bytes.Equal(line, lineEnd) {
			return used, vMiss
		}
		rest, ok := bytes.CutPrefix(line, preValue)
		if !ok {
			break
		}
		// "<key> <flags> <bytes>"
		sp := bytes.IndexByte(rest, ' ')
		if sp < 0 {
			break
		}
		gotKey, rest := rest[:sp], rest[sp+1:]
		sp = bytes.IndexByte(rest, ' ')
		if sp < 0 {
			break
		}
		n := 0
		for _, d := range rest[sp+1:] {
			if d < '0' || d > '9' || n > 1<<20 {
				return used, vErr
			}
			n = n*10 + int(d-'0')
		}
		total := used + n + 2 + len("END\r\n")
		if len(b) < total {
			return 0, 0
		}
		val := b[used : used+n]
		if !bytes.Equal(b[used+n:total], []byte("\r\nEND\r\n")) {
			return total, vErr
		}
		if kind == kGet {
			if !bytes.Equal(gotKey, c.st.keys[k]) || c.st.sizeIndex(n) < 0 || !bytes.Equal(val, c.st.value(k, n)) {
				return total, vWrong
			}
			return total, vHit
		}
		ver, ok := c.st.sentinelVersion(val, k)
		if !ok || !bytes.Equal(gotKey, c.st.sentKey[c.id][k]) || ver != c.sentAck[k] {
			return total, vWrong
		}
		return total, vHit
	}
	return used, vErr
}

// runAll runs one slice on every connection and returns their stats.
func runAll(conns []*gconn, cmd sliceCmd) []sliceStats {
	for _, c := range conns {
		c.cmd <- cmd
	}
	out := make([]sliceStats, len(conns))
	for i, c := range conns {
		out[i] = <-c.done
	}
	return out
}

// sortedU32 merges the per-connection samples of a slice, ascending.
func sortedU32(parts ...[]uint32) []uint32 {
	all := slices.Concat(parts...)
	slices.Sort(all)
	return all
}

// prefillKeys sets keys [0,n) and every sentinel through the generator's own
// connections, closed loop, and fails on any reply but STORED.
func prefillKeys(conns []*gconn, n int) error {
	errc := make(chan error, len(conns))
	for _, c := range conns {
		go func(c *gconn) { errc <- c.prefill(n, len(conns)) }(c)
	}
	var first error
	for range conns {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// prefill runs on a plain goroutine before the connection's slices start
// (the thread is parked on its command channel, so the socket is ours).
func (c *gconn) prefill(n, stride int) error {
	var reqs []inflight
	for k := c.id; k < n; k += stride {
		reqs = append(reqs, inflight{op: mkOp(kSet, k%len(c.st.w.valSizes), k)})
	}
	for k := 0; k < sentinelKeys; k++ {
		c.sentVer[k]++
		reqs = append(reqs, inflight{op: mkOp(kSentSet, 0, k), ver: c.sentVer[k]})
	}
	sent, acked := 0, 0
	deadline := time.Now().Add(30 * time.Second)
	for acked < len(reqs) {
		for sent < len(reqs) && sent-acked < closedWindow {
			f := reqs[sent]
			if k := f.op.key(); f.op.kind() == kSet {
				c.appendSet(k, f.op.size())
			} else {
				c.appendSentinelSet(k, f.ver)
			}
			sent++
		}
		for c.woff < len(c.wbuf) {
			n, err := syscall.Write(c.fd, c.wbuf[c.woff:])
			if n > 0 {
				c.woff += n
			}
			if err == syscall.EAGAIN || err == syscall.EINTR {
				break
			}
			if err != nil {
				return fmt.Errorf("prefill write: %w", err)
			}
		}
		if c.woff == len(c.wbuf) {
			c.wbuf, c.woff = c.wbuf[:0], 0
		}
		if time.Now().After(deadline) {
			return errors.New("prefill timed out")
		}
		if c.poll(pollIn, int64(100*time.Millisecond))&pollIn == 0 {
			continue
		}
		m, err := syscall.Read(c.fd, c.rbuf[c.rhi:])
		if err == syscall.EAGAIN || err == syscall.EINTR {
			continue
		}
		if err != nil || m == 0 {
			return fmt.Errorf("prefill read: %v", err)
		}
		c.rhi += m
		for acked < sent {
			eol := bytes.IndexByte(c.rbuf[c.rlo:c.rhi], '\n')
			if eol < 0 {
				break
			}
			line := bytes.TrimSuffix(c.rbuf[c.rlo:c.rlo+eol], crlf[:1])
			if !bytes.Equal(line, lineStored) {
				return fmt.Errorf("prefill: server answered %q", line)
			}
			if f := reqs[acked]; f.op.kind() == kSentSet {
				c.sentAck[f.op.key()] = f.ver
			}
			c.rlo += eol + 1
			acked++
		}
		if c.rlo == c.rhi {
			c.rlo, c.rhi = 0, 0
		}
	}
	return nil
}
