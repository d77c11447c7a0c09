// Package server is tleserved's network layer: a TCP server speaking the
// memcached text protocol over the TLE kvstore.
//
// The paper's memcached experience (Sections V–VI) is about what happens
// to a real server when its lock-based critical sections are elided. This
// package supplies the missing server: every request ultimately executes
// one kvstore critical section on an elided per-shard mutex, so the
// protocol front-end is the workload generator the TM stack actually
// faces — pipelined, bursty, and mixed.
//
// Per-connection pipeline (three goroutines per connection):
//
//	decoder  — pops an op off the connection's pool, reads and parses a
//	           request line + data block into it, performs admission
//	           control: if the connection's execution queue is full the op
//	           is answered "SERVER_ERROR busy" immediately (shed) instead
//	           of stalling the socket;
//	executor — owns the connection's tm.Thread and runs each op's TLE
//	           critical sections in arrival order;
//	writer   — emits responses strictly in request order: every op
//	           (executed or shed) carries a done-channel the writer
//	           awaits before writing, so pipelining never reorders; then
//	           pushes the op back onto the pool.
//
// The pool is a last-in first-out stack that makes an op only when it is
// empty, so a connection holds as many ops, and as many request and reply
// buffers, as it has had requests in flight at once, not as many as its
// queues could hold.
//
// Admission control is two-level: a connection cap at accept time (late
// connections get "SERVER_ERROR busy" and a close) and the per-connection
// queue depth above. Shutdown drains: accepting stops, queued ops finish,
// responses flush, then sockets close.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gotle/internal/adaptive"
	"gotle/internal/kvstore"
	"gotle/internal/stats"
	"gotle/internal/tle"
	"gotle/internal/tm"
	"gotle/internal/wal"
)

// Config parameterises a Server.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// MaxConns caps concurrent connections (default 48). Each connection
	// owns a tm.Thread; under HTM those are hardware contexts, so the cap
	// must stay below htm.MaxThreads with room for server-side threads.
	MaxConns int
	// QueueDepth is the per-connection execution queue bound (default
	// 128); ops beyond it are shed with "SERVER_ERROR busy".
	QueueDepth int
	// Version is reported by the version command.
	Version string
	// Controller, when set, exposes per-shard adaptive state via stats.
	Controller *adaptive.Controller
	// WAL, when set, is the store's attached redo log, read only for its
	// counters in stats. The kvstore tap appends to it inside the commit
	// order, and the store hands out its tickets: a reply waits for the
	// ticket of every shard sequence its sections read, so it implies that
	// everything the reply wrote or observed is fsynced.
	WAL *wal.Log
	// ReadOnly rejects every mutating verb with "SERVER_ERROR readonly".
	// Follower replicas serve with this set: the replication stream is the
	// only writer, so client traffic must not draw sequence or CAS tokens.
	ReadOnly bool
	// ExtraStats, when set, contributes extra key/value lines to the stats
	// response (replication counters; the server itself stays
	// replication-agnostic).
	ExtraStats func() [][2]string
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.MaxConns == 0 {
		c.MaxConns = 48
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 128
	}
	if c.Version == "" {
		c.Version = "gotle-tleserved/0.5"
	}
	return c
}

// Server serves one kvstore over one listener.
type Server struct {
	cfg   Config
	r     *tle.Runtime
	store *kvstore.Store
	ln    net.Listener

	mu       sync.Mutex
	active   map[net.Conn]struct{}
	draining bool

	wg sync.WaitGroup // accept loop + 3 goroutines per connection

	// Gauges and decode-side counters for the stats command.
	currConns  atomic.Int64
	_          [48]byte // pad: keep the next hot word on its own cache line
	totalConns atomic.Uint64
	_          [56]byte // pad: keep the next hot word on its own cache line
	shedOps    atomic.Uint64
	_          [56]byte // pad: keep the next hot word on its own cache line
	shedConns  atomic.Uint64
	_          [56]byte // pad: keep the next hot word on its own cache line
	queued     atomic.Int64
	_          [56]byte // pad: keep the next hot word on its own cache line
	protoErrs  atomic.Uint64

	// ops holds the counters the connections' executors bump per op, each
	// on the stripe of its own thread id.
	ops *stats.Striped
	// tm0 is the engine's counters at New: stats reports the transactions
	// since, not a recovery replay's.
	tm0 stats.Snapshot

	// connDone, when set before Serve, is handed each connection's op pool
	// once its writer has pushed back every op it will (a test hook).
	connDone func(*opPool)
}

// Indices into Server.ops.
const (
	ctrCmdGet = iota
	ctrCmdSet
	numCtrs
)

// New builds a server over store. Call Listen then Serve (or Start).
func New(r *tle.Runtime, store *kvstore.Store, cfg Config) *Server {
	return &Server{
		cfg:    cfg.withDefaults(),
		r:      r,
		store:  store,
		active: make(map[net.Conn]struct{}),
		ops:    stats.NewStriped(numCtrs),
		tm0:    r.Engine().Snapshot(),
	}
}

// Listen binds the configured address and returns it (useful with
// port 0).
func (s *Server) Listen() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Addr returns the bound address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve runs the accept loop until the listener closes (Shutdown).
func (s *Server) Serve() error {
	for {
		c, err := s.ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		if !s.admit(c) {
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(c)
		}()
	}
}

// Start is Listen + Serve in the background; it returns the bound
// address. Serve errors after Shutdown are discarded.
func (s *Server) Start() (net.Addr, error) {
	addr, err := s.Listen()
	if err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.Serve(); err != nil {
			fmt.Fprintf(os.Stderr, "tleserved: serve: %v\n", err)
		}
	}()
	return addr, nil
}

// admit enforces the connection cap; rejected sockets get a busy error.
func (s *Server) admit(c net.Conn) bool {
	s.mu.Lock()
	if s.draining || int(s.currConns.Load()) >= s.cfg.MaxConns {
		s.mu.Unlock()
		s.shedConns.Add(1)
		c.SetWriteDeadline(time.Now().Add(time.Second))
		io.WriteString(c, "SERVER_ERROR busy\r\n")
		c.Close()
		return false
	}
	s.active[c] = struct{}{}
	s.mu.Unlock()
	s.currConns.Add(1)
	s.totalConns.Add(1)
	return true
}

// Shutdown drains the server: stop accepting, kick decoders out of their
// blocking reads, let queued ops execute and flush, then close. Returns
// once every connection goroutine has exited or the timeout passed (in
// which case remaining sockets are force-closed).
func (s *Server) Shutdown(timeout time.Duration) {
	s.mu.Lock()
	s.draining = true
	conns := make([]net.Conn, 0, len(s.active))
	for c := range s.active {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if s.ln != nil {
		s.ln.Close()
	}
	// Give decoders a short grace to consume requests the client already
	// flushed (they sit in the kernel buffer), then the expiring deadline
	// kicks them out of the blocking read; queued ops drain and flush.
	grace := timeout / 4
	if grace > 200*time.Millisecond {
		grace = 200 * time.Millisecond
	}
	for _, c := range conns {
		c.SetReadDeadline(time.Now().Add(grace))
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		s.mu.Lock()
		for c := range s.active {
			c.Close()
		}
		s.mu.Unlock()
		<-done
	}
}

// op is one pipelined request: parsed by the decoder, resolved by the
// executor (or pre-resolved when shed or malformed), written by the
// writer in arrival order and then recycled into the connection's pool —
// in steady state an op's buffers are allocated once and reused for the
// life of the connection.
type op struct {
	cmd  Command
	data []byte        // value block (aliases dataB)
	resp []byte        // wire response (static, or aliases respB)
	done chan struct{} // cap-1 signal, reused across recycles
	quit bool
	next *op // the op below this one on the pool's stack

	// tickets holds one WAL ticket per shard section the op ran: the
	// writer waits them all before writing the reply, strictly after the
	// executor has moved on. Zero tickets (no WAL) cost nothing to wait.
	tickets []wal.Ticket

	// Op-owned storage, grown on demand and kept across recycling.
	lineB []byte // request line; cmd.Key/cmd.Keys alias it
	dataB []byte
	respB []byte
	valB  []byte // get-path value scratch
}

// opPool is one connection's ops: a stack the decoder pops and the writer
// pushes, so the op reused next is the one written last, and the ops deeper
// down — with the buffers they would grow — are touched only when that many
// requests are in flight at once. An op is made when the stack is empty.
// The pool needs no bound of its own: every op out is in respQ or in one
// goroutine's hands, so the decoder's respQ send bounds them at cap(respQ)+2.
type opPool struct {
	mu   sync.Mutex
	top  *op
	made int
}

// get pops the most recently written op, or makes one if the stack is empty.
//
//gotle:hotpath per-op pop from the connection's stack
func (p *opPool) get() *op {
	p.mu.Lock()
	o := p.top
	if o != nil {
		p.top = o.next
		o.next = nil
	} else {
		p.made++
	}
	p.mu.Unlock()
	if o == nil {
		//gotle:allow hotalloc at most cap(respQ)+2 per connection, each the first time that many requests are in flight
		o = &op{done: make(chan struct{}, 1)}
	}
	return o
}

// put pushes an op whose reply is written back onto the stack.
//
//gotle:hotpath per-op push onto the connection's stack
func (p *opPool) put(o *op) {
	p.mu.Lock()
	o.next = p.top
	p.top = o
	p.mu.Unlock()
}

func (o *op) resolve(resp []byte) {
	if !o.cmd.NoReply {
		o.resp = resp
	}
	o.done <- struct{}{}
}

var (
	respError    = []byte("ERROR\r\n")
	respBusy     = []byte("SERVER_ERROR busy\r\n")
	respStored   = []byte("STORED\r\n")
	respNotSt    = []byte("NOT_STORED\r\n")
	respExists   = []byte("EXISTS\r\n")
	respNotFound = []byte("NOT_FOUND\r\n")
	respDeleted  = []byte("DELETED\r\n")
	respEnd      = []byte("END\r\n")
	respTooBig   = []byte("SERVER_ERROR object too large for cache\r\n")
	respReadonly = []byte("SERVER_ERROR readonly\r\n")
	respNaN      = []byte("CLIENT_ERROR cannot increment or decrement non-numeric value\r\n")
)

func (s *Server) handleConn(c net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.active, c)
		s.mu.Unlock()
		s.currConns.Add(-1)
	}()

	execQ := make(chan *op, s.cfg.QueueDepth)
	respQ := make(chan *op, 2*s.cfg.QueueDepth)
	// Op pool: ops are made as the requests in flight first need them, and
	// the decoder's respQ send bounds how many there can be.
	pool := &opPool{}

	// Executor: one tm.Thread per connection, running the queued ops in
	// arrival order.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		th := s.r.NewThread()
		defer th.Release()
		for o := range execQ {
			o.resolve(s.run(th, o))
			s.queued.Add(-1)
		}
	}()

	// Writer: responses strictly in request order; owns the socket close.
	// The durability gate lives here, not in the executor: waiting out a
	// group-commit fsync must overlap the execution of later ops, or the
	// fsync window would serialize the whole pipeline. A shard's records
	// become durable in order, so the tickets of one fsync after the first
	// cost one load each.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer c.Close()
		bw := bufio.NewWriter(c)
		broken := false
		for o := range respQ {
			<-o.done
			resp := o.resp
			if resp != nil {
				for _, tk := range o.tickets {
					if err := tk.Wait(); err != nil {
						// Applied in memory but not durable: refuse the ack.
						resp = serverError(err)
						break
					}
				}
			}
			if resp != nil && !broken {
				if _, err := bw.Write(resp); err != nil {
					// Client gone: keep draining respQ so the decoder
					// and executor never block on a dead writer.
					broken = true
				}
			}
			if len(respQ) == 0 && !broken {
				bw.Flush()
			}
			quit := o.quit
			recycle(o, pool)
			if quit {
				break
			}
		}
		bw.Flush()
		// Drain any remainder after quit/write failure.
		for o := range respQ {
			<-o.done
		}
		if s.connDone != nil {
			s.connDone(pool)
		}
	}()

	s.decodeLoop(c, execQ, respQ, pool)
	close(execQ)
	close(respQ)
}

// recycle returns a written op to the connection's pool with its
// per-request state cleared and its grown buffers kept.
//
//gotle:hotpath per-op recycle returns the op and its buffers to the pool
func recycle(o *op, pool *opPool) {
	o.data = nil
	o.resp = nil
	o.quit = false
	o.tickets = o.tickets[:0]
	pool.put(o)
}

// mutationResp renders one mutation's wire response from its BatchResult.
//
//gotle:hotpath per-op response selection for mutations
func mutationResp(o *op, r *kvstore.BatchResult) []byte {
	if r.Err != nil {
		// The protocol layer already enforced the key bound; an oversized
		// value is refused here.
		if r.Err == kvstore.ErrBadVal {
			return respTooBig
		}
		return serverError(r.Err)
	}
	switch o.cmd.Op {
	case OpSet, OpAdd, OpReplace, OpCas:
		switch r.Store {
		case kvstore.Stored:
			return respStored
		case kvstore.CASExists:
			return respExists
		case kvstore.CASNotFound:
			return respNotFound
		default:
			return respNotSt
		}
	case OpDelete:
		if r.Removed {
			return respDeleted
		}
		return respNotFound
	default: // OpIncr, OpDecr
		switch r.Incr {
		case kvstore.IncrStored:
			o.respB = strconv.AppendUint(o.respB[:0], r.NewVal, 10)
			o.respB = append(o.respB, '\r', '\n')
			return o.respB
		case kvstore.IncrNaN:
			return respNaN
		default:
			return respNotFound
		}
	}
}

// decodeLoop reads commands until EOF, error, quit, or drain. Each op is
// drawn from the connection pool; its line, data, and parsed command all
// live in op-owned buffers, so a warm connection decodes without
// allocating.
//
//gotle:hotpath per-connection decode loop; all steady-state work reuses op-owned buffers
func (s *Server) decodeLoop(c net.Conn, execQ, respQ chan *op, pool *opPool) {
	//gotle:allow hotalloc once per connection, not per op; the loop below reuses op-owned buffers
	br := bufio.NewReaderSize(c, 16<<10)
	var fields [][]byte
	for {
		o := pool.get()
		line, err := readLineInto(br, o.lineB[:0])
		if err != nil {
			recycle(o, pool)
			return
		}
		o.lineB = line
		fields = splitFields(line, fields[:0])
		perr := parseCommandFields(fields, &o.cmd)
		if perr == nil && o.cmd.Op.HasData() {
			need := o.cmd.Bytes + 2
			if cap(o.dataB) < need {
				o.dataB = make([]byte, need)
			}
			buf := o.dataB[:need]
			if _, err := io.ReadFull(br, buf); err != nil {
				recycle(o, pool)
				return
			}
			if buf[o.cmd.Bytes] != '\r' || buf[o.cmd.Bytes+1] != '\n' {
				perr = clientErr("bad data chunk")
			}
			o.data = buf[:o.cmd.Bytes]
		}
		if perr != nil {
			s.protoErrs.Add(1)
			var ce *ClientError
			if errors.As(perr, &ce) {
				o.resp = clientErrorResp(ce.Msg)
			} else {
				o.resp = respError
			}
			o.cmd.NoReply = false
			o.done <- struct{}{}
			respQ <- o
			continue
		}
		if o.cmd.Op == OpQuit {
			o.quit = true
			o.done <- struct{}{}
			respQ <- o
			return
		}
		// Admission control: never block the socket on a full queue.
		select {
		case execQ <- o:
			s.queued.Add(1)
		default:
			s.shedOps.Add(1)
			o.resolve(respBusy)
		}
		respQ <- o
	}
}

// readLineInto reads one CRLF (or bare LF) terminated line into dst,
// bounded by the reader's buffer size; over-long lines kill the
// connection. The copy out of bufio's reused window into the op-owned
// buffer is what lets parsed keys ride through the pipeline.
//
//gotle:hotpath per-request line read into a reused buffer
func readLineInto(br *bufio.Reader, dst []byte) ([]byte, error) {
	sl, err := br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	sl = sl[:len(sl)-1]
	if n := len(sl); n > 0 && sl[n-1] == '\r' {
		sl = sl[:n-1]
	}
	return append(dst, sl...), nil
}

// run executes one op on the connection's thread and renders its response:
// a static slice, or bytes in an op-owned buffer. A mutation is one section
// on its key's shard; its reply waits for the ticket of the shard sequence
// that section read, as a get's waits for each key's.
//
//gotle:hotpath per-op command dispatch; the serve-smoke gate measures the get and mutation shapes
func (s *Server) run(th *tm.Thread, o *op) []byte {
	cmd := &o.cmd
	switch cmd.Op {
	case OpSet, OpAdd, OpReplace, OpCas, OpDelete, OpIncr, OpDecr:
		// A follower's only writer is its replication stream.
		if s.cfg.ReadOnly {
			return respReadonly
		}
		if cmd.Op.HasData() {
			s.ops.Add(th.ID(), ctrCmdSet, 1)
		}
		// The seven mutating verbs are declared in BatchVerb's order.
		b := kvstore.BatchOp{Verb: kvstore.BatchVerb(cmd.Op - OpSet), Key: cmd.Key,
			Val: o.data, Flags: cmd.Flags, Cas: cmd.Cas, Delta: cmd.Delta}
		r, _ := s.store.Mutate(th, b) // r.Err carries any error
		o.tickets = append(o.tickets, r.Durable)
		return mutationResp(o, &r)

	case OpGet, OpGets:
		s.ops.Add(th.ID(), ctrCmdGet, uint64(len(cmd.Keys)))
		out := o.respB[:0]
		for _, k := range cmd.Keys {
			var it kvstore.Item
			var ok bool
			var err error
			o.valB, it, ok, err = s.store.GetItemAppend(th, k, o.valB[:0])
			if err != nil {
				return serverError(err)
			}
			o.tickets = append(o.tickets, it.Durable) // a miss is acked too
			if !ok {
				continue
			}
			out = append(out, "VALUE "...)
			out = append(out, k...)
			out = append(out, ' ')
			out = strconv.AppendUint(out, uint64(it.Flags), 10)
			out = append(out, ' ')
			out = strconv.AppendInt(out, int64(len(it.Value)), 10)
			if cmd.Op == OpGets {
				out = append(out, ' ')
				out = strconv.AppendUint(out, it.CAS, 10)
			}
			out = append(out, '\r', '\n')
			out = append(out, it.Value...)
			out = append(out, '\r', '\n')
		}
		out = append(out, respEnd...)
		o.respB = out
		return out

	case OpStats:
		return s.statsResponse(th)

	case OpShardDump:
		// Convergence checking: one shard's entries as a canonical sorted
		// blob, shaped like a get response ("VALUE shard:<i> 0 <len>") so
		// existing clients parse it. A read, so it works on followers.
		idx := cmd.Delta
		if idx >= uint64(s.store.ShardCount()) {
			return clientErrorResp("shard index out of range")
		}
		dump, err := s.store.DumpShard(th, int(idx))
		if err != nil {
			return serverError(err)
		}
		out := o.respB[:0]
		out = append(out, "VALUE shard:"...)
		out = strconv.AppendUint(out, idx, 10)
		out = append(out, " 0 "...)
		out = strconv.AppendInt(out, int64(len(dump)), 10)
		out = append(out, '\r', '\n')
		out = append(out, dump...)
		out = append(out, '\r', '\n')
		out = append(out, respEnd...)
		o.respB = out
		return out

	case OpVersion:
		o.respB = append(o.respB[:0], "VERSION "...)
		o.respB = append(o.respB, s.cfg.Version...)
		o.respB = append(o.respB, '\r', '\n')
		return o.respB

	default:
		return respError
	}
}

// clientErrorResp formats a malformed-request reply.
//
//gotle:coldpath error replies format a string; never on the measured path
func clientErrorResp(msg string) []byte {
	return []byte("CLIENT_ERROR " + msg + "\r\n")
}

//gotle:coldpath failed-durability replies format an error string; never on the measured path
func serverError(err error) []byte {
	return []byte("SERVER_ERROR " + err.Error() + "\r\n")
}

// statsResponse renders the stats command: cache counters, server gauges,
// the simulated heap's size, claimed and live bytes, and — when an adaptive
// controller is attached — per-shard policy, switch count and abort rates.
//
//gotle:coldpath stats rendering allocates freely by design
func (s *Server) statsResponse(th *tm.Thread) []byte {
	// The engine's counters as the command arrives, before its own reads of
	// the store; what happened before New (a recovery replay, one serial
	// section per 64 records) is not traffic.
	all := s.r.Engine().Snapshot()
	es := all.Sub(s.tm0)
	var b []byte
	stat := func(k, v string) {
		b = append(b, "STAT "...)
		b = append(b, k...)
		b = append(b, ' ')
		b = append(b, v...)
		b = append(b, '\r', '\n')
	}
	u := func(k string, v uint64) { stat(k, strconv.FormatUint(v, 10)) }

	u("cmd_get", s.ops.Sum(ctrCmdGet))
	u("cmd_set", s.ops.Sum(ctrCmdSet))
	ks, err := s.store.Stats(th)
	if err == nil {
		u("get_hits", ks.Hits)
		u("get_misses", ks.Gets-ks.Hits)
		u("evictions", ks.Evictions)
	}
	if n, err := s.store.Len(th); err == nil {
		u("curr_items", uint64(n))
	}
	u("curr_connections", uint64(s.currConns.Load()))
	u("total_connections", s.totalConns.Load())
	u("queue_depth", uint64(s.queued.Load()))
	u("shed_ops", s.shedOps.Load())
	u("shed_connections", s.shedConns.Load())
	u("protocol_errors", s.protoErrs.Load())

	// Engine-wide transaction counters: why are transactions aborting.
	// Conflict aborts lump every data-conflict cause (HTM conflict, STM
	// validation, STM encounter-time lock).
	u("tm_starts", es.Starts)
	u("tm_commits", es.Commits)
	u("tm_conflict_aborts", es.Aborts[stats.Conflict]+es.Aborts[stats.Validation]+es.Aborts[stats.Locked])
	u("tm_capacity_aborts", es.Aborts[stats.Capacity])
	u("tm_serial_runs", es.SerialRuns)
	u("quiesces", es.Quiesces)
	u("shared_grace", es.SharedGrace)
	u("reclaim_parked", all.ReclaimParked())

	// The simulated heap is mapped outside the Go heap, so only these show
	// it, and how close the bump pointer is to exhausting it.
	mem := s.r.Engine().Memory()
	u("heap_bytes", uint64(mem.Size())*8)
	u("heap_used_bytes", uint64(mem.Used())*8)
	u("heap_live_bytes", uint64(mem.LiveWords())*8)

	if l := s.cfg.WAL; l != nil {
		ws := l.Stats()
		u("wal_appends", ws.Appends)
		u("wal_fsyncs", ws.Fsyncs)
		u("wal_bytes", ws.Bytes)
		u("wal_segments", ws.Segments)
		u("wal_recovered", ws.Recovered)
		u("wal_base_records", ws.BaseRecords)
		u("wal_compactions", ws.Compactions)
		u("recover_us", uint64(s.store.RecoverTime().Microseconds()))
	}
	if cs := s.store.CommitStream(); cs != nil {
		released, parked := cs.Counts()
		u("commit_stream_released", released)
		u("commit_stream_parked", parked)
	}

	if xs := s.cfg.ExtraStats; xs != nil {
		for _, kv := range xs() {
			stat(kv[0], kv[1])
		}
	}

	if ctl := s.cfg.Controller; ctl != nil {
		sts := ctl.Status()
		sort.Slice(sts, func(i, j int) bool { return sts[i].Shard < sts[j].Shard })
		for _, st := range sts {
			p := fmt.Sprintf("shard%d_", st.Shard)
			stat(p+"policy", st.Policy.String())
			u(p+"switches", st.Switches)
			stat(p+"conflict_rate", fmt.Sprintf("%.4f", st.Window.Conflict))
			stat(p+"capacity_rate", fmt.Sprintf("%.4f", st.Window.Capacity))
			stat(p+"demote_capacity_rate", fmt.Sprintf("%.4f", st.Demoted.Capacity))
			stat(p+"serial_rate", fmt.Sprintf("%.4f", st.Window.Serial))
		}
	}
	return append(b, respEnd...)
}
