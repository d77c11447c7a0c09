// Package client is a minimal pipelining memcached text-protocol client,
// used by the server tests, the chaos soak, and cmd/loadgen.
//
// Two usage styles:
//
//   - synchronous: Get/Set/Delete/... send one request, flush, and read
//     the response;
//   - pipelined: SendX queues requests on the socket buffer (Flush to
//     push), Recv reads responses in order. The client tracks the kind
//     of every outstanding request, so Recv knows how to parse each
//     reply. This is how the load generator keeps N requests in flight
//     per connection.
//
// Wire-level failures (broken socket, unparseable reply) come back as
// Go errors; protocol-level replies (NOT_STORED, SERVER_ERROR busy, …)
// come back in the Response so callers can count shed vs failed ops.
package client

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strconv"
	"time"
)

// Item is one retrieved entry.
type Item struct {
	Key   string
	Value []byte
	Flags uint32
	CAS   uint64
}

// Response is one parsed reply.
type Response struct {
	// Items holds retrieved entries (get/gets); absent keys are simply
	// missing.
	Items []Item
	// Status is the reply's first token for storage/delete/arithmetic
	// commands: "STORED", "NOT_STORED", "EXISTS", "NOT_FOUND",
	// "DELETED", or a number for incr/decr (see Value).
	Status string
	// Value is the post-arithmetic counter value when Status == "VALUE".
	Value uint64
	// Stats holds the stats command's key/value pairs.
	Stats map[string]string
	// Version holds the version reply.
	Version string
	// Err is the protocol error line, if the server replied ERROR,
	// CLIENT_ERROR or SERVER_ERROR ("SERVER_ERROR busy" = shed).
	Err string
}

// Busy reports whether the reply was an admission-control shed.
func (r Response) Busy() bool { return r.Err == "SERVER_ERROR busy" }

// Stored reports whether a storage command stored.
func (r Response) Stored() bool { return r.Status == "STORED" }

type kind int

const (
	kGet kind = iota
	kStore
	kDelete
	kIncr
	kStats
	kVersion
)

// Client is one connection. Not safe for concurrent use; pipelining is
// within one goroutine (one client per worker).
type Client struct {
	conn    net.Conn
	br      *bufio.Reader
	bw      *bufio.Writer
	pending []kind
	num     []byte   // scratch for integer formatting
	fields  [][]byte // scratch for reply-line splitting
}

// Dial connects.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 64<<10),
		bw:   bufio.NewWriterSize(conn, 64<<10),
	}, nil
}

// Close flushes and closes the connection.
func (c *Client) Close() error {
	c.bw.Flush()
	return c.conn.Close()
}

// Pending reports the number of in-flight pipelined requests.
func (c *Client) Pending() int { return len(c.pending) }

// Flush pushes queued requests to the server.
func (c *Client) Flush() error { return c.bw.Flush() }

// ---- pipelined senders ----

// SendGet queues a get (or gets, to retrieve CAS tokens) for keys.
func (c *Client) SendGet(withCas bool, keys ...string) error {
	verb := "get"
	if withCas {
		verb = "gets"
	}
	c.bw.WriteString(verb)
	for _, k := range keys {
		c.bw.WriteByte(' ')
		c.bw.WriteString(k)
	}
	_, err := c.bw.WriteString("\r\n")
	c.pending = append(c.pending, kGet)
	return err
}

// writeUint appends " <v>" to the request buffer without going through
// fmt — the sender is loadgen's per-op hot path, and on a loaded box the
// client's cycles come straight out of the server's.
func (c *Client) writeUint(v uint64) {
	c.num = strconv.AppendUint(c.num[:0], v, 10)
	c.bw.WriteByte(' ')
	c.bw.Write(c.num)
}

// SendStore queues set/add/replace/cas. verb is the wire verb; cas is
// ignored unless verb == "cas".
func (c *Client) SendStore(verb, key string, val []byte, flags uint32, cas uint64) error {
	c.bw.WriteString(verb)
	c.bw.WriteByte(' ')
	c.bw.WriteString(key)
	c.writeUint(uint64(flags))
	c.bw.WriteString(" 0")
	c.writeUint(uint64(len(val)))
	if verb == "cas" {
		c.writeUint(cas)
	}
	c.bw.WriteString("\r\n")
	c.bw.Write(val)
	_, err := c.bw.WriteString("\r\n")
	c.pending = append(c.pending, kStore)
	return err
}

// SendSet queues a set.
func (c *Client) SendSet(key string, val []byte, flags uint32) error {
	return c.SendStore("set", key, val, flags, 0)
}

// SendDelete queues a delete.
func (c *Client) SendDelete(key string) error {
	c.bw.WriteString("delete ")
	c.bw.WriteString(key)
	_, err := c.bw.WriteString("\r\n")
	c.pending = append(c.pending, kDelete)
	return err
}

// SendIncr queues incr (or decr) by delta.
func (c *Client) SendIncr(key string, delta uint64, decr bool) error {
	verb := "incr"
	if decr {
		verb = "decr"
	}
	c.bw.WriteString(verb)
	c.bw.WriteByte(' ')
	c.bw.WriteString(key)
	c.writeUint(delta)
	_, err := c.bw.WriteString("\r\n")
	c.pending = append(c.pending, kIncr)
	return err
}

// SendStats queues a stats request.
func (c *Client) SendStats() error {
	_, err := c.bw.WriteString("stats\r\n")
	c.pending = append(c.pending, kStats)
	return err
}

// SendVersion queues a version request.
func (c *Client) SendVersion() error {
	_, err := c.bw.WriteString("version\r\n")
	c.pending = append(c.pending, kVersion)
	return err
}

// Recv reads the next pipelined response (flushing first if requests are
// still buffered).
func (c *Client) Recv() (Response, error) {
	if len(c.pending) == 0 {
		return Response{}, fmt.Errorf("client: Recv with no request in flight")
	}
	if err := c.bw.Flush(); err != nil {
		return Response{}, err
	}
	k := c.pending[0]
	c.pending = c.pending[1:]
	switch k {
	case kGet:
		return c.recvGet()
	case kStats:
		return c.recvStats()
	default:
		return c.recvLine(k)
	}
}

// ---- synchronous conveniences ----

// ShardDump fetches shard i's canonical dump blob (sorted entries; see
// kvstore.DumpShard) for convergence checking. The reply is shaped like a
// get response, so it reuses the get parser.
func (c *Client) ShardDump(i int) ([]byte, error) {
	c.bw.WriteString("sharddump")
	c.writeUint(uint64(i))
	if _, err := c.bw.WriteString("\r\n"); err != nil {
		return nil, err
	}
	c.pending = append(c.pending, kGet)
	r, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if r.Err != "" {
		return nil, fmt.Errorf("client: sharddump: %s", r.Err)
	}
	if len(r.Items) != 1 {
		return nil, fmt.Errorf("client: sharddump: %d items in reply", len(r.Items))
	}
	return r.Items[0].Value, nil
}

// Get retrieves one key.
func (c *Client) Get(key string) (Item, bool, error) {
	if err := c.SendGet(false, key); err != nil {
		return Item{}, false, err
	}
	r, err := c.Recv()
	if err != nil {
		return Item{}, false, err
	}
	if r.Err != "" {
		return Item{}, false, fmt.Errorf("client: get: %s", r.Err)
	}
	if len(r.Items) == 0 {
		return Item{}, false, nil
	}
	return r.Items[0], true, nil
}

// Gets retrieves keys with CAS tokens.
func (c *Client) Gets(keys ...string) ([]Item, error) {
	if err := c.SendGet(true, keys...); err != nil {
		return nil, err
	}
	r, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if r.Err != "" {
		return nil, fmt.Errorf("client: gets: %s", r.Err)
	}
	return r.Items, nil
}

// Set stores key.
func (c *Client) Set(key string, val []byte, flags uint32) error {
	if err := c.SendSet(key, val, flags); err != nil {
		return err
	}
	r, err := c.Recv()
	if err != nil {
		return err
	}
	if !r.Stored() {
		return fmt.Errorf("client: set %q: %s%s", key, r.Status, r.Err)
	}
	return nil
}

// Store runs one storage verb synchronously and returns the reply.
func (c *Client) Store(verb, key string, val []byte, flags uint32, cas uint64) (Response, error) {
	if err := c.SendStore(verb, key, val, flags, cas); err != nil {
		return Response{}, err
	}
	return c.Recv()
}

// Delete removes key; reports whether it existed.
func (c *Client) Delete(key string) (bool, error) {
	if err := c.SendDelete(key); err != nil {
		return false, err
	}
	r, err := c.Recv()
	if err != nil {
		return false, err
	}
	if r.Err != "" {
		return false, fmt.Errorf("client: delete: %s", r.Err)
	}
	return r.Status == "DELETED", nil
}

// Incr adjusts a counter; ok is false on NOT_FOUND or non-numeric values.
func (c *Client) Incr(key string, delta uint64, decr bool) (v uint64, ok bool, err error) {
	if err := c.SendIncr(key, delta, decr); err != nil {
		return 0, false, err
	}
	r, err := c.Recv()
	if err != nil {
		return 0, false, err
	}
	return r.Value, r.Status == "VALUE", nil
}

// Stats fetches the stats map.
func (c *Client) Stats() (map[string]string, error) {
	if err := c.SendStats(); err != nil {
		return nil, err
	}
	r, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if r.Err != "" {
		return nil, fmt.Errorf("client: stats: %s", r.Err)
	}
	return r.Stats, nil
}

// StatsAt fetches addr's stats map over a throwaway connection.
func StatsAt(addr string) (map[string]string, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Stats()
}

// CounterAt fetches one numeric stats field of addr. A field the server
// does not report is an error, not 0, so a renamed stat cannot pass a
// check unnoticed.
func CounterAt(addr, field string) (uint64, error) {
	st, err := StatsAt(addr)
	if err != nil {
		return 0, err
	}
	v, ok := st[field]
	if !ok {
		return 0, fmt.Errorf("client: stats field %q absent", field)
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("client: stats field %q = %q: %w", field, v, err)
	}
	return n, nil
}

// Version fetches the server version string.
func (c *Client) Version() (string, error) {
	if err := c.SendVersion(); err != nil {
		return "", err
	}
	r, err := c.Recv()
	if err != nil {
		return "", err
	}
	if r.Err != "" {
		return "", fmt.Errorf("client: version: %s", r.Err)
	}
	return r.Version, nil
}

// ---- response parsing ----

func (c *Client) readLine() ([]byte, error) {
	sl, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	sl = sl[:len(sl)-1]
	if n := len(sl); n > 0 && sl[n-1] == '\r' {
		sl = sl[:n-1]
	}
	return sl, nil
}

// errLine recognizes the three protocol error shapes.
func errLine(line []byte) (string, bool) {
	if bytes.Equal(line, []byte("ERROR")) ||
		bytes.HasPrefix(line, []byte("CLIENT_ERROR")) ||
		bytes.HasPrefix(line, []byte("SERVER_ERROR")) {
		return string(line), true
	}
	return "", false
}

// parseUint parses a decimal without converting to string first (the
// strconv.ParseUint(string(b), ...) idiom allocates on every reply).
func parseUint(b []byte) (uint64, bool) {
	if len(b) == 0 || len(b) > 20 {
		return 0, false
	}
	var v uint64
	for _, ch := range b {
		if ch < '0' || ch > '9' {
			return 0, false
		}
		nv := v*10 + uint64(ch-'0')
		if nv < v {
			return 0, false
		}
		v = nv
	}
	return v, true
}

// splitFields splits line on single spaces into the reused dst (server
// replies never use other whitespace or runs of separators).
func splitFields(line []byte, dst [][]byte) [][]byte {
	dst = dst[:0]
	for i := 0; i < len(line); {
		for i < len(line) && line[i] == ' ' {
			i++
		}
		if i >= len(line) {
			break
		}
		j := i
		for j < len(line) && line[j] != ' ' {
			j++
		}
		dst = append(dst, line[i:j])
		i = j
	}
	return dst
}

func (c *Client) recvGet() (Response, error) {
	var r Response
	for {
		line, err := c.readLine()
		if err != nil {
			return r, err
		}
		if bytes.Equal(line, []byte("END")) {
			return r, nil
		}
		if msg, isErr := errLine(line); isErr {
			r.Err = msg
			return r, nil
		}
		c.fields = splitFields(line, c.fields)
		f := c.fields
		if len(f) < 4 || !bytes.Equal(f[0], []byte("VALUE")) {
			return r, fmt.Errorf("client: bad get reply line %q", line)
		}
		flags, ok1 := parseUint(f[2])
		n, ok2 := parseUint(f[3])
		if !ok1 || !ok2 || flags > 1<<32-1 {
			return r, fmt.Errorf("client: bad get reply line %q", line)
		}
		it := Item{Key: string(f[1]), Flags: uint32(flags)}
		if len(f) >= 5 {
			cas, ok := parseUint(f[4])
			if !ok {
				return r, fmt.Errorf("client: bad cas in %q", line)
			}
			it.CAS = cas
		}
		buf := make([]byte, n+2)
		if _, err := readFull(c.br, buf); err != nil {
			return r, err
		}
		it.Value = buf[:n]
		r.Items = append(r.Items, it)
	}
}

func (c *Client) recvLine(k kind) (Response, error) {
	line, err := c.readLine()
	if err != nil {
		return Response{}, err
	}
	var r Response
	if msg, isErr := errLine(line); isErr {
		r.Err = msg
		return r, nil
	}
	if k == kIncr {
		if v, ok := parseUint(line); ok {
			r.Status = "VALUE"
			r.Value = v
			return r, nil
		}
	}
	if k == kVersion && bytes.HasPrefix(line, []byte("VERSION ")) {
		r.Version = string(line[len("VERSION "):])
		return r, nil
	}
	// Intern the fixed status vocabulary (a string(line) conversion in a
	// switch does not allocate) so ack-heavy pipelines stay alloc-free.
	switch string(line) {
	case "STORED":
		r.Status = "STORED"
	case "NOT_STORED":
		r.Status = "NOT_STORED"
	case "EXISTS":
		r.Status = "EXISTS"
	case "NOT_FOUND":
		r.Status = "NOT_FOUND"
	case "DELETED":
		r.Status = "DELETED"
	default:
		r.Status = string(line)
	}
	return r, nil
}

func (c *Client) recvStats() (Response, error) {
	r := Response{Stats: make(map[string]string)}
	for {
		line, err := c.readLine()
		if err != nil {
			return r, err
		}
		if bytes.Equal(line, []byte("END")) {
			return r, nil
		}
		if msg, isErr := errLine(line); isErr {
			r.Err = msg
			return r, nil
		}
		if bytes.HasPrefix(line, []byte("VERSION ")) {
			// version replies also land here if pipelined oddly; ignore.
			continue
		}
		f := bytes.SplitN(line, []byte(" "), 3)
		if len(f) == 3 && bytes.Equal(f[0], []byte("STAT")) {
			r.Stats[string(f[1])] = string(f[2])
		}
	}
}

func readFull(br *bufio.Reader, buf []byte) (int, error) {
	total := 0
	for total < len(buf) {
		n, err := br.Read(buf[total:])
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}
