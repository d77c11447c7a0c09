package server

import (
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"unsafe"

	"gotle/internal/server/client"
	"gotle/internal/wal"
)

// pipeline sends n requests on one connection, closed-loop at depth:
// send(c, i) queues request i, and each reply that comes back lets the
// next request go out. It closes the connection once every reply is in.
func pipeline(tb testing.TB, addr string, n, depth int, send func(c *client.Client, i int) error) {
	tb.Helper()
	c, err := client.Dial(addr)
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	recv := func() {
		r, err := c.Recv()
		if err != nil {
			tb.Fatal(err)
		}
		if r.Err != "" {
			tb.Fatalf("reply %q", r.Err)
		}
	}
	for i := 0; i < n; i++ {
		if c.Pending() == depth {
			recv()
		}
		if err := send(c, i); err != nil {
			tb.Fatal(err)
		}
	}
	for c.Pending() > 0 {
		recv()
	}
}

// poolFootprint walks a closed connection's stack: the ops on it, how many
// of them grew a value block, and the bytes the ops and their buffers hold.
func poolFootprint(p *opPool) (ops, grown, bytes int) {
	for o := p.top; o != nil; o = o.next {
		ops++
		if cap(o.dataB) > 0 {
			grown++
		}
		bytes += int(unsafe.Sizeof(*o)) + cap(o.lineB) + cap(o.dataB) + cap(o.respB) + cap(o.valB) +
			cap(o.tickets)*int(unsafe.Sizeof(wal.Ticket{})) + cap(o.cmd.Keys)*int(unsafe.Sizeof([]byte(nil)))
	}
	return ops, grown, bytes
}

// TestConnOpsFollowInFlight pins that a connection's ops, and the value
// buffers they grow, follow the requests it has in flight, not its queue
// bound: thousands of pipelined 2 KiB sets at depth 8 must leave about
// eight ops behind, every one of them back on the stack.
func TestConnOpsFollowInFlight(t *testing.T) {
	const depth, n, slack = 8, 4000, 4
	pools := make(chan *opPool, 1)
	_, addr := startServerWith(t, Config{}, func(p *opPool) { pools <- p })
	val := make([]byte, 2048)
	pipeline(t, addr, n, depth, func(c *client.Client, i int) error {
		return c.SendSet(fmt.Sprintf("fk%d", i%512), val, 0)
	})
	p := <-pools
	ops, grown, _ := poolFootprint(p)
	t.Logf("%d sets at depth %d: %d ops made, %d grew a value block", n, depth, p.made, grown)
	if ops != p.made {
		t.Fatalf("%d ops made but %d back on the stack", p.made, ops)
	}
	if p.made > depth+slack || grown > depth+slack {
		t.Fatalf("%d ops made and %d grew a value block for %d in flight", p.made, grown, depth)
	}
	if grown == 0 {
		t.Fatal("no op grew a value block: the walk saw none of the sets")
	}
}

// BenchmarkConnFootprint reports what one connection holds once its
// requests are done: 10 000 closed-loop ops at depth 32 on random keys, six
// sets in ten and the rest gets, each key's value 64 B or 2 KiB. B/conn is
// the bytes its ops and their buffers hold, ops/conn how many it made.
func BenchmarkConnFootprint(b *testing.B) {
	const depth, n, keys = 32, 10000, 1024
	pools := make(chan *opPool, 1)
	_, addr := startServerWith(b, Config{}, func(p *opPool) { pools <- p })
	small, large := make([]byte, 64), make([]byte, 2048)
	var made, held int
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		pipeline(b, addr, n, depth, func(c *client.Client, _ int) error {
			k := rng.Intn(keys)
			key := "fp" + strconv.Itoa(k)
			if rng.Intn(10) >= 6 {
				return c.SendGet(false, key)
			}
			if k%2 == 0 {
				return c.SendSet(key, small, 0)
			}
			return c.SendSet(key, large, 0)
		})
		p := <-pools
		_, _, bytes := poolFootprint(p)
		made += p.made
		held += bytes
	}
	b.ReportMetric(float64(held)/float64(b.N), "B/conn")
	b.ReportMetric(float64(made)/float64(b.N), "ops/conn")
}
