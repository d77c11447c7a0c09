package client_test

import (
	"strings"
	"testing"
	"time"

	"gotle/internal/kvstore"
	"gotle/internal/server"
	"gotle/internal/server/client"
	"gotle/internal/tle"
)

// TestCounterAt: a field the server reports reads as its number, and a
// field it does not report, or one that is not a number, is an error.
func TestCounterAt(t *testing.T) {
	r := tle.New(tle.PolicyPthread, tle.Config{MemWords: 1 << 18})
	srv := server.New(r, kvstore.New(r, kvstore.Config{Shards: 2}), server.Config{
		ExtraStats: func() [][2]string { return [][2]string{{"role", "primary"}} },
	})
	a, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(5 * time.Second)
	addr := a.String()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Set("k", []byte("v"), 0); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if n, err := client.CounterAt(addr, "cmd_set"); err != nil || n != 1 {
		t.Fatalf("cmd_set = %d, %v; want 1", n, err)
	}
	if n, err := client.CounterAt(addr, "no_such_field"); err == nil || !strings.Contains(err.Error(), "absent") {
		t.Fatalf("absent field = %d, %v; want an error", n, err)
	}
	if n, err := client.CounterAt(addr, "role"); err == nil {
		t.Fatalf("non-numeric field = %d, nil; want an error", n)
	}
}
