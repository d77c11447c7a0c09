package server

import (
	"testing"
	"time"

	"gotle/internal/kvstore"
	"gotle/internal/tle"
	"gotle/internal/wal"
)

// TestReplyWaitsForWhatItRead holds every fsync back by a 300 ms window.
// Connection A writes k and its record reaches the log; connection B then
// asks about k and writes nothing. B's reply must not arrive before A's
// record is fsynced: B's section observed it, so a crash that lost it would
// contradict B's answer.
func TestReplyWaitsForWhatItRead(t *testing.T) {
	const setK, delK = "set k 0 0 1\r\nv\r\n", "delete k\r\n"
	cases := []struct {
		name, a, aReply, b, bReply string
	}{
		{"get-hit", setK, "STORED", "get k\r\n", "VALUE k 0 1"},
		{"get-miss", delK, "DELETED", "get k\r\n", "END"},
		{"delete-not-found", delK, "DELETED", delK, "NOT_FOUND"},
		{"add-not-stored", setK, "STORED", "add k 0 0 1\r\nw\r\n", "NOT_STORED"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			r := tle.New(tle.PolicySTMCondVar, tle.Config{MemWords: 1 << 20})
			store := kvstore.New(r, kvstore.Config{Shards: 4})
			l, err := wal.Open(t.TempDir(), store.ShardCount(), wal.Options{FsyncWindow: 300 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			th := r.NewThread()
			if _, err := store.Recover(th, l); err != nil {
				t.Fatal(err)
			}
			th.Release()
			if err := store.AttachWAL(l); err != nil {
				t.Fatal(err)
			}
			srv := New(r, store, Config{WAL: l})
			addr, err := srv.Start()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				srv.Shutdown(5 * time.Second)
				l.Close()
			})
			sh := store.ShardFor([]byte("k"))

			ca, ra := dialRaw(t, addr.String())
			if _, err := ca.Write([]byte(setK)); err != nil { // k present and durable
				t.Fatal(err)
			}
			if got := readReply(t, ra); got != "STORED" {
				t.Fatalf("seed set = %q", got)
			}
			target := l.Durable(sh) + 1 // A's record
			appends := l.Stats().Appends
			if _, err := ca.Write([]byte(tc.a)); err != nil {
				t.Fatal(err)
			}
			for l.Stats().Appends == appends {
				time.Sleep(100 * time.Microsecond) // A has committed once its record is logged
			}

			cb, rb := dialRaw(t, addr.String())
			if _, err := cb.Write([]byte(tc.b)); err != nil {
				t.Fatal(err)
			}
			if got := readReply(t, rb); got != tc.bReply {
				t.Fatalf("B's reply = %q, want %q", got, tc.bReply)
			}
			if d := l.Durable(sh); d < target {
				t.Fatalf("B's reply arrived with shard %d durable to %d; A's record %d was not yet fsynced", sh, d, target)
			}
			if got := readReply(t, ra); got != tc.aReply {
				t.Fatalf("A's reply = %q, want %q", got, tc.aReply)
			}
		})
	}
}
