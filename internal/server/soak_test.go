package server

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"gotle/internal/adaptive"
	"gotle/internal/chaos"
	"gotle/internal/harness"
	"gotle/internal/htm"
	"gotle/internal/kvstore"
	"gotle/internal/linearize"
	"gotle/internal/server/client"
	"gotle/internal/tle"
)

// TestSoakChaosLiveServer is the network analogue of the harness chaos
// suite: a live tleserved pipeline (decoder/executor/writer per
// connection) over a hybrid runtime with the light fault mix injected —
// forced STM validation failures, lock stalls, HTM conflict/capacity
// aborts, epoch stalls and spurious serial entries — while the adaptive
// controller concurrently demotes shards underneath the traffic, each at
// most once.
// Every get/set/delete from every client is recorded with a Wing-Gong
// recorder and the per-key histories must linearize: no fault or policy
// swap may surface as a torn value, lost write, or stale read.
//
// Ops the server sheds at admission are rejected before any TLE critical
// section runs, so they provably did not execute and are excluded from
// the history (left un-Completed).
func TestSoakChaosLiveServer(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	rates, err := harness.MixRates(harness.FaultsLight)
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(chaos.Config{Seed: 7, Rates: rates})
	r := tle.New(tle.PolicyHTMCondVar, tle.Config{
		MemWords:      1 << 22,
		Hybrid:        true,
		Observe:       true,
		FaultInjector: inj,
		// A 32-line write budget (2 KiB) makes the large values below
		// overflow HTM capacity for real, on top of the injected faults.
		HTM: htm.Config{Seed: 7, WriteCapacityLines: 32, EventAbortPerMillion: 500},
	})
	// Working set (16 keys) stays far below capacity: no evictions, so
	// per-key linearizability checking is sound (linearize.KVModel).
	store := kvstore.New(r, kvstore.Config{Shards: 4, MaxItemsPerShard: 1024})
	ctl, err := adaptive.New(r, store.ShardMutexes(), adaptive.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// The controller ticks on work, not on a clock: one window per 512
	// engine attempts keeps every shard's windows busy at any speed, the
	// race detector's included.
	stopTicks, ticksDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ticksDone)
		poll := time.NewTicker(time.Millisecond)
		defer poll.Stop()
		var last uint64
		for {
			select {
			case <-stopTicks:
				return
			case <-poll.C:
			}
			if n := r.Engine().Snapshot().Starts; n >= last+512 {
				ctl.Tick()
				last = n
			}
		}
	}()
	stopTicking := sync.OnceFunc(func() { close(stopTicks); <-ticksDone })
	defer stopTicking()

	srv := New(r, store, Config{QueueDepth: 32, Controller: ctl})
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(5 * time.Second)

	const (
		clients = 6
		keys    = 16
		opsEach = 1200
		depth   = 4
	)
	rec := linearize.NewRecorder()
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		go func(w int) {
			errs <- soakClient(addr.String(), w, keys, opsEach, depth, rec)
		}(w)
	}
	for i := 0; i < clients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	th := r.NewThread()
	cs, err := store.Stats(th)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Evictions != 0 {
		t.Fatalf("soak evicted %d items; the KV model assumes none", cs.Evictions)
	}
	hist := rec.History()
	if len(hist) < clients*opsEach/2 {
		t.Fatalf("only %d completed ops recorded, expected near %d", len(hist), clients*opsEach)
	}
	res := linearize.Check(linearize.KVModel{}, hist)
	if !res.OK {
		t.Fatalf("history not linearizable: %s\nviolation: %+v", res.Explanation, res.Violation)
	}
	stopTicking()
	var switches uint64
	for _, st := range ctl.Status() {
		switches += st.Switches
		if st.Policy != tle.PolicyHTMCondVar && st.Policy != tle.PolicySTMCondVarNoQ {
			t.Fatalf("shard %d ended on %s, not a rung", st.Shard, st.Policy)
		}
		if st.Switches > 1 {
			t.Fatalf("shard %d switched %d times: a demotion is for good", st.Shard, st.Switches)
		}
	}
	if switches == 0 {
		t.Fatal("the controller swapped no policy under the checked history")
	}
	t.Logf("soak: %d ops linearizable; injector=%s; tm=%s", res.Checked, inj, r.Engine().Snapshot())
}

// soakClient runs one pipelined connection worth of recorded traffic.
func soakClient(addr string, w, keys, ops, depth int, rec *linearize.Recorder) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()

	type pending struct {
		kind string
		id   int
	}
	var inflight []pending
	seq := 0
	recvOne := func() error {
		p := inflight[0]
		inflight = inflight[1:]
		rsp, err := c.Recv()
		if err != nil {
			return fmt.Errorf("client %d: recv: %w", w, err)
		}
		if rsp.Busy() {
			return nil // shed at admission: never ran, never Completed
		}
		if rsp.Err != "" {
			return fmt.Errorf("client %d: protocol error %q", w, rsp.Err)
		}
		switch p.kind {
		case "get":
			if len(rsp.Items) > 0 {
				rec.Complete(p.id, string(rsp.Items[0].Value), true)
			} else {
				rec.Complete(p.id, "", false)
			}
		case "set":
			rec.Complete(p.id, nil, true)
		case "delete":
			rec.Complete(p.id, nil, rsp.Status == "DELETED")
		}
		return nil
	}

	for sent := 0; sent < ops || len(inflight) > 0; {
		if sent < ops && len(inflight) < depth {
			key := fmt.Sprintf("soak%d", (w*31+sent*7)%keys)
			var p pending
			var err error
			switch sent % 10 {
			case 0, 1, 2: // 30% sets, half of them HTM-capacity-busting
				seq++
				val := fmt.Sprintf("w%d.s%d.", w, seq)
				if sent%2 == 0 {
					val += string(make([]byte, 1800))
				}
				p = pending{"set", rec.Invoke(w, "set", key, val)}
				err = c.SendSet(key, []byte(val), 0)
			case 3: // 10% deletes
				p = pending{"delete", rec.Invoke(w, "delete", key, nil)}
				err = c.SendDelete(key)
			default: // 60% gets
				p = pending{"get", rec.Invoke(w, "get", key, nil)}
				err = c.SendGet(false, key)
			}
			if err != nil {
				return fmt.Errorf("client %d: send: %w", w, err)
			}
			inflight = append(inflight, p)
			sent++
			continue
		}
		if err := recvOne(); err != nil {
			return err
		}
	}
	return nil
}
