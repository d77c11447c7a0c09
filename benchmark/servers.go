package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gotle/internal/server/client"
)

// proc is one tleserved subprocess.
type proc struct {
	cmd      *exec.Cmd
	lines    chan string // stdout, line by line; closed at EOF
	addr     string      // from "listening on ..."
	replAddr string      // from "repl: streaming on ..."
}

// startServer executes the tleserved binary on an ephemeral port. The child
// dies with the driver (Pdeathsig), so an aborted run leaves nothing behind.
func startServer(bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{cmd: cmd, lines: make(chan string, 64)} // holds a whole start-up banner, so the reader never stalls the child
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			select {
			case p.lines <- sc.Text():
			default: // nobody is reading any more; keep draining the pipe
			}
		}
		close(p.lines)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// awaitLine consumes stdout until a line starting with prefix and returns
// the rest of that line's first field.
func (p *proc) awaitLine(prefix string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				return "", fmt.Errorf("tleserved exited before printing %q", prefix)
			}
			if rest, found := strings.CutPrefix(line, prefix); found {
				return strings.Fields(rest)[0], nil
			}
		case <-deadline:
			return "", fmt.Errorf("tleserved did not print %q within %v", prefix, timeout)
		}
	}
}

// awaitReady waits for the listening banner (and, with repl, the replication
// banner before it) and then for the first version reply.
func (p *proc) awaitReady(repl bool) error {
	const timeout = 60 * time.Second
	var err error
	if repl {
		if p.replAddr, err = p.awaitLine("repl: streaming on ", timeout); err != nil {
			return err
		}
	}
	if p.addr, err = p.awaitLine("listening on ", timeout); err != nil {
		return err
	}
	c, err := client.Dial(p.addr)
	if err != nil {
		return err
	}
	defer c.Close()
	_, err = c.Version()
	return err
}

// kill ends the process the way a crash would and reaps it.
func (p *proc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// serverStats fetches the stats map over a throwaway connection.
func serverStats(addr string) (map[string]string, error) {
	c, err := client.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	return c.Stats()
}

// sumShardStat adds up "shard<i>_<suffix>" over all shards present in st.
func sumShardStat(st map[string]string, suffix string) (total uint64) {
	for i := 0; ; i++ {
		v, ok := st["shard"+strconv.Itoa(i)+"_"+suffix]
		if !ok {
			return total
		}
		n, _ := strconv.ParseUint(v, 10, 64)
		total += n
	}
}

// pollUntil calls cond every 2 ms until it holds or the timeout passes.
func pollUntil(timeout time.Duration, cond func() (bool, error)) error {
	deadline := time.Now().Add(timeout)
	for {
		ok, err := cond()
		if err != nil {
			return err
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not met within %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
