package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	osexec "os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is one running planserverd process.
type serverProc struct {
	cmd  *osexec.Cmd
	addr string
	logs bytes.Buffer // read only once done is closed
	done chan struct{}
}

// startServer spawns planserverd with its default flags, listening on
// a free loopback port.
func startServer(bin string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	s := &serverProc{addr: addr, done: make(chan struct{})}
	s.cmd = osexec.Command(bin, "-addr", addr)
	s.cmd.Stdout = &s.logs
	s.cmd.Stderr = &s.logs
	// The server dies with the benchmark, even if the benchmark is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed server says nothing
		close(s.done)
	}()
	return s, nil
}

func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// stop kills the process and waits until it has exited.
func (s *serverProc) stop() {
	_ = s.cmd.Process.Kill() // fails only if it has exited already
	<-s.done
}

// exited reports whether the process has ended on its own.
func (s *serverProc) exited() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func (s *serverProc) peakRSSMiB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// coldStart spawns a server and sends it rq until it answers: set-up
// time runs from the spawn to the first correct answer, which for
// /execute includes generating the dataset on first use. The returned
// client holds the connection the answer came on.
func coldStart(bin string, w *workload, rq request) (*serverProc, *client, time.Duration, error) {
	begin := time.Now()
	s, err := startServer(bin)
	if err != nil {
		return nil, nil, 0, err
	}
	c := newClient(s.addr)
	for {
		r, err := c.do(w.Path, rq.payload, w.Stream)
		if err == nil {
			d := time.Since(begin)
			if err := w.check(rq, r); err != nil {
				c.close()
				s.stop()
				return nil, nil, 0, fmt.Errorf("cold start: %w", err)
			}
			return s, c, d, nil
		}
		if s.exited() || time.Since(begin) > 60*time.Second {
			c.close()
			s.stop()
			return nil, nil, 0, fmt.Errorf("planserverd did not answer: %v; log: %s", err, s.logs.String())
		}
		time.Sleep(250 * time.Microsecond)
	}
}
