package harness

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rcep/internal/wire"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// Linux fixes it at 100 for user space.
const clockTicks = 100

// feedBuffer is the feeder's unacked ring (the ReliableClient default): in
// the closed loop it is the only limit on how far ahead the feed runs.
const feedBuffer = 1024

// server is one benchserver process.
type server struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string // the process's standard output, line by line
	addr  string
}

// startServer launches the server binary for a workload and waits until
// it listens.
func startServer(bin, workload, stamps string) (*server, error) {
	args := []string{"-workload", workload}
	if stamps != "" {
		args = append(args, "-stamps", stamps)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	// The server must not outlive the generator, however it exits.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	s := &server{cmd: cmd, stdin: stdin, lines: make(chan string, 4)}
	go func() {
		defer close(s.lines)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			s.lines <- sc.Text()
		}
	}()
	select {
	case line, ok := <-s.lines:
		if addr, found := strings.CutPrefix(line, "listening "); ok && found {
			s.addr = addr
			return s, nil
		}
		s.kill()
		return nil, fmt.Errorf("server did not start (first output %q)", line)
	case <-time.After(60 * time.Second):
		s.kill()
		return nil, fmt.Errorf("server did not listen within 60s")
	}
}

// stop closes the server's standard input, which drains and stops it, and
// returns the rule action error count it reports on the way out.
func (s *server) stop() (actionErrors int, err error) {
	s.stdin.Close()
	var last string
	timeout := time.After(60 * time.Second)
	for done := false; !done; {
		select {
		case line, ok := <-s.lines:
			if !ok {
				done = true
				break
			}
			last = line
		case <-timeout:
			s.kill()
			return 0, fmt.Errorf("server did not stop within 60s")
		}
	}
	if err := s.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("server exit: %w", err)
	}
	var fin struct {
		ActionErrors int `json:"action_errors"`
	}
	if err := json.Unmarshal([]byte(last), &fin); err != nil {
		return 0, fmt.Errorf("server final line %q: %w", last, err)
	}
	return fin.ActionErrors, nil
}

// kill stops the process without a drain and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	_ = s.cmd.Wait()
}

// cpu returns the process's user+system CPU time so far.
func (s *server) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS returns the process's peak resident set size (VmHWM) in MB.
func (s *server) peakRSS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// countingConn counts the bytes the feeder writes (the server's bytes in)
// and reads (its bytes out).
type countingConn struct {
	net.Conn
	in, out *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.in.Add(int64(n))
	return n, err
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.out.Add(int64(n))
	return n, err
}

// session is one server with its two connections: the reliable feeder and
// the subscriber, which also issues the dashboard queries.
type session struct {
	srv  *server
	feed *wire.ReliableClient
	sub  *wire.Client

	bytesIn, bytesOut atomic.Int64
	errorFrames       atomic.Int64

	// onFeedFire, when set, sees every fire frame on the feeder's
	// connection together with the feeder's cumulative ack at that moment.
	onFeedFire func(m wire.Message, acked uint64)

	mu      sync.Mutex
	subRecv []int64 // Unix ns receipt time of each subscriber fire
}

// openSession starts a server and connects both clients. It returns the
// set-up time: process start to a feeder that has negotiated batch frames.
func openSession(bin, workload, stamps string, onFeedFire func(wire.Message, uint64)) (*session, time.Duration, error) {
	t0 := time.Now()
	srv, err := startServer(bin, workload, stamps)
	if err != nil {
		return nil, 0, err
	}
	s := &session{srv: srv, onFeedFire: onFeedFire}
	s.sub, err = wire.Dial(srv.addr)
	if err != nil {
		srv.kill()
		return nil, 0, fmt.Errorf("dial subscriber: %w", err)
	}
	s.sub.OnFire = func(wire.Message) {
		now := time.Now().UnixNano()
		s.mu.Lock()
		s.subRecv = append(s.subRecv, now)
		s.mu.Unlock()
	}
	// A status round trip proves the subscriber is registered for
	// broadcasts before the first observation is sent.
	if _, err := s.sub.Status(); err != nil {
		srv.kill()
		return nil, 0, fmt.Errorf("subscriber status: %w", err)
	}
	s.feed, err = wire.DialReliable(srv.addr, wire.ReliableOptions{
		ClientID: "perfbench-feed",
		Buffer:   feedBuffer,
		Dial: func() (net.Conn, error) {
			c, err := net.DialTimeout("tcp", srv.addr, 5*time.Second)
			if err != nil {
				return nil, err
			}
			return countingConn{Conn: c, in: &s.bytesIn, out: &s.bytesOut}, nil
		},
		OnFire: func(m wire.Message) {
			if s.onFeedFire != nil {
				s.onFeedFire(m, s.feed.Acked())
			}
		},
		OnFrame: func(m wire.Message) {
			if m.Type == "error" {
				s.errorFrames.Add(1)
			}
		},
	})
	if err != nil {
		srv.kill()
		return nil, 0, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for !s.feed.BatchNegotiated() {
		if time.Now().After(deadline) {
			s.feed.Abort()
			srv.kill()
			return nil, 0, fmt.Errorf("feeder did not negotiate batch frames within 30s")
		}
		time.Sleep(50 * time.Microsecond)
	}
	return s, time.Since(t0), nil
}

// subscriberFires returns how many fires the subscriber has received.
func (s *session) subscriberFires() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subRecv)
}

// closeStats is what closing a session reports.
type closeStats struct {
	detections   uint64 // the server's detection count from the feeder's bye
	reconnects   int
	shed         uint64
	actionErrors int
}

// close ends both feeds with bye and stops the server.
func (s *session) close() (closeStats, error) {
	var cs closeStats
	stats, ferr := s.feed.Close()
	cs.detections = stats.Detections
	cs.reconnects = s.feed.Reconnects()
	cs.shed = s.feed.Shed()
	_, serr := s.sub.Close()
	ae, err := s.srv.stop()
	cs.actionErrors = ae
	switch {
	case ferr != nil:
		return cs, fmt.Errorf("close feeder: %w", ferr)
	case serr != nil:
		return cs, fmt.Errorf("close subscriber: %w", serr)
	}
	return cs, err
}

// abort tears a session down after a failure.
func (s *session) abort() {
	s.feed.Abort()
	s.sub.Close()
	s.srv.kill()
}
