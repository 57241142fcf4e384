// Command benchserver is the system under test of the end-to-end
// benchmark: a wire.Server loaded the way rcepd loads one — rule script,
// reader groups, type registry and no-op send_alarm/mark_duplicate
// procedures — for one of the benchmark's workloads. It exists because
// rcepd cannot take reader groups, which the loc rules need.
//
// It prints "listening <addr>" once it accepts connections and serves
// until its standard input closes. Then it drains the connections and
// prints one JSON line with the rule action error count. With -stamps it
// also records the wall-clock time of every detection and writes them,
// as little-endian int64 Unix nanoseconds, to that file on exit.
package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"rcep"
	"rcep/internal/wire"
	"rcep/perfbench/workload"
)

func main() {
	var (
		name   = flag.String("workload", "", "workload name (required)")
		listen = flag.String("listen", "127.0.0.1:0", "listen address")
		stamps = flag.String("stamps", "", "write detection wall-clock stamps to this file on exit")
	)
	flag.Parse()
	spec, err := workload.Lookup(*name)
	if err != nil {
		log.Fatal(err)
	}
	cfg := spec.EngineConfig()
	var (
		mu  sync.Mutex
		ats []int64
	)
	if *stamps != "" {
		cfg.OnDetection = func(rcep.Detection) {
			now := time.Now().UnixNano()
			mu.Lock()
			ats = append(ats, now)
			mu.Unlock()
		}
	}
	srv, err := wire.NewServer(cfg)
	if err != nil {
		log.Fatal(err)
	}
	workload.RegisterProcs(srv.Engine())
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("listening %s\n", l.Addr())

	// The load generator owns this process: it closes standard input to
	// stop it, and a generator that dies closes it too.
	go func() {
		_, _ = io.Copy(io.Discard, os.Stdin)
		l.Close()
	}()
	if err := srv.Serve(l); err != nil && !errors.Is(err, net.ErrClosed) {
		log.Fatal(err)
	}
	srv.Shutdown()

	if *stamps != "" {
		mu.Lock()
		buf := make([]byte, 8*len(ats))
		for i, at := range ats {
			binary.LittleEndian.PutUint64(buf[8*i:], uint64(at))
		}
		mu.Unlock()
		if err := os.WriteFile(*stamps, buf, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	out, err := json.Marshal(struct {
		ActionErrors int `json:"action_errors"`
	}{len(srv.Engine().Errs())})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}
