package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"rcep/internal/core/event"
	"rcep/internal/core/shard"
)

// RunShardEngine measures the sharded detection engine (key-space rule
// partitioning + per-shard workers + routed fan-out, internal/core/shard)
// on the workload. The observation stream is fed through the router in
// batches; detections are counted at the merged fan-in, so the result is
// comparable with RunRCEDA.
func RunShardEngine(w *Workload, n int, opts Options) (Result, error) {
	rs, err := w.parseRules()
	if err != nil {
		return Result{}, err
	}
	shRules := make([]shard.Rule, len(rs.Rules))
	for i, r := range rs.Rules {
		shRules[i] = shard.Rule{ID: i, Expr: r.Event}
	}
	var detections uint64
	eng, err := shard.New(shard.Config{
		Rules:       shRules,
		Shards:      n,
		Context:     opts.Context,
		Groups:      w.Groups,
		TypeOf:      w.TypeOf,
		Interpreted: opts.Interpreted,
		OnDetect:    func(int, *event.Instance) { detections++ },
	})
	if err != nil {
		return Result{}, err
	}
	const batch = 256
	start := time.Now()
	for lo := 0; lo < len(w.Observations); lo += batch {
		hi := lo + batch
		if hi > len(w.Observations) {
			hi = len(w.Observations)
		}
		if err := eng.IngestBatch(w.Observations[lo:hi]); err != nil {
			return Result{}, err
		}
	}
	eng.Close()
	elapsed := time.Since(start)
	if err := eng.Err(); err != nil {
		return Result{}, err
	}
	return Result{
		Events:     len(w.Observations),
		Rules:      len(rs.Rules),
		Elapsed:    elapsed,
		Detections: detections,
		Metrics:    eng.Metrics(),
	}, nil
}

// ShardPoint is one measured shard count.
type ShardPoint struct {
	Shards     int     `json:"shards"`  // requested
	Workers    int     `json:"workers"` // partition's actual shard count
	ElapsedNS  int64   `json:"elapsed_ns"`
	Throughput float64 `json:"throughput_eps"`
	Detections uint64  `json:"detections"`
	Speedup    float64 `json:"speedup_vs_single"`
}

// ShardReport is the BENCH_shard.json schema: a single-engine baseline
// plus one point per shard count on the same supply-chain workload.
type ShardReport struct {
	Workload     string       `json:"workload"`
	Events       int          `json:"events"`
	Rules        int          `json:"rules"`
	BaselineNS   int64        `json:"baseline_elapsed_ns"`
	BaselineEPS  float64      `json:"baseline_throughput_eps"`
	BaselineDets uint64       `json:"baseline_detections"`
	Points       []ShardPoint `json:"points"`
}

// SweepShards measures the sharded engine at each shard count against the
// single-engine baseline on one supply-chain workload.
func SweepShards(shardCounts []int, events, nrules int, seed int64) (*ShardReport, error) {
	w := Fig9Workload(events, nrules, seed, false)
	base, err := RunRCEDA(w, Options{})
	if err != nil {
		return nil, fmt.Errorf("bench: baseline: %w", err)
	}
	rep := &ShardReport{
		Workload:     w.Name,
		Events:       base.Events,
		Rules:        base.Rules,
		BaselineNS:   base.Elapsed.Nanoseconds(),
		BaselineEPS:  base.Throughput(),
		BaselineDets: base.Detections,
	}
	rs, err := w.parseRules()
	if err != nil {
		return nil, err
	}
	shRules := make([]shard.Rule, len(rs.Rules))
	for i, r := range rs.Rules {
		shRules[i] = shard.Rule{ID: i, Expr: r.Event}
	}
	for _, n := range shardCounts {
		r, err := RunShardEngine(w, n, Options{})
		if err != nil {
			return nil, fmt.Errorf("bench: shards=%d: %w", n, err)
		}
		if r.Detections != base.Detections {
			return nil, fmt.Errorf("bench: shards=%d detected %d events, single engine %d — sharding changed semantics",
				n, r.Detections, base.Detections)
		}
		workers := len(shard.NewPartition(shRules, n, w.Groups).ByShard)
		rep.Points = append(rep.Points, ShardPoint{
			Shards:     n,
			Workers:    workers,
			ElapsedNS:  r.Elapsed.Nanoseconds(),
			Throughput: r.Throughput(),
			Detections: r.Detections,
			Speedup:    float64(base.Elapsed) / float64(r.Elapsed),
		})
	}
	return rep, nil
}

// WriteJSON renders the report for BENCH_shard.json.
func (r *ShardReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// PrintTable renders the sweep like the other benchmark series.
func (r *ShardReport) PrintTable(w io.Writer) {
	fmt.Fprintf(w, "shard sweep: %s\n", r.Workload)
	fmt.Fprintf(w, "%10s %10s %12s %14s %10s\n", "shards", "workers", "elapsed", "events/sec", "speedup")
	fmt.Fprintf(w, "%10s %10s %12s %14.0f %10s\n", "single", "1",
		time.Duration(r.BaselineNS), r.BaselineEPS, "1.00x")
	for _, p := range r.Points {
		fmt.Fprintf(w, "%10d %10d %12s %14.0f %9.2fx\n",
			p.Shards, p.Workers, time.Duration(p.ElapsedNS), p.Throughput, p.Speedup)
	}
}
