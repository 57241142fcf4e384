package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"rcep/perfbench/workload"
)

// serverBin is the benchserver binary TestMain builds for the tests.
var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serverBin = filepath.Join(dir, "benchserver")
	build := exec.Command("go", "build", "-o", serverBin, "../cmd/benchserver")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "build benchserver:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinySeconds keeps a run to a few hundred observations on the
// single-frame workloads and ten thousand on chain-detect.
const tinySeconds = 0.5

func tinyRun(t *testing.T, name string, trace bool, tamper func([]Fire) []Fire) *Report {
	t.Helper()
	r, err := Run(Options{
		Workload: name, Seed: 7, Seconds: tinySeconds, Trace: trace,
		ServerBin: serverBin, OutDir: t.TempDir(), Tamper: tamper,
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return r
}

// TestTinyRunsPrintEveryMetric runs each workload, traced, at a tiny size:
// every named metric is printed with its unit, both JSON results carry
// exactly their metric sets, the outputs match the reference, nothing
// fails, and the layer self times reconcile with rcep.ingest.
func TestTinyRunsPrintEveryMetric(t *testing.T) {
	for _, spec := range workload.Specs {
		t.Run(spec.Name, func(t *testing.T) {
			r := tinyRun(t, spec.Name, true, nil)
			if !r.Correct || r.Failed != 0 || !r.Valid {
				t.Fatalf("correct=%v failed=%d valid=%v mismatch=%v", r.Correct, r.Failed, r.Valid, r.Mismatch)
			}
			var out bytes.Buffer
			r.Print(&out)
			text := out.String()
			names := append([]string{
				"setup_s", "throughput_eps", "fire_latency_p50_ms", "fire_latency_p99_ms",
				"query_latency_p50_ms", "query_latency_p99_ms", "cpu_us_per_obs", "peak_rss_mb", "failed_frac",
			}, PerLayer...)
			if spec.Shards > 1 {
				names = append(names, "shard.ingest_ns_per_obs", "shard.barrier_ns_per_frame", "shard.skew")
			}
			for _, f := range spec.Families {
				names = append(names, "rules.dispatch_ns."+f)
			}
			for _, n := range names {
				m, ok := find(r, n)
				if !ok {
					t.Errorf("metric %s not measured", n)
					continue
				}
				if !strings.Contains(text, fmt.Sprintf("%-34s %14.6g %-10s", n, m.Value, m.Unit)) {
					t.Errorf("metric %s is not printed with its unit %q", n, m.Unit)
				}
			}
			for _, trace := range []bool{false, true} {
				raw, err := r.JSON(trace)
				if err != nil {
					t.Fatal(err)
				}
				var res Result
				if err := json.Unmarshal(raw, &res); err != nil {
					t.Fatal(err)
				}
				want := EndToEnd
				if trace {
					want = PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("trace=%v: %d metrics in the result, want %d", trace, len(res.Metrics), len(want))
				}
				for _, n := range want {
					if v, ok := res.Metrics[n]; !ok || v.Unit == "" {
						t.Errorf("trace=%v: result lacks %s with a unit", trace, n)
					}
				}
			}
			rec := r.Reconcile
			// The traced and untraced passes differ by the spans' cost and
			// by noise, so the measured overhead can come out negative; its
			// size is the scale of that noise. A tiny run's passes last tens
			// of milliseconds, so a quarter of rcep.ingest is allowed on top.
			if gap, allow := rec.LayersNS-rec.IngestNS, math.Abs(rec.TraceNS)+0.25*rec.IngestNS; math.Abs(gap) > allow {
				t.Errorf("layer self times %.0f ns/obs do not reconcile with rcep.ingest %.0f ns/obs (tracing overhead %.0f ns/obs)",
					rec.LayersNS, rec.IngestNS, rec.TraceNS)
			}
		})
	}
}

func find(r *Report, name string) (Metric, bool) {
	for _, set := range [][]Metric{r.E2E, r.Layer, r.Ledger} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}

// TestCheckFailsOnTamperedFire shows the end-to-end check compares what
// the subscriber received: one dropped or altered fire fails the run.
func TestCheckFailsOnTamperedFire(t *testing.T) {
	for name, tamper := range map[string]func([]Fire) []Fire{
		"dropped": func(fs []Fire) []Fire { return slices.Delete(fs, len(fs)/2, len(fs)/2+1) },
		"altered": func(fs []Fire) []Fire { fs[len(fs)/2].End++; return fs },
	} {
		t.Run(name, func(t *testing.T) {
			r := tinyRun(t, "track-query", false, tamper)
			if r.Correct || len(r.Mismatch) == 0 {
				t.Fatalf("a %s fire passed the correctness check", name)
			}
		})
	}
}

func TestCompareFires(t *testing.T) {
	want := []Fire{
		{Rule: "loc_1", Begin: 1, End: 1, Bindings: `{"o":"a"}`},
		{Rule: "pack_1", Begin: 1, End: 5, Bindings: `{"o1":"b"}`},
	}
	if err := CompareFires(want, slices.Clone(want)); err != nil {
		t.Fatal(err)
	}
	for _, got := range [][]Fire{
		want[:1],
		{want[1], want[0]},
		{want[0], {Rule: "pack_1", Begin: 1, End: 5, Bindings: `{"o1":"c"}`}},
	} {
		if CompareFires(want, got) == nil {
			t.Errorf("%v accepted as %v", got, want)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the harness in step:
// the workloads, their reasons and both metric lists.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workload.Specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(b.Workloads), len(workload.Specs))
	}
	for i, w := range b.Workloads {
		if s := workload.Specs[i]; w.Name != s.Name || w.Why != s.Why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), spec %q (%q)", i, w.Name, w.Why, s.Name, s.Why)
		}
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		return out
	}
	if got := names(b.EndToEnd); !slices.Equal(got, EndToEnd) {
		t.Errorf("end_to_end %v, harness %v", got, EndToEnd)
	}
	if got := names(b.PerLayer); !slices.Equal(got, PerLayer) {
		t.Errorf("per_layer %v, harness %v", got, PerLayer)
	}
}
