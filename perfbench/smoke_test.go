package main

import (
	"bytes"
	"encoding/json"
	"os"
	osexec "os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the smoke run checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestSmoke runs every workload for two seconds, plain and traced,
// against a freshly built planserverd, and checks that the last line
// names every metric of BENCHMARK.json with its unit, on correct
// answers.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds planserverd and runs six short benchmarks")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the traced run reports %d", len(spec.PerLayer), len(layerMetrics))
	}

	bin := filepath.Join(t.TempDir(), "planserverd")
	build := osexec.Command("go", "build", "-o", bin, "./cmd/planserverd")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building planserverd: %v\n%s", err, out)
	}

	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			cfg := config{workload: name, seed: 7, seconds: 2, trace: trace, root: "..", server: bin, out: &out}
			if err := run(cfg); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json has %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s printed as %+v (present %v), want unit %s", name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}
