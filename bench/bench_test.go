package bench

import (
	"bufio"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// spec is the part of BENCHMARK.json the smoke test checks against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// result is one workload's JSON result line.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs every workload for one second, untraced and traced, and
// checks that each prints every metric BENCHMARK.json names, with its unit,
// and reports no failed or wrong answer.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the daemon and runs every workload")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	for trace, want := range [][]metricSpec{sp.EndToEnd, sp.PerLayer} {
		t.Run("trace"+strconv.Itoa(trace), func(t *testing.T) {
			cmd := exec.Command("bash", "bench/run.sh", "-workload", "all", "-seed", "1", "-seconds", "1", "-trace", strconv.Itoa(trace))
			cmd.Dir = root
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("run.sh: %v\n%s", err, out)
			}
			checkOutput(t, string(out), len(sp.Workloads), want)
		})
	}
}

// checkOutput splits the output into workload blocks and checks each.
func checkOutput(t *testing.T, out string, workloads int, want []metricSpec) {
	t.Helper()
	type printed struct {
		value float64
		unit  string
	}
	var blocks []map[string]printed
	var results []result
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# workload "):
			blocks = append(blocks, map[string]printed{})
		case strings.HasPrefix(line, "{"):
			var r result
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				t.Fatalf("bad result line %q: %v", line, err)
			}
			results = append(results, r)
		case !strings.HasPrefix(line, "#") && len(blocks) > 0:
			if f := strings.Fields(line); len(f) == 3 {
				v, err := strconv.ParseFloat(f[1], 64)
				if err != nil {
					t.Errorf("metric line %q: %v", line, err)
				}
				blocks[len(blocks)-1][f[0]] = printed{v, f[2]}
			}
		}
	}
	if len(blocks) != workloads || len(results) != workloads {
		t.Fatalf("got %d workload blocks and %d result lines, want %d each:\n%s", len(blocks), len(results), workloads, out)
	}
	for i, r := range results {
		if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("workload %d: correct=%v failed=%d attempted=%d", i, r.Correct, r.Failed, r.Attempted)
		}
		if p, ok := blocks[i]["error_rate"]; !ok || p.value != 0 {
			t.Errorf("workload %d: error_rate %v (printed: %v), want 0", i, p.value, ok)
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("workload %d: result carries %d metrics, BENCHMARK.json names %d", i, len(r.Metrics), len(want))
		}
		for _, m := range want {
			if p, ok := blocks[i][m.Name]; !ok || p.unit != m.Unit {
				t.Errorf("workload %d: metric %s printed with unit %q, want %q", i, m.Name, p.unit, m.Unit)
			}
			if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("workload %d: result lacks %s in %s", i, m.Name, m.Unit)
			}
		}
	}
}
