package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"testing"
)

type specFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name, Unit, Better string
	Bound              *float64
}

func readSpec(t *testing.T) specFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s specFile
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func pairs(ms []specMetric) []metricDef {
	out := make([]metricDef, len(ms))
	for i, m := range ms {
		out[i] = metricDef{m.Name, m.Unit}
	}
	return out
}

// BENCHMARK.json and the driver must name the same workloads and metrics,
// with the same units, in the same order.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	s := readSpec(t)
	if got := pairs(s.EndToEnd); !reflect.DeepEqual(got, endToEndMetrics) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, driver has %v", got, endToEndMetrics)
	}
	if got := pairs(s.PerLayer); !reflect.DeepEqual(got, perLayerMetrics) {
		t.Errorf("per_layer: BENCHMARK.json has %v, driver has %v", got, perLayerMetrics)
	}
	want := []string{tmSetsName}
	for _, w := range serveWorkloads {
		want = append(want, w.name)
	}
	var got []string
	for _, w := range s.Workloads {
		got = append(got, w.Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, driver has %v", got, want)
	}
	for _, m := range s.EndToEnd {
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// Equal seeds give equal request streams; different seeds do not.
func TestSeedDrivesStream(t *testing.T) {
	for i := range serveWorkloads {
		w := &serveWorkloads[i]
		a, b, c := newStream(w, 7), newStream(w, 7), newStream(w, 8)
		if a.hash != b.hash {
			t.Errorf("%s: seed 7 hashed to %x and %x", w.name, a.hash, b.hash)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 7 and 8 both hashed to %x", w.name, a.hash)
		}
	}
}

func buildTleserved(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "tleserved")
	build := exec.Command("go", "build", "-o", bin, "./cmd/tleserved")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/tleserved: %v\n%s", err, out)
	}
	return bin
}

// The traced run rebuilds tleserved's stack in this process with the values
// tleserved's flags default to. This reads the defaults off the binary's
// usage text, so that a changed default fails here instead of making the
// traced run describe a different server than the untraced run measures.
func TestServeDefaultsMatchTleserved(t *testing.T) {
	usage, _ := exec.Command(buildTleserved(t, t.TempDir()), "-h").CombinedOutput() // -h exits 2 by design
	defaults := map[string]string{}
	re := regexp.MustCompile(`(?s)\n  -([a-z-]+)[^\n]*\n[^\n]*\(default "?([^")]*)"?\)`)
	for _, m := range re.FindAllStringSubmatch(string(usage), -1) {
		defaults[m[1]] = m[2]
	}
	want := map[string]string{
		"shards":           strconv.Itoa(serveShards),
		"capacity":         strconv.Itoa(serveCapacity),
		"mem":              strconv.Itoa(serveMemWords),
		"stripe-shift":     strconv.Itoa(serveStripeShift),
		"htm-event-ppm":    strconv.Itoa(serveHTMEventPPM),
		"interval":         serveInterval.String(),
		"policy":           serveStartPolicy.String(),
		"deferred-reclaim": strconv.FormatBool(serveDeferReclaim),
		"adaptive":         "true",
	}
	for name, v := range want {
		if defaults[name] != v {
			t.Errorf("tleserved -%s defaults to %q, the traced run builds %q", name, defaults[name], v)
		}
	}
}

func TestSeedDrivesTMSets(t *testing.T) {
	hash := func(seed int64) uint64 {
		var ws []*tmWorker
		for id := 0; id < tmThreads; id++ {
			ws = append(ws, &tmWorker{ops: tmStreams(id, seed)})
		}
		return tmStreamHash(ws)
	}
	if a, b, c := hash(7), hash(7), hash(8); a != b || a == c {
		t.Errorf("tm-sets: seeds 7, 7, 8 hashed to %x, %x, %x", a, b, c)
	}
}

// TestSmoke builds cmd/tleserved and runs every workload for two seconds,
// untraced and traced: no request may fail, and a run may only produce
// metrics that BENCHMARK.json lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice; about a minute")
	}
	tmp := t.TempDir()
	bin := buildTleserved(t, tmp)
	listed := func(defs []metricDef) map[string]bool {
		m := map[string]bool{}
		for _, d := range defs {
			m[d.name] = true
		}
		return m
	}
	names := []string{tmSetsName}
	for _, w := range serveWorkloads {
		names = append(names, w.name)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			var res *result
			var err error
			w := findWorkload(name)
			switch {
			case w == nil:
				res, err = runTMSets(3, 2, traced, tmp)
			case traced:
				res, err = runServeTraced(w, 3, 2, tmp, tmp)
			default:
				res, err = runServe(w, 3, 2, bin, tmp)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d failed; notes: %q", name, traced, res.failed, res.attempted, res.notes)
			}
			// An untraced run also computes a few per-layer numbers for its
			// stderr notes; what it prints is render's business.
			allowed := listed(append(append([]metricDef{}, endToEndMetrics...), perLayerMetrics...))
			for k := range res.metrics {
				if !allowed[k] {
					t.Errorf("%s traced=%v: metric %q is not in BENCHMARK.json", name, traced, k)
				}
			}
			out := render(res, traced)
			if !traced {
				for k, v := range out.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, k, v.Value)
					}
				}
			} else if _, err := os.Stat(traceFile(tmp, name)); err != nil {
				t.Errorf("%s: no trace file: %v", name, err)
			}
		}
	}
}
