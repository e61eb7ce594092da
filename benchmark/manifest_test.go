package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// manifest mirrors BENCHMARK.json key for key; unknown keys fail the
// decode, so a misspelt or extra key is caught here and not by a driver
// refusing the file.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

func loadManifest(t *testing.T) (manifest, string) {
	t.Helper()
	root := ".." // the module sits one level below the repository root
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var m manifest
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m, root
}

func TestManifestShape(t *testing.T) {
	m, root := loadManifest(t)
	if n := len(m.Command); n < 1 || n > 32 {
		t.Errorf("command has %d strings, want 1..32", n)
	}
	for _, c := range m.Command {
		if len(c) > 200 || strings.HasPrefix(c, "/") || strings.Contains(c, "..") {
			t.Errorf("command string %q is too long, absolute or leaves the repository", c)
		}
	}
	if n := len(m.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths, want 1..16", n)
	}
	for _, p := range m.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q is malformed", p)
		}
		if st, err := os.Stat(filepath.Join(root, p)); err != nil || !st.IsDir() {
			t.Errorf("path %q is not a directory of the repository", p)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", m.RunSeconds)
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	metric := func(n, unit, better string) {
		name("metric", n)
		if !unitRE.MatchString(unit) {
			t.Errorf("metric %q has unit %q", n, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %q has direction %q", n, better)
		}
	}
	for _, w := range m.Workloads {
		name("workload", w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q needs a one-line why of at most 200 characters", w.Name)
		}
	}
	setup := false
	for _, e := range m.EndToEnd {
		metric(e.Name, e.Unit, e.Better)
		if e.Bound == nil || *e.Bound <= 0 || *e.Bound > 0.25 {
			t.Errorf("end-to-end metric %q needs a bound in (0, 0.25]", e.Name)
		}
		if e.Name == "setup_s" && e.Unit == "s" && e.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	for _, l := range m.PerLayer {
		metric(l.Name, l.Unit, l.Better)
	}
}

// TestManifestMatchesProgram is the manifest_invalid guard: what the
// manifest declares is what the program knows, name for name, and what
// a run of every workload prints, traced and untraced.
func TestManifestMatchesProgram(t *testing.T) {
	m, _ := loadManifest(t)
	if len(m.Workloads) != len(workloadOrder) {
		t.Fatalf("manifest has %d workloads, the program %d", len(m.Workloads), len(workloadOrder))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d is %q in the manifest, %q in the program", i, w.Name, workloadOrder[i])
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("manifest has %d end-to-end metrics, the program %d", len(m.EndToEnd), len(endToEnd))
	}
	for i, e := range m.EndToEnd {
		if d := endToEnd[i]; e.Name != d.Name || e.Unit != d.Unit || e.Better != d.Better || e.Bound == nil || *e.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: manifest %+v, program %+v", i, e, d)
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Fatalf("manifest has %d per-layer metrics, the program %d", len(m.PerLayer), len(perLayer))
	}
	for i, l := range m.PerLayer {
		if d := perLayer[i]; l.Name != d.Name || l.Unit != d.Unit || l.Better != d.Better {
			t.Errorf("per-layer metric %d: manifest %+v, program %+v", i, l, d)
		}
	}

	for _, w := range m.Workloads {
		for _, traced := range []bool{false, true} {
			rep := smokeRun(t, w.Name, 1, traced)
			got := rep.result().Metrics
			want := map[string]string{}
			if traced {
				for _, l := range m.PerLayer {
					want[l.Name] = l.Unit
				}
			} else {
				for _, e := range m.EndToEnd {
					want[e.Name] = e.Unit
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s traced=%v prints %d metrics, the manifest declares %d", w.Name, traced, len(got), len(want))
			}
			for n, unit := range want {
				if g, ok := got[n]; !ok || g.Unit != unit {
					t.Errorf("%s traced=%v: metric %q (%s) is declared but printed as %+v", w.Name, traced, n, unit, g)
				}
			}
		}
	}
}
