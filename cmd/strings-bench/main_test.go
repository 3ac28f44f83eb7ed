package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunRejectsInvalidFlags pins the CLI's failure mode: every invalid
// flag value exits 1 and the error names the valid range or alternatives,
// so a typo'd sweep script fails fast instead of silently running the
// wrong configuration.
func TestRunRejectsInvalidFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want []string // substrings the stderr message must contain
	}{
		{"negative shards", []string{"-shards", "-1"},
			[]string{"invalid -shards -1", "0 (classic single-kernel path)", ">= 1"}},
		{"very negative shards", []string{"-shards", "-42"},
			[]string{"invalid -shards -42", "valid range"}},
		{"negative parallel", []string{"-parallel", "-1"},
			[]string{"invalid -parallel -1", ">= 0", "0 = GOMAXPROCS", "1 = sequential"}},
		{"negative workers alias", []string{"-workers", "-3"},
			[]string{"invalid -workers -3", ">= 0", "deprecated alias"}},
		{"unknown experiment", []string{"-exp", "fig99"},
			[]string{"unknown experiment", "table1", "fig9", "mega", "cluster", "faults is opt-in"}},
		{"unknown cluster policy", []string{"-exp", "cluster", "-cluster-policy", "round-robin"},
			[]string{"unknown cluster policy", "least-loaded", "frag"}},
		{"bad cluster spec", []string{"-exp", "cluster", "-cluster-spec", "lunar:rate=1"},
			[]string{"-cluster-spec", "unknown arrival process"}},
		{"unparsable flag", []string{"-requests", "xyz"}, []string{"invalid value"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 1 {
				t.Fatalf("run(%v) = %d, want exit code 1", tc.args, code)
			}
			for _, want := range tc.want {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, stderr.String())
				}
			}
		})
	}
}

// TestRunExperimentHappyPath runs a small figure sweep end to end and
// checks the table and the closing run count reach stdout.
func TestRunExperimentHappyPath(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "table1", "-requests", "2", "-pairs", "2"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
	}
	for _, want := range []string{"Table I", "simulations"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
}

// TestRunAblationsDefaultRequests runs the ablation set at the default
// request count, where the pipelined CUDA cell needs memory admission.
func TestRunAblationsDefaultRequests(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-exp", "ablations", "-pairs", "1"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "application style") {
		t.Errorf("stdout missing the application-style ablation:\n%s", stdout.String())
	}
}

// TestRunClusterMergesBenchKeys runs a small -exp cluster macro-run into a
// bench JSON that already holds foreign keys and checks the cluster_* keys
// merge in without disturbing them — the same read-modify-write contract
// the mega keys honor.
func TestRunClusterMergesBenchKeys(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	if err := os.WriteFile(path, []byte("{\n  \"scenario\": \"keep-me\"\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	args := []string{
		"-exp", "cluster", "-bench-json", path,
		"-cluster-spec", "poisson:rate=0.8,horizon=40s,kind=GA,life=12s,lambda=1s",
		"-cluster-policy", "frag",
	}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run(%v) = %d, stderr:\n%s", args, code, stderr.String())
	}
	for _, want := range []string{"cluster/least-loaded", "cluster/frag", "identical=true", "cluster_* keys merged"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, stdout.String())
		}
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var merged map[string]any
	if err := json.Unmarshal(blob, &merged); err != nil {
		t.Fatalf("bench JSON unreadable after merge: %v", err)
	}
	if merged["scenario"] != "keep-me" {
		t.Errorf("merge clobbered foreign key scenario = %v", merged["scenario"])
	}
	for _, key := range []string{
		"cluster_scenario", "cluster_policy", "cluster_supernodes", "cluster_born",
		"cluster_placed", "cluster_requests", "cluster_events", "cluster_p50_s",
		"cluster_p99_s", "cluster_fairness", "cluster_identical",
	} {
		if _, ok := merged[key]; !ok {
			t.Errorf("bench JSON missing %s after cluster merge", key)
		}
	}
	if merged["cluster_policy"] != "frag" {
		t.Errorf("cluster_policy = %v, want frag (the -cluster-policy value)", merged["cluster_policy"])
	}
	if merged["cluster_identical"] != true {
		t.Error("cluster_identical is not true: worker invariance broke")
	}
}
