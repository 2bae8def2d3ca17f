package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// runMainEnv makes the test binary run main instead of the tests, so a
// test can drive the real command line in a child process.
const runMainEnv = "CMMSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSweepArtifacts makes the committed sweep artifacts enforced
// references: it reruns each sweep in its default quick mode and requires
// every policy's per-mix results, the family means and the verdicts to
// match the committed JSON bit for bit. Policies since removed from a
// sweep keep their rows in the committed file as evidence and are
// dropped from the comparison.
func TestSweepArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps take a minute")
	}
	for _, tc := range []struct {
		fig, artifact string
		dropped       []string
	}{
		// CMM-mba lost on its own sweep (mean NormHS 0.979) and was
		// deleted; its row documents why.
		{fig: "bwsweep", artifact: "BWSWEEP_20260808T150037Z.json", dropped: []string{"CMM-mba"}},
		{fig: "numasweep", artifact: "NUMASWEEP_8x64.json"},
	} {
		t.Run(tc.fig, func(t *testing.T) {
			got := filepath.Join(t.TempDir(), "sweep.json")
			cmd := exec.Command(os.Args[0], "-fig", tc.fig, "-sweepjson", got, "-out", os.DevNull)
			cmd.Env = append(os.Environ(), runMainEnv+"=1")
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("cmmsim -fig %s: %v\n%s", tc.fig, err, out)
			}
			want := readArtifact(t, filepath.Join("..", "..", tc.artifact))
			for _, p := range tc.dropped {
				dropPolicy(t, want, p)
			}
			fresh := readArtifact(t, got)
			for k, w := range want {
				if g := fresh[k]; !reflect.DeepEqual(g, w) {
					t.Errorf("%s: %s drifted from %s:\n got %v\nwant %v", tc.fig, k, tc.artifact, g, w)
				}
			}
			for k := range fresh {
				if _, ok := want[k]; !ok {
					t.Errorf("%s: field %s missing from %s", tc.fig, k, tc.artifact)
				}
			}
		})
	}
}

func readArtifact(t *testing.T, path string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art map[string]any
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return art
}

// dropPolicy removes a policy's entry from the artifact's policy list and
// its per-policy maps.
func dropPolicy(t *testing.T, art map[string]any, policy string) {
	t.Helper()
	list, _ := art["Policies"].([]any)
	kept := list[:0:0]
	for _, p := range list {
		if p != policy {
			kept = append(kept, p)
		}
	}
	if len(kept) == len(list) {
		t.Fatalf("artifact has no policy %s to drop", policy)
	}
	art["Policies"] = kept
	for _, k := range []string{"Results", "MeanNormHS", "MeanNormWS"} {
		delete(art[k].(map[string]any), policy)
	}
}
