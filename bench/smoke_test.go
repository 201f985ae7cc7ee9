package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// benchmarkJSON is the shape of ../BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// checkMetrics compares the emitted names and units with the declared
// ones and rejects values that are not finite.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	var gotNames, wantNames []string
	for n, m := range got {
		gotNames = append(gotNames, n+" "+m.Unit)
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s: %s is %v", what, n, m.Value)
		}
	}
	for _, m := range want {
		wantNames = append(wantNames, m.Name+" "+m.Unit)
	}
	sort.Strings(gotNames)
	sort.Strings(wantNames)
	if !slices.Equal(gotNames, wantNames) {
		t.Errorf("%s: emitted metrics\n%v\nBENCHMARK.json declares\n%v", what, gotNames, wantNames)
	}
}

// TestSmoke runs all four workloads at toy scale, end to end and traced.
func TestSmoke(t *testing.T) {
	decl := readBenchmarkJSON(t)
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	logf := func(format string, args ...any) { t.Logf(format, args...) }
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			e := env{seed: 3, sc: toyScale, dir: filepath.Join(t.TempDir(), "run")}
			res, err := runEndToEnd(name, e, 0, logf)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("end to end: correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			checkMetrics(t, "end to end", res.Metrics, decl.EndToEnd)
			for n, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("end-to-end metric %s is %v; it must never be 0", n, m.Value)
				}
			}

			var traced [2]*outcome
			for i := range traced {
				tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
				if traced[i], err = runTraced(name, e, 0, tracePath, logf); err != nil {
					t.Fatal(err)
				}
				if !traced[i].Correct {
					t.Errorf("traced run %d is not correct", i)
				}
				checkMetrics(t, "traced", traced[i].Metrics, decl.PerLayer)
				if fi, err := os.Stat(tracePath); err != nil || fi.Size() == 0 {
					t.Errorf("no trace written: %v", err)
				}
			}
			// Counts made on one client repeat exactly for one seed. With
			// two clients, colliding run-id claims add round trips.
			exact := []string{"sqldb.insert_select_per_query"}
			if name != "server_mixed" {
				exact = append(exact, "core.stmts_per_import", "wire.round_trips_per_op")
			}
			for _, n := range exact {
				if a, b := traced[0].Metrics[n].Value, traced[1].Metrics[n].Value; a != b {
					t.Errorf("%s is %v, then %v for the same seed", n, a, b)
				}
			}
			if trips := traced[0].Metrics["wire.round_trips_per_op"].Value; (trips > 0) != (name == "server_mixed") {
				t.Errorf("wire.round_trips_per_op is %v", trips)
			}
		})
	}
}

// TestSeedMakesCorpus: equal seeds give equal files, another seed others.
func TestSeedMakesCorpus(t *testing.T) {
	read := func(seed int64) []byte {
		dir := t.TempDir()
		c, err := genBeffio(filepath.Join(dir, "b"), seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		m, err := genMsgsweep(filepath.Join(dir, "m"), seed, 5)
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		for _, f := range append(c.files, m.files...) {
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, filepath.Base(f)...)
			all = append(all, data...)
		}
		return all
	}
	if !bytes.Equal(read(7), read(7)) {
		t.Error("the same seed gave two corpora")
	}
	if bytes.Equal(read(7), read(8)) {
		t.Error("two seeds gave the same corpus")
	}
}

// TestCorruptGoldenFails: one wrong byte in a golden document, or one
// wrong oracle value, must surface as failed ops or a failed set-up.
func TestCorruptGoldenFails(t *testing.T) {
	w := newQueryHot(env{seed: 3, sc: toyScale, dir: t.TempDir()})
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.finish()
	if _, err := w.round(); err != nil {
		t.Fatal(err)
	}
	if n := w.clients[0].failed; n != 0 {
		t.Fatalf("%d ops failed before any corruption", n)
	}
	doc := &w.golden[0][1]
	doc.Content = append([]byte(nil), doc.Content...)
	doc.Content[len(doc.Content)-2] ^= 1
	if _, err := w.round(); err != nil {
		t.Fatal(err)
	}
	if n := w.clients[0].failed; n == 0 {
		t.Error("a corrupted golden document failed no op")
	}

	want := fig8Params(w.seed)[1].expected(w.corpus)
	if err := checkTables(w.golden[1], map[string][]oracleRow{"fig8.txt": want}); err != nil {
		t.Errorf("untouched oracle: %v", err)
	}
	want[3].value *= 1 + 1e-6
	if err := checkTables(w.golden[1], map[string][]oracleRow{"fig8.txt": want}); err == nil {
		t.Error("a corrupted oracle value was accepted")
	}
}
