package main

import (
	"encoding/json"
	"net/http"
	"os"
	"testing"

	"repro/internal/reliability"
	"repro/internal/serve"
)

// admitOne sends requests from a serve_steady stream until one is admitted
// with at least one secondary, and returns it with its answer.
func admitOne(t *testing.T, e *env) (serve.AugmentRequest, *serve.AugmentResponse) {
	t.Helper()
	for _, ar := range generate(7, 64, e.net, shapes["serve_steady"]) {
		tk, err := e.svc.Enqueue(ar)
		if err != nil {
			t.Fatalf("enqueue: %v", err)
		}
		out := tk.Wait()
		if out.Status != http.StatusOK {
			continue
		}
		for _, n := range out.Response.BackupCounts {
			if n > 0 {
				return ar, out.Response
			}
		}
		if _, err := e.svc.Release(out.Response.ID); err != nil {
			t.Fatalf("release: %v", err)
		}
	}
	t.Fatal("no request admitted with a secondary")
	return serve.AugmentRequest{}, nil
}

func newEnv(t *testing.T) *env {
	t.Helper()
	e, _, err := setup(3, shapes["serve_steady"], &checker{}, true)
	if err != nil {
		t.Fatalf("setup: %v", err)
	}
	t.Cleanup(func() { e.close() })
	return e
}

func TestCorruptedAnswerIsCaught(t *testing.T) {
	e := newEnv(t)
	ar, resp := admitOne(t, e)
	if err := checkAnswer(e.net, hopBound, ar, resp); err != nil {
		t.Fatalf("service answer fails its check: %v", err)
	}
	pos := 0
	for resp.BackupCounts[pos] == 0 {
		pos++
	}
	far := -1
	for _, v := range e.net.Cloudlets() {
		if !contains(e.net.NeighborsWithinPlus(resp.Primaries[pos], hopBound), v) {
			far = v
			break
		}
	}
	corruptions := map[string]func(r *serve.AugmentResponse){
		"reliability off by 1e-6": func(r *serve.AugmentResponse) { r.Reliability += 1e-6 },
		"met flag flipped":        func(r *serve.AugmentResponse) { r.MetExpectation = !r.MetExpectation },
		"backup count inflated":   func(r *serve.AugmentResponse) { r.BackupCounts[pos]++ },
		"secondary dropped":       func(r *serve.AugmentResponse) { r.Secondaries[pos] = r.Secondaries[pos][1:] },
		"primary not a cloudlet":  func(r *serve.AugmentResponse) { r.Primaries[0] = -1 },
	}
	if far >= 0 {
		corruptions["secondary out of reach"] = func(r *serve.AugmentResponse) { r.Secondaries[pos][0] = far }
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			bad := *resp
			bad.Primaries = append([]int(nil), resp.Primaries...)
			bad.BackupCounts = append([]int(nil), resp.BackupCounts...)
			bad.Secondaries = make([][]int, len(resp.Secondaries))
			for i, s := range resp.Secondaries {
				bad.Secondaries[i] = append([]int(nil), s...)
			}
			corrupt(&bad)
			if err := checkAnswer(e.net, hopBound, ar, &bad); err == nil {
				t.Fatal("corrupted answer passed the check")
			}
		})
	}
}

func TestLeakedLedgerIsCaught(t *testing.T) {
	e := newEnv(t)
	_, resp := admitOne(t, e)
	e.checkLedger(false)
	if e.ck.failures != 0 {
		t.Fatalf("live session flagged before any release: %v", e.ck.messages)
	}
	e.checkLedger(true) // the session was never released
	if e.ck.failures == 0 {
		t.Fatal("a session that was never released passed the ledger check")
	}
	if _, err := e.svc.Release(resp.ID); err != nil {
		t.Fatalf("release: %v", err)
	}
	e.ck = &checker{}
	e.checkLedger(true)
	if e.ck.failures != 0 {
		t.Fatalf("ledger flagged after every release: %v", e.ck.messages)
	}

	start, _, _ := e.svc.State().Snapshot()
	below := append([]serve.CloudletState(nil), start...)
	below[0].Residual = -1e-9
	if checkLedger(start, below, false) == nil {
		t.Fatal("a residual below zero passed the ledger check")
	}
}

func TestChainReliabilityIsEquationOne(t *testing.T) {
	rs := []float64{0.8, 0.85, 0.9}
	counts := []int{0, 2, 1}
	got := chainReliability(rs, counts)
	if want := reliability.ChainReliability(rs, counts); got-want > 1e-15 || want-got > 1e-15 {
		t.Fatalf("Eq. (1) = %v, reliability.ChainReliability = %v", got, want)
	}
}

func TestPassReleasesEverySession(t *testing.T) {
	e := newEnv(t)
	reqs := generate(5, 600, e.net, shapes["serve_steady"])
	pr := e.runPass(reqs, 0, true)
	if e.ck.failures != 0 {
		t.Fatalf("checks failed: %v", e.ck.messages)
	}
	if pr.t.sent != len(reqs) || pr.t.ok == 0 || len(pr.spans["solve"]) == 0 {
		t.Fatalf("pass tally %s, %d solve spans", pr.t, len(pr.spans["solve"]))
	}
}

// TestBenchmarkFileListsTheMetrics keeps BENCHMARK.json and the metric
// tables the runs report in step.
func TestBenchmarkFileListsTheMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	for _, w := range spec.Workloads {
		if _, ok := shapes[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	for _, c := range []struct {
		table []struct{ name, unit string }
		spec  []struct{ Name, Unit string }
	}{{endToEnd, spec.EndToEnd}, {perLayer, spec.PerLayer}} {
		if len(c.table) != len(c.spec) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark reports %d", len(c.spec), len(c.table))
		}
		for i, m := range c.table {
			if c.spec[i].Name != m.name || c.spec[i].Unit != m.unit {
				t.Errorf("metric %d: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]",
					i, c.spec[i].Name, c.spec[i].Unit, m.name, m.unit)
			}
		}
	}
}
