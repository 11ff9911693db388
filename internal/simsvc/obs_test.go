package simsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"cyclicwin/internal/obs/promtest"
)

// TestPrometheusExposition runs one real cell through the server, then
// scrapes /metrics and validates the text exposition end to end: format
// well-formed, service families present, and the per-scheme simulation
// families — including the window-trap counters and the switch-cost
// histogram ISSUE.md names — populated for the simulated scheme.
func TestPrometheusExposition(t *testing.T) {
	ts, _ := testServer(t)

	resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", cellBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := promtest.Parse(string(text))
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, text)
	}

	for _, name := range []string{
		"winsimd_workers", "winsimd_jobs_total", "winsimd_cache_entries",
		"winsimd_cache_hits_total", "winsimd_job_latency_seconds",
		"winsim_cells_simulated_total", "winsim_context_switches_total",
		"winsim_window_traps_total", "winsim_windows_transferred_total",
		"winsim_switch_cost_cycles",
	} {
		if _, ok := fams[name]; !ok {
			t.Errorf("family %s missing from exposition", name)
		}
	}

	done := sampleValue(t, fams, "winsimd_jobs_total", "state", "done")
	if done < 1 {
		t.Errorf("winsimd_jobs_total{state=done} = %v, want >= 1", done)
	}
	for _, kind := range []string{"overflow", "underflow"} {
		if v := sampleValue(t, fams, "winsim_window_traps_total", "kind", kind); v <= 0 {
			t.Errorf("winsim_window_traps_total{kind=%s} = %v, want > 0 for a 6-window SP cell", kind, v)
		}
	}
	sc := fams["winsim_switch_cost_cycles"]
	if sc == nil || sc.Type != "histogram" {
		t.Fatalf("winsim_switch_cost_cycles is not a histogram: %+v", sc)
	}
	var count float64
	for _, s := range sc.Samples {
		if strings.HasSuffix(s.Name, "_count") && s.Labels["scheme"] == "SP" {
			count = s.Value
		}
	}
	if count <= 0 {
		t.Errorf("winsim_switch_cost_cycles_count{scheme=SP} = %v, want > 0", count)
	}
}

// sampleValue sums the samples of a family whose label matches.
func sampleValue(t *testing.T, fams map[string]*promtest.Family, name, label, value string) float64 {
	t.Helper()
	f, ok := fams[name]
	if !ok {
		t.Fatalf("family %s missing", name)
	}
	var sum float64
	for _, s := range f.Samples {
		if label == "" || s.Labels[label] == value {
			sum += s.Value
		}
	}
	return sum
}

// TestMetricsScrapeUnderLoad scrapes /metrics concurrently with running
// jobs — under -race this proves the exposition path (snapshot clones,
// per-scheme aggregates) never reads pool state unsynchronised.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	ts, p := testServer(t)

	specs := []JobSpec{}
	for _, w := range []int{4, 5, 6, 7, 8} {
		specs = append(specs, JobSpec{
			Experiment: ExperimentCell, Scheme: "SP", Windows: w,
			Behavior: "high-fine", Draft: 2000, Dict: 3001,
		})
	}
	jobs := make([]*Job, len(specs))
	for i, s := range specs {
		j, err := p.Submit(s)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 5; n++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					errs <- err
					return
				}
				if _, err := promtest.Parse(string(body)); err != nil {
					errs <- fmt.Errorf("mid-load exposition does not parse: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := j.Wait(t.Context()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestJobTraceEndpoint submits a traced cell and fetches its Chrome
// trace: the JSON must parse and carry both metadata and duration
// events. An untraced job and an unknown id both answer 404.
func TestJobTraceEndpoint(t *testing.T) {
	ts, _ := testServer(t)

	traced := `{"experiment":"cell","scheme":"SP","windows":6,"behavior":"high-fine","draft":2000,"dict":3001,"trace":true}`
	resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", traced)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var jr jobsResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	j := jr.Jobs[0]
	if j.Result == nil || j.Result.Trace == nil {
		t.Fatalf("traced job carries no trace: %+v", j.Result)
	}
	if j.Result.Counters == nil || j.Result.Counters.Switches == 0 {
		t.Fatalf("job result carries no counters: %+v", j.Result)
	}

	tresp, err := http.Get(ts.URL + "/v1/jobs/" + j.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: status %d", tresp.StatusCode)
	}
	trace, err := io.ReadAll(tresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(trace); tresp.Header.Get(ChecksumHeader) != hex.EncodeToString(sum[:]) {
		t.Fatalf("trace reply's %s %q does not match its body", ChecksumHeader, tresp.Header.Get(ChecksumHeader))
	}
	var ct struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &ct); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	var meta, slices int
	for _, ev := range ct.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
		case "X":
			slices++
		}
	}
	if meta == 0 || slices == 0 {
		t.Fatalf("trace has %d metadata and %d slice events, want both > 0", meta, slices)
	}

	// An untraced job has no trace to serve.
	_, body2 := postJSON(t, ts.URL+"/v1/jobs?wait=1", cellBody)
	var jr2 jobsResponse
	if err := json.Unmarshal(body2, &jr2); err != nil {
		t.Fatal(err)
	}
	nresp, err := http.Get(ts.URL + "/v1/jobs/" + jr2.Jobs[0].ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced job trace fetch: status %d, want 404", nresp.StatusCode)
	}
	uresp, err := http.Get(ts.URL + "/v1/jobs/zzz/trace")
	if err != nil {
		t.Fatal(err)
	}
	uresp.Body.Close()
	if uresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job trace fetch: status %d, want 404", uresp.StatusCode)
	}
}

// TestMetricsJSONNegotiation keeps the JSON snapshot reachable both by
// query parameter and by Accept header.
func TestMetricsJSONNegotiation(t *testing.T) {
	ts, _ := testServer(t)
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("Accept: application/json did not return the JSON snapshot: %v", err)
	}
	if m.Workers == 0 {
		t.Fatalf("JSON snapshot looks empty: %+v", m)
	}
}
