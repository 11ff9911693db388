package simsvc

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testServer(t *testing.T) (*httptest.Server, *Pool) {
	t.Helper()
	p := testPool(t, PoolConfig{Workers: 2})
	ts := httptest.NewServer(NewServer(p))
	t.Cleanup(ts.Close)
	return ts, p
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp
}

type jobsResponse struct {
	Jobs []View `json:"jobs"`
}

const cellBody = `{"experiment":"cell","scheme":"SP","windows":6,"behavior":"high-fine","draft":2000,"dict":3001}`

func TestServerSubmitAndStatus(t *testing.T) {
	ts, _ := testServer(t)

	resp, body := postJSON(t, ts.URL+"/v1/jobs?wait=1", cellBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d, body %s", resp.StatusCode, body)
	}
	var jr jobsResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if len(jr.Jobs) != 1 {
		t.Fatalf("got %d jobs, want 1", len(jr.Jobs))
	}
	j := jr.Jobs[0]
	if j.Status != StatusDone {
		t.Fatalf("status = %s, want done", j.Status)
	}
	if j.Result == nil || j.Result.Cell == nil || j.Result.Cell.Cycles == 0 {
		t.Fatalf("waited submission carries no result: %+v", j)
	}
	if j.Spec.Policy != "FIFO" {
		t.Fatalf("spec was not normalized: %+v", j.Spec)
	}

	// Status endpoint returns the same job with its result.
	var view View
	resp2 := getJSON(t, ts.URL+"/v1/jobs/"+j.ID, &view)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("status query: %d", resp2.StatusCode)
	}
	if view.ID != j.ID || view.Status != StatusDone || view.Result == nil {
		t.Fatalf("status view = %+v", view)
	}
	if view.Result.Cell.Cycles != j.Result.Cell.Cycles {
		t.Fatal("status result differs from submission result")
	}
}

// TestServerSecondSubmissionIsCacheHit is the acceptance criterion:
// an identical spec submitted again is answered by the cache, visible
// both on the job view and in the metrics hit counter.
func TestServerSecondSubmissionIsCacheHit(t *testing.T) {
	ts, _ := testServer(t)

	_, body1 := postJSON(t, ts.URL+"/v1/jobs?wait=1", cellBody)
	var jr1 jobsResponse
	if err := json.Unmarshal(body1, &jr1); err != nil {
		t.Fatal(err)
	}
	if jr1.Jobs[0].CacheHit {
		t.Fatal("first submission must not be a cache hit")
	}

	_, body2 := postJSON(t, ts.URL+"/v1/jobs?wait=1", cellBody)
	var jr2 jobsResponse
	if err := json.Unmarshal(body2, &jr2); err != nil {
		t.Fatal(err)
	}
	j2 := jr2.Jobs[0]
	if !j2.CacheHit {
		t.Fatal("second submission of an identical spec was not a cache hit")
	}
	if j2.Result.Cell.Cycles != jr1.Jobs[0].Result.Cell.Cycles {
		t.Fatal("cached result differs from the computed one")
	}

	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics?format=json", &m)
	if m.CacheHits != 1 {
		t.Fatalf("metrics cache_hits = %d, want 1", m.CacheHits)
	}
	if m.CacheMisses != 1 {
		t.Fatalf("metrics cache_misses = %d, want 1", m.CacheMisses)
	}
	if m.CacheHitRatio != 0.5 {
		t.Fatalf("metrics cache_hit_ratio = %v, want 0.5", m.CacheHitRatio)
	}
	if m.JobsDone != 2 {
		t.Fatalf("metrics jobs_done = %d, want 2", m.JobsDone)
	}
}

func TestServerBatchSubmit(t *testing.T) {
	ts, _ := testServer(t)
	body := `{"specs":[` + cellBody + `,{"experiment":"cell","scheme":"NS","windows":4,"behavior":"high-fine","draft":2000,"dict":3001}]}`
	resp, raw := postJSON(t, ts.URL+"/v1/jobs?wait=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch submit: %d %s", resp.StatusCode, raw)
	}
	var jr jobsResponse
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatal(err)
	}
	if len(jr.Jobs) != 2 {
		t.Fatalf("got %d jobs, want 2", len(jr.Jobs))
	}
	for _, j := range jr.Jobs {
		if j.Status != StatusDone || j.Result == nil {
			t.Errorf("job %s not done: %+v", j.ID, j.Status)
		}
	}
}

func TestServerAsyncSubmitThenPoll(t *testing.T) {
	ts, _ := testServer(t)
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", cellBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: %d %s", resp.StatusCode, raw)
	}
	var jr jobsResponse
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatal(err)
	}
	id := jr.Jobs[0].ID

	// Poll until terminal; the cell takes milliseconds.
	for i := 0; ; i++ {
		var view View
		getJSON(t, ts.URL+"/v1/jobs/"+id, &view)
		if view.Status == StatusDone {
			if view.Result == nil {
				t.Fatal("done job has no result")
			}
			break
		}
		if view.Status == StatusFailed || view.Status == StatusCanceled {
			t.Fatalf("job reached %s: %s", view.Status, view.Error)
		}
		if i > 10000 {
			t.Fatal("job never finished")
		}
	}
}

func TestServerRejectsBadSpecs(t *testing.T) {
	ts, _ := testServer(t)
	for _, body := range []string{
		`{"experiment":"nope"}`,
		`{"experiment":"cell","scheme":"XX","windows":8,"behavior":"high-fine"}`,
		`{"experiment":"cell","scheme":"SP","windows":8,"behavior":"high-fine","draft":-5}`,
		`{}`,
		`not json`,
	} {
		resp, raw := postJSON(t, ts.URL+"/v1/jobs", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d (%s), want 400", body, resp.StatusCode, raw)
		}
	}
}

// TestServerRejectedBatchQueuesNothing pins that a batch is validated
// whole before any of it is submitted: a bad spec after a good one
// answers 400 without the pool accepting the good one.
func TestServerRejectedBatchQueuesNothing(t *testing.T) {
	ts, p := testServer(t)
	good := `{"experiment":"cell","scheme":"SP","windows":6,"behavior":"high-fine","draft":600,"dict":901}`
	bad := strings.Replace(good, `"SP"`, `"XX"`, 1)
	resp, raw := postJSON(t, ts.URL+"/v1/jobs", `{"specs":[`+good+`,`+bad+`]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d (%s), want 400", resp.StatusCode, raw)
	}
	if m := p.Metrics(); m.JobsAccepted != 0 {
		t.Errorf("JobsAccepted = %d after a rejected batch, want 0", m.JobsAccepted)
	}
}

func TestServerJobNotFound(t *testing.T) {
	ts, _ := testServer(t)
	resp, err := http.Get(ts.URL + "/v1/jobs/j999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

func TestServerExperimentsCatalog(t *testing.T) {
	ts, _ := testServer(t)
	var out struct {
		Experiments []struct {
			Name        string `json:"name"`
			Description string `json:"description"`
			Figure      bool   `json:"figure"`
		} `json:"experiments"`
	}
	getJSON(t, ts.URL+"/v1/experiments", &out)
	// cell + the 14 catalog experiments.
	if len(out.Experiments) != 15 {
		t.Fatalf("got %d experiments, want 15", len(out.Experiments))
	}
	if out.Experiments[0].Name != ExperimentCell {
		t.Errorf("first entry = %q, want cell", out.Experiments[0].Name)
	}
	found := false
	for _, e := range out.Experiments {
		if e.Name == "fig11" && e.Figure {
			found = true
		}
	}
	if !found {
		t.Error("fig11 missing or not marked as a figure")
	}
}

func TestServerHealthz(t *testing.T) {
	ts, p := testServer(t)
	var h struct {
		OK      bool `json:"ok"`
		Workers int  `json:"workers"`
	}
	resp := getJSON(t, ts.URL+"/healthz", &h)
	if resp.StatusCode != http.StatusOK || !h.OK {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, h)
	}
	if h.Workers != p.Workers() {
		t.Errorf("healthz workers = %d, want %d", h.Workers, p.Workers())
	}
}

func TestServerNamedExperimentOverHTTP(t *testing.T) {
	ts, _ := testServer(t)
	body := `{"experiment":"table2"}`
	resp, raw := postJSON(t, ts.URL+"/v1/jobs?wait=1", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d %s", resp.StatusCode, raw)
	}
	var jr jobsResponse
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatal(err)
	}
	out := jr.Jobs[0].Result.Output
	if !strings.Contains(out, "Table 2") {
		t.Fatalf("table2 output missing header:\n%s", out)
	}
	// Every row must land inside the paper's measured range.
	if strings.Contains(out, "NO") {
		t.Fatalf("table2 served over HTTP has rows outside the paper range:\n%s", out)
	}
}

func TestServerMetricsUtilizationShape(t *testing.T) {
	ts, _ := testServer(t)
	var m MetricsSnapshot
	getJSON(t, ts.URL+"/metrics?format=json", &m)
	if m.Workers <= 0 {
		t.Fatalf("workers = %d", m.Workers)
	}
	if m.PoolUtilization < 0 || m.PoolUtilization > 1 {
		t.Fatalf("utilization = %v out of [0,1]", m.PoolUtilization)
	}
	if m.JobsQueued != 0 || m.JobsRunning != 0 {
		t.Fatalf("fresh pool reports queued=%d running=%d", m.JobsQueued, m.JobsRunning)
	}
}
