package simsvc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// serve sends one request straight through the handler and checks what
// every JSON reply must carry: an X-Content-Sha256 matching the body
// and compact encoding.
func serve(t *testing.T, s *Server, method, target, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
	got := rec.Body.Bytes()
	sum := sha256.Sum256(got)
	if h := rec.Header().Get(ChecksumHeader); h != hex.EncodeToString(sum[:]) {
		t.Fatalf("%s %s: %s %q does not match the body", method, target, ChecksumHeader, h)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, got); err != nil {
		t.Fatalf("%s %s: body is not JSON: %v", method, target, err)
	}
	if !bytes.Equal(compact.Bytes(), bytes.TrimSuffix(got, []byte("\n"))) {
		t.Fatalf("%s %s: body is not compact JSON", method, target)
	}
	return rec
}

// decodeAny decodes JSON into generic values, numbers kept exact.
func decodeAny(t *testing.T, data []byte) any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("decoding %.200s: %v", data, err)
	}
	return v
}

// sameAsIndented fails unless body decodes to the same values as the
// indented encoding of want, the shape every reply had before replies
// became compact and job results were spliced in.
func sameAsIndented(t *testing.T, what string, body []byte, want any) {
	t.Helper()
	old, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decodeAny(t, body), decodeAny(t, old)) {
		t.Fatalf("%s: body\n%.600s\ndecodes differently from\n%.600s", what, body, old)
	}
}

// resultMember returns the raw bytes of the first job's "result".
func resultMember(t *testing.T, body []byte) []byte {
	t.Helper()
	var r struct {
		Jobs []struct {
			Result json.RawMessage `json:"result"`
		} `json:"jobs"`
	}
	if err := json.Unmarshal(body, &r); err != nil || len(r.Jobs) == 0 || len(r.Jobs[0].Result) == 0 {
		t.Fatalf("no result member in %.300s (%v)", body, err)
	}
	return r.Jobs[0].Result
}

// TestReplyBodiesMatchIndentedEncoding: for every catalogue experiment
// at a tiny size, a cell, a traced cell and an over-budget (422) cell,
// both the ?wait=1 answer and GET /v1/jobs/{id} decode to the same
// values as the indented encoding of the same envelope, cold and again
// when the cache answers.
func TestReplyBodiesMatchIndentedEncoding(t *testing.T) {
	p := testPool(t, PoolConfig{Workers: 2})
	s := NewServer(p)
	specs := []string{
		`{"experiment":"cell","scheme":"SP","windows":6,"behavior":"high-fine","draft":600,"dict":901}`,
		`{"experiment":"cell","scheme":"NS","windows":5,"behavior":"low-coarse","draft":600,"dict":901,"trace":true}`,
	}
	for _, name := range ExperimentNames() {
		specs = append(specs, fmt.Sprintf(`{"experiment":%q,"draft":600,"dict":901,"window_list":[4]}`, name))
	}
	const overBudget = `{"experiment":"cell","scheme":"SP","windows":6,"behavior":"high-fine","draft":600,"dict":901,"max_cycles":5000}`
	specs = append(specs, overBudget)

	seq := 0
	for _, body := range specs {
		for _, pass := range []string{"cold", "cached"} {
			seq++
			id := fmt.Sprintf("j%06d", seq)
			what := pass + " " + body
			rec := serve(t, s, http.MethodPost, "/v1/jobs?wait=1", body)
			j, ok := p.Job(id)
			if !ok {
				t.Fatalf("%s: no job %s", what, id)
			}
			if body == overBudget {
				if rec.Code != http.StatusUnprocessableEntity {
					t.Fatalf("%s: status %d, want 422", what, rec.Code)
				}
				_, err := j.Result()
				sameAsIndented(t, what, rec.Body.Bytes(),
					map[string]string{"error": fmt.Errorf("waiting for %s: %w", id, err).Error()})
			} else {
				if rec.Code != http.StatusOK || j.CacheHit() != (pass == "cached") {
					t.Fatalf("%s: status %d, cache hit %v", what, rec.Code, j.CacheHit())
				}
				sameAsIndented(t, what, rec.Body.Bytes(), map[string]any{"jobs": []View{j.View(true)}})
			}
			get := serve(t, s, http.MethodGet, "/v1/jobs/"+id, "")
			sameAsIndented(t, "GET "+what, get.Body.Bytes(), j.View(true))
		}
	}
}

// TestHitResultBytesMatchColdAnswer: the cache-hit answer splices in
// exactly the bytes the cold answer encoded for the same result.
func TestHitResultBytesMatchColdAnswer(t *testing.T) {
	p := testPool(t, PoolConfig{Workers: 1})
	s := NewServer(p)
	const body = `{"experiment":"cell","scheme":"SNP","windows":7,"behavior":"high-medium","draft":600,"dict":901}`
	cold := serve(t, s, http.MethodPost, "/v1/jobs?wait=1", body)
	hit := serve(t, s, http.MethodPost, "/v1/jobs?wait=1", body)
	if !strings.Contains(hit.Body.String(), `"cache_hit":true`) {
		t.Fatalf("second submission was not a cache hit: %.300s", hit.Body)
	}
	if c, h := resultMember(t, cold.Body.Bytes()), resultMember(t, hit.Body.Bytes()); !bytes.Equal(c, h) {
		t.Fatalf("cold result\n%s\ncache-hit result\n%s", c, h)
	}
}

// TestConcurrentHitsShareOneEncoding races the first cache-hit serves of
// one key: 32 submissions at once all splice in the cold answer's result
// bytes, and 32 reads of one unserved hit job all get the same body.
func TestConcurrentHitsShareOneEncoding(t *testing.T) {
	p := testPool(t, PoolConfig{Workers: 2})
	s := NewServer(p)
	const callers = 32
	const body = `{"experiment":"cell","scheme":"SP","windows":4,"behavior":"low-fine","draft":600,"dict":901}`
	want := resultMember(t, serve(t, s, http.MethodPost, "/v1/jobs?wait=1", body).Body.Bytes())

	run := func(req func() *httptest.ResponseRecorder) [callers][]byte {
		var (
			wg     sync.WaitGroup
			start  = make(chan struct{})
			bodies [callers][]byte
		)
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				rec := req()
				if rec.Code != http.StatusOK {
					t.Errorf("caller %d: status %d", i, rec.Code)
				}
				bodies[i] = rec.Body.Bytes()
			}(i)
		}
		close(start)
		wg.Wait()
		return bodies
	}
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", strings.NewReader(body)))
		return rec
	}
	for i, b := range run(post) {
		if got := resultMember(t, b); !bytes.Equal(got, want) {
			t.Fatalf("caller %d: result\n%s\nwant\n%s", i, got, want)
		}
	}

	// A second key, first served by 32 concurrent reads of one hit job.
	spec := cellSpec()
	spec.Draft, spec.Dict = 600, 901
	if j, err := p.Submit(spec); err != nil {
		t.Fatal(err)
	} else if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	hit, err := p.Submit(spec)
	if err != nil || !hit.CacheHit() {
		t.Fatalf("resubmission: hit %v, err %v", hit != nil && hit.CacheHit(), err)
	}
	get := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+hit.ID(), nil))
		return rec
	}
	bodies := run(get)
	for i, b := range bodies {
		if !bytes.Equal(b, bodies[0]) {
			t.Fatalf("caller %d got\n%s\ncaller 0 got\n%s", i, b, bodies[0])
		}
	}
}
