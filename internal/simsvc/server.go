package simsvc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"cyclicwin/internal/obs"
)

// Server is the HTTP front-end over a Pool, served by cmd/winsimd.
//
//	POST /v1/jobs               submit one spec or a batch; ?wait=1 blocks
//	GET  /v1/jobs/{id}          job status, including the result when done
//	GET  /v1/jobs/{id}/trace    Chrome trace_event JSON of a traced cell
//	GET  /v1/experiments        the experiment catalog
//	GET  /healthz               liveness (503 + status when degraded)
//	GET  /metrics               Prometheus text exposition; JSON with
//	                            ?format=json or Accept: application/json
//
// Failure classes map to distinct status codes: 429 (queue saturated,
// with Retry-After), 504 (wait or job timeout), 422 (deterministic
// guest fault), 500 (handler or job panic — every handler runs behind
// a recovery barrier, so a bug serves an error instead of killing the
// connection or the process).
type Server struct {
	pool       *Pool
	mux        *http.ServeMux
	start      time.Time
	reqTimeout time.Duration
}

// NewServer builds the handler tree over the pool.
func NewServer(pool *Pool) *Server {
	s := &Server{pool: pool, mux: http.NewServeMux(), start: time.Now()}
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// SetRequestTimeout bounds every request's context (0 = unbounded).
// Blocking waits (?wait=1) observe it as a 504.
func (s *Server) SetRequestTimeout(d time.Duration) { s.reqTimeout = d }

// ServeHTTP implements http.Handler: recovery barrier first, then the
// optional per-request deadline, then the route table.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if rec := recover(); rec != nil {
			log.Printf("simsvc: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			// Best effort: if the handler already wrote, this is a no-op
			// on the status line but the connection still survives.
			writeError(w, http.StatusInternalServerError,
				fmt.Errorf("internal error: handler panicked: %v", rec))
		}
	}()
	if s.reqTimeout > 0 {
		ctx, cancel := context.WithTimeout(r.Context(), s.reqTimeout)
		defer cancel()
		r = r.WithContext(ctx)
	}
	s.mux.ServeHTTP(w, r)
}

// ChecksumHeader carries the hex SHA-256 of a JSON response body.
// Every JSON response attaches it, so a client can tell a body
// corrupted in flight from a plausible-but-wrong result before it
// decodes anything.
const ChecksumHeader = "X-Content-Sha256"

// Every JSON body the package writes, responses and disk-cache files
// alike, is json.Encoder's compact, HTML-escaped encoding built in a
// buffer from this pool: by appendJSON, or by obs.ChromeTrace.Encode
// for a trace.
var buffers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuffer keeps a rare large body (a traced cell's answer or
// Chrome trace) from staying resident in the pool after its request.
const maxPooledBuffer = 64 << 10

func getBuffer() *bytes.Buffer { return buffers.Get().(*bytes.Buffer) }

func putBuffer(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBuffer {
		b.Reset()
		buffers.Put(b)
	}
}

// appendJSON appends v's encoding to buf as json.Encoder writes it,
// without the trailing newline. On error buf is left as it was.
func appendJSON(buf *bytes.Buffer, v any) error {
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		return err
	}
	buf.Truncate(buf.Len() - 1)
	return nil
}

// encodingFailed answers a value that could not be encoded. No type
// served here fails to marshal; this degrades to a 500 rather than a
// panic should one ever do so.
const encodingFailed = `{"error":"encoding response"}` + "\n"

func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := getBuffer()
	defer putBuffer(buf)
	if err := appendJSON(buf, v); err != nil {
		writeBody(w, http.StatusInternalServerError, []byte(encodingFailed))
		return
	}
	buf.WriteByte('\n')
	writeBody(w, code, buf.Bytes())
}

// writeBody sends a complete JSON body with the checksum of exactly
// the bytes sent.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	sum := sha256.Sum256(body)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(ChecksumHeader, hex.EncodeToString(sum[:]))
	w.WriteHeader(code)
	_, _ = w.Write(body)
}

// appendView appends j's view, with its result when withResult is set,
// and returns the view's status. The view is encoded without its
// result, whose encoding is then spliced in as the last member
// ("result" is View's last field), so the bytes decode to the same
// values as json.Marshal of the whole view. A cache-hit job's result
// comes from the cache entry's stored encoding; any other result is
// encoded anew.
func (s *Server) appendView(buf *bytes.Buffer, j *Job, withResult bool) (Status, error) {
	v := j.View(withResult)
	res := v.Result
	if res == nil {
		return v.Status, appendJSON(buf, &v)
	}
	v.Result = nil
	if err := appendJSON(buf, &v); err != nil {
		return v.Status, err
	}
	buf.Truncate(buf.Len() - 1) // the view's closing brace
	buf.WriteString(`,"result":`)
	var err error
	if v.CacheHit {
		err = s.pool.Cache().appendHit(buf, j.hash, res)
	} else {
		err = appendJSON(buf, res)
	}
	buf.WriteByte('}')
	return v.Status, err
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// submitRequest accepts every natural submission shape: a bare spec
// object, {"spec": {...}}, or {"specs": [...]}.
type submitRequest struct {
	Spec  *JobSpec  `json:"spec"`
	Specs []JobSpec `json:"specs"`
	JobSpec
}

func (r submitRequest) all() []JobSpec {
	var specs []JobSpec
	if r.Spec != nil {
		specs = append(specs, *r.Spec)
	}
	specs = append(specs, r.Specs...)
	if r.JobSpec.Experiment != "" {
		specs = append(specs, r.JobSpec)
	}
	return specs
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req submitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	specs := req.all()
	if len(specs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New(`no specs: send a spec object, {"spec":{...}} or {"specs":[...]}`))
		return
	}

	// Validate the whole batch before submitting any of it, so a 400
	// leaves nothing queued.
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("spec %d: %w", i, err))
			return
		}
	}
	jobs := make([]*Job, len(specs))
	for i, spec := range specs {
		j, err := s.pool.Submit(spec)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrPoolSaturated) {
				// Load shedding: tell the client when to come back. The
				// specs before this one stay queued.
				w.Header().Set("Retry-After", "1")
				code = http.StatusTooManyRequests
			}
			writeError(w, code, fmt.Errorf("spec %d: %w", i, err))
			return
		}
		jobs[i] = j
	}

	wait := r.URL.Query().Get("wait")
	if wait == "1" || wait == "true" {
		for _, j := range jobs {
			if _, err := j.Wait(r.Context()); err != nil {
				// A context error (client gone, request deadline) is a
				// 504; a terminal job error maps by failure class.
				code := http.StatusGatewayTimeout
				if r.Context().Err() == nil {
					code = statusCodeOf(err)
				}
				writeError(w, code, fmt.Errorf("waiting for %s: %w", j.ID(), err))
				return
			}
		}
	}

	buf := getBuffer()
	defer putBuffer(buf)
	buf.WriteString(`{"jobs":[`)
	code := http.StatusAccepted
	for i, j := range jobs {
		if i > 0 {
			buf.WriteByte(',')
		}
		st, err := s.appendView(buf, j, wait == "1" || wait == "true")
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding job %s: %w", j.ID(), err))
			return
		}
		if i == 0 && (st == StatusDone || st == StatusFailed) {
			code = http.StatusOK
		}
	}
	buf.WriteString("]}\n")
	writeBody(w, code, buf.Bytes())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	buf := getBuffer()
	defer putBuffer(buf)
	if _, err := s.appendView(buf, j, true); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding job %s: %w", j.ID(), err))
		return
	}
	buf.WriteByte('\n')
	writeBody(w, http.StatusOK, buf.Bytes())
}

// job resolves the request's {id}, answering 404 when the pool does
// not know it: never submitted, or forgotten past MaxRetainedJobs.
func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	id := r.PathValue("id")
	j, ok := s.pool.Job(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf(
			"no such job %q: only the newest %d finished jobs are kept; resubmit the spec and the result cache answers it",
			id, MaxRetainedJobs))
	}
	return j, ok
}

func (s *Server) handleExperiments(w http.ResponseWriter, _ *http.Request) {
	list := Experiments()
	out := make([]map[string]any, 0, len(list)+1)
	out = append(out, map[string]any{
		"name":        ExperimentCell,
		"description": "one (scheme, windows, policy, behavior, sizes) spell-checker simulation cell",
		"figure":      false,
	})
	for _, e := range list {
		out = append(out, map[string]any{
			"name":        e.Name,
			"description": e.Description,
			"figure":      e.Figure,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{"experiments": out})
}

// handleHealthz degrades honestly: a saturated or draining pool
// reports ok=false with a reason and a 503, so load balancers stop
// sending traffic before submissions start bouncing.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status, code := "ok", http.StatusOK
	switch {
	case s.pool.Draining():
		status, code = "draining", http.StatusServiceUnavailable
	case s.pool.Saturated():
		status, code = "saturated", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"ok":             code == http.StatusOK,
		"status":         status,
		"uptime_seconds": time.Since(s.start).Seconds(),
		"workers":        s.pool.Workers(),
	})
}

// handleJobTrace serves a traced cell's event ring as Chrome
// trace_event JSON (load it in chrome://tracing or Perfetto).
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	id := j.ID()
	res, _ := j.Result()
	switch st := j.Status(); st {
	case StatusDone, StatusFailed, StatusCanceled:
	default:
		writeError(w, http.StatusConflict, fmt.Errorf("job %s is %s; a trace exists only once the job is terminal", id, st))
		return
	}
	if res == nil || res.Trace == nil {
		writeError(w, http.StatusNotFound,
			fmt.Errorf(`job %s recorded no trace; submit the cell with "trace": true`, id))
		return
	}
	var ct obs.ChromeTrace
	ct.AddProcess(1, fmt.Sprintf("%s %s/w%d/%s", id, res.Spec.Scheme, res.Spec.Windows, res.Spec.Behavior), res.Trace)
	buf := getBuffer()
	defer putBuffer(buf)
	if err := ct.Encode(buf); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding the trace of %s: %w", id, err))
		return
	}
	writeBody(w, http.StatusOK, buf.Bytes())
}

// handleMetrics serves Prometheus text exposition by default; the
// pre-existing JSON snapshot remains available via ?format=json or an
// Accept: application/json header.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	if format == "json" || (format == "" && strings.Contains(r.Header.Get("Accept"), "application/json")) {
		writeJSON(w, http.StatusOK, s.pool.Metrics())
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if err := s.pool.WritePrometheus(w); err != nil {
		log.Printf("simsvc: writing /metrics: %v", err)
	}
}
