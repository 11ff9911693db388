package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cyclicwin/internal/core"
	"cyclicwin/internal/harness"
	"cyclicwin/internal/sched"
	"cyclicwin/internal/simsvc"
	"cyclicwin/internal/stats"
)

// The serve-mixed workload: winsimd runs as a child process with its
// default workers, a memory-only cache and -pprof, and one generator
// (this process) drives it in an open loop on a seeded Poisson
// schedule at two fixed offered rates, then sends fixed batches closed
// loop, pipelined. The rates are constants, set once from serve_max_rps
// at seed 1 on a 2-core host: about a third and about two thirds of it.
// The gated figures come from the closed-loop drains, because an
// open-loop phase lasts as long as its schedule, and its CPU depends on
// how evenly a generator sharing the host's cores keeps to that
// schedule.
const (
	lightRPS = 1100.0
	heavyRPS = 2200.0

	// sloP99 is the latency limit serve_max_rps is found under.
	sloP99 = 100 * time.Millisecond

	// The seeded mix is chosen, not taken from real traffic: the
	// repository holds no record of any. Hits dominate so that serving,
	// not simulating, is most of winsimd's work; the traced run measures
	// each kind's CPU alone and prints the simulating kinds' share as
	// serve.sim_share_pct. The rest of the requests are hot-set hits.
	shareCold  = 0.03  // distinct small cells: cache fills
	shareTrace = 0.005 // distinct traced cells: a few large bodies
	shareOver  = 0.01  // distinct over-budget cells: 422s, each leaving 6 goroutines parked

	hotSetSize = 16
	// The cell size cmd/winsimbench uses to keep cells cheap, so that a
	// cold fill costs about 15 hot hits, not about 60.
	serveDraft  = 600
	serveDict   = 901
	coldSamples = 48 // cold answers re-run in-process after the phases

	// Phase lengths as shares of --seconds; fixed, so that the leak
	// metrics compare across runs of one length. At 30 s each fixed-rate
	// phase holds 3300 requests, enough for a p99 with 33 beyond it.
	lightShare = 0.1
	heavyShare = 0.05
	probeShare = 0.05
	probes     = 3

	// Each drain sends heavyRPS x drainShare x --seconds requests of the
	// heavy mix, fresh cold cells included, over nproc connections kept
	// pipeDepth/2 to pipeDepth requests ahead.
	drainShare = 0.055
	drains     = 20

	maxOutstanding = 4096 // requests in flight before the generator gives up on one
)

// request kinds of the mix.
const (
	kindHot = iota
	kindCold
	kindTrace
	kindOver
)

var kindNames = []string{"hot", "cold", "trace", "over-budget"}

// request is one scheduled submission.
type request struct {
	kind int
	due  time.Duration // from the phase start
	hot  int           // hot-set index (kindHot)
	spec simsvc.JobSpec
	body []byte
}

// outcome is what the generator observed for one request.
type outcome struct {
	due, sent, done time.Duration // from the phase start
	ok              bool
	reason          string
	respBytes       int
	rtt             time.Duration
	server          time.Duration // Finished - Submitted, from the response
	queue, run      time.Duration // Started - Submitted, Finished - Started
	cacheHit        bool
	cell            json.RawMessage
}

func (o outcome) latency() time.Duration { return o.done - o.due }

// specSource deals the seeded specs: a hot set, then distinct cells.
// Cells are dealt round-robin over the scheme x behaviour pairs, each
// pair's windows and policies in a seeded order, so every phase carries
// the same mix of cell sizes whatever the seed.
type specSource struct {
	rng     *rand.Rand
	buckets [][]simsvc.JobSpec
	next    int
	over    int
	hot     []simsvc.JobSpec
}

func newSpecSource(seed int64) *specSource {
	s := &specSource{rng: rand.New(rand.NewSource(seed))}
	for _, sc := range core.Schemes {
		for _, b := range harness.Behaviors {
			var bucket []simsvc.JobSpec
			for w := 4; w <= 64; w++ {
				for _, p := range []sched.Policy{sched.FIFO, sched.WorkingSet} {
					bucket = append(bucket, simsvc.JobSpec{
						Experiment: simsvc.ExperimentCell, Scheme: sc.String(), Windows: w,
						Policy: p.String(), Behavior: b.Name, Draft: serveDraft, Dict: serveDict,
					})
				}
			}
			s.rng.Shuffle(len(bucket), func(i, j int) { bucket[i], bucket[j] = bucket[j], bucket[i] })
			s.buckets = append(s.buckets, bucket)
		}
	}
	for i := 0; i < hotSetSize; i++ {
		s.hot = append(s.hot, s.fresh())
	}
	return s
}

// fresh returns a spec not dealt before in this run. Past the end of
// the grid it deals the grid again with a cycle budget no cell reaches,
// which keeps the key distinct, as cmd/winsimbench does.
func (s *specSource) fresh() simsvc.JobSpec {
	b := s.buckets[s.next%len(s.buckets)]
	spec := b[(s.next/len(s.buckets))%len(b)]
	if round := s.next / (len(s.buckets) * len(b)); round > 0 {
		spec.MaxCycles = 1<<40 + uint64(round)
	}
	s.next++
	return spec
}

// schedule builds a Poisson arrival schedule at rate for d with the
// seeded mix. The request count and the count of each kind are fixed
// by rate, d and the shares (arrival times are uniform given the count,
// kinds a shuffled deck), so the phases of two seeds carry the same
// work and differ only in order and timing.
func (s *specSource) schedule(rate float64, d time.Duration) []request {
	n := int(math.Round(rate * d.Seconds()))
	due := make([]float64, n)
	for i := range due {
		due[i] = s.rng.Float64() * d.Seconds()
	}
	sort.Float64s(due)
	kinds := make([]int, n)
	next := 0
	for _, k := range []struct {
		kind  int
		share float64
	}{{kindOver, shareOver}, {kindTrace, shareTrace}, {kindCold, shareCold}} {
		for c := int(math.Round(k.share * float64(n))); c > 0 && next < n; c-- {
			kinds[next] = k.kind
			next++
		}
	}
	s.rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = s.request(kinds[i])
		reqs[i].due = time.Duration(due[i] * float64(time.Second))
	}
	return reqs
}

// batch deals n requests of one kind.
func (s *specSource) batch(kind, n int) []request {
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = s.request(kind)
	}
	return reqs
}

// request deals one request of a kind, with its body.
func (s *specSource) request(kind int) request {
	r := request{kind: kind}
	switch kind {
	case kindOver:
		r.spec = s.fresh()
		s.over++
		r.spec.MaxCycles = uint64(1000 + s.over) // far below any cell's need
	case kindTrace:
		r.spec = s.fresh()
		r.spec.Trace = true
	case kindCold:
		r.spec = s.fresh()
	default:
		r.hot = s.rng.Intn(len(s.hot))
		r.spec = s.hot[r.hot]
	}
	body, err := json.Marshal(r.spec)
	if err != nil {
		panic(err) // a JobSpec is plain data
	}
	r.body = body
	return r
}

// drive sends every request at its due time, each from its own
// goroutine so a slow reply never delays the next send, and waits for
// all replies. Latency runs from the due time, so a late generator or a
// request waiting for a connection counts against the server as a user
// would see it; lag reports how late the generator itself sent. stall,
// when non-nil, runs before each send (a test seam).
func drive(reqs []request, send func(*request) outcome, stall func(i int)) (outs []outcome, lag []float64, start time.Time) {
	outs = make([]outcome, len(reqs))
	lag = make([]float64, len(reqs))
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	start = time.Now()
	for i := range reqs {
		if stall != nil {
			stall(i)
		}
		if d := time.Until(start.Add(reqs[i].due)); d > 0 {
			time.Sleep(d)
		}
		sent := time.Since(start)
		lag[i] = ms(sent - reqs[i].due)
		select {
		case sem <- struct{}{}:
		default:
			outs[i] = outcome{due: reqs[i].due, sent: sent, done: sent, reason: "generator backlog"}
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			o := send(&reqs[i])
			o.due, o.sent, o.done = reqs[i].due, sent, time.Since(start)
			outs[i] = o
		}(i)
	}
	wg.Wait()
	return outs, lag, start
}

// pipeConn is one keep-alive connection that requests are written ahead
// on (HTTP/1.1 pipelining) and whose replies come back in order. write
// buffers a request; flush sends what write buffered.
type pipeConn interface {
	write(r *request)
	flush() error
	read() (reply []byte, status int, err error)
	close()
}

// pipeDepth is how many requests a drain keeps written ahead on each
// connection: it writes the next half of them once half have been
// answered.
const pipeDepth = 8

// drainBatch sends reqs closed-loop over conns connections, each kept
// between depth/2 and depth requests ahead: a connection reads its
// replies in order and, once no more than depth/2 are outstanding,
// writes requests until depth are. That way winsimd has the next request
// in hand whenever it finishes one, and a drain's time is how fast
// winsimd answers, not how quickly two processes sharing the host's
// cores wake each other for every round trip. One goroutine per
// connection does both, so the generator adds no wake-ups of its own.
// There is no schedule, so an outcome's due time is its send time.
func drainBatch(reqs []request, conns, depth int, dial func() (pipeConn, error),
	check func(*request, []byte, int, error) outcome) (outs []outcome, start time.Time) {
	outs = make([]outcome, len(reqs))
	var next atomic.Int64
	take := func() int { return int(next.Add(1)) - 1 }
	var wg sync.WaitGroup
	start = time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pc, err := dial()
			if err != nil {
				for i := take(); i < len(reqs); i = take() {
					outs[i] = outcome{reason: "dial: " + err.Error()}
				}
				return
			}
			defer pc.close()
			type written struct {
				i   int
				at  time.Duration
				err error // the flush failed: no reply will come
			}
			var pending []written
			fill := func() {
				from := len(pending)
				for i := len(pending); i < depth; i++ {
					j := take()
					if j >= len(reqs) {
						break
					}
					pc.write(&reqs[j])
					pending = append(pending, written{i: j, at: time.Since(start)})
				}
				if err := pc.flush(); err != nil {
					for k := from; k < len(pending); k++ {
						pending[k].err = err
					}
				}
			}
			for fill(); len(pending) > 0; {
				w := pending[0]
				pending = pending[1:]
				var reply []byte
				status, err := 0, w.err
				if err == nil {
					reply, status, err = pc.read()
				}
				o := check(&reqs[w.i], reply, status, err)
				o.due, o.sent, o.done = w.at, w.at, time.Since(start)
				o.rtt = o.done - o.sent
				outs[w.i] = o
				if len(pending) <= depth/2 {
					fill()
				}
			}
		}()
	}
	wg.Wait()
	return outs, start
}

// httpPipe is a pipeConn to winsimd's POST /v1/jobs?wait=1.
type httpPipe struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader
	host string
}

func (d *daemon) dialPipe() (pipeConn, error) {
	host := strings.TrimPrefix(d.url, "http://")
	c, err := net.DialTimeout("tcp", host, 5*time.Second)
	if err != nil {
		return nil, err
	}
	if err := c.SetDeadline(time.Now().Add(time.Minute)); err != nil { // a drain takes seconds
		c.Close()
		return nil, err
	}
	return &httpPipe{conn: c, bw: bufio.NewWriter(c), br: bufio.NewReader(c), host: host}, nil
}

func (p *httpPipe) write(r *request) {
	fmt.Fprintf(p.bw, "POST /v1/jobs?wait=1 HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		p.host, len(r.body))
	p.bw.Write(r.body)
}

func (p *httpPipe) flush() error { return p.bw.Flush() } // reports any error of the writes before it

func (p *httpPipe) read() ([]byte, int, error) {
	resp, err := http.ReadResponse(p.br, nil)
	if err != nil {
		return nil, 0, err
	}
	reply, err := verifiedBody(resp)
	return reply, resp.StatusCode, err
}

func (p *httpPipe) close() { p.conn.Close() }

// daemon is a winsimd child process.
type daemon struct {
	cmd       *exec.Cmd
	url       string
	transport *http.Transport
	client    *http.Client
	log       *bytes.Buffer
	exited    chan struct{}
}

// startDaemon boots winsimd on a free local port and waits for /healthz.
func startDaemon(bin string) (*daemon, error) {
	var last error
	for attempt := 0; attempt < 3; attempt++ {
		d, err := tryStartDaemon(bin)
		if err == nil {
			return d, nil
		}
		last = err
	}
	return nil, last
}

func tryStartDaemon(bin string) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	d := &daemon{url: "http://" + addr, log: &bytes.Buffer{}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin, "-addr", addr, "-pprof")
	d.cmd.Stdout = io.Discard
	d.cmd.Stderr = d.log // read only once the child has exited
	// The child dies with this process even if it is killed.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting winsimd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait() // only the exit matters, not its status
		close(d.exited)
	}()
	nproc := runtime.NumCPU()
	d.transport = &http.Transport{MaxConnsPerHost: nproc, MaxIdleConnsPerHost: nproc, IdleConnTimeout: time.Minute}
	d.client = &http.Client{Transport: d.transport, Timeout: time.Minute}
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("winsimd exited during boot: %s", d.log.String())
		default:
		}
		resp, err := d.client.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.stop()
	return nil, errors.New("winsimd did not become healthy")
}

// stop terminates the child and waits until it has exited.
func (d *daemon) stop() {
	d.transport.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) get(path string) ([]byte, error) {
	resp, err := d.client.Get(d.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, err
}

// submitResponse is the part of a ?wait=1 reply the checks read.
type submitResponse struct {
	Jobs []struct {
		Status    string     `json:"status"`
		CacheHit  bool       `json:"cache_hit"`
		Submitted time.Time  `json:"submitted"`
		Started   *time.Time `json:"started"`
		Finished  *time.Time `json:"finished"`
		Result    *struct {
			Cell json.RawMessage `json:"cell"`
		} `json:"result"`
	} `json:"jobs"`
}

// post submits a body with ?wait=1 and returns the reply once its
// X-Content-Sha256 checksum has been verified.
func (d *daemon) post(body []byte) (reply []byte, status int, rtt time.Duration, err error) {
	req, err := http.NewRequest(http.MethodPost, d.url+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	t := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, 0, 0, err
	}
	reply, err = verifiedBody(resp)
	return reply, resp.StatusCode, time.Since(t), err
}

// verifiedBody reads and closes a reply's body and checks it against
// its X-Content-Sha256 header.
func verifiedBody(resp *http.Response) ([]byte, error) {
	reply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply, err
	}
	sum := sha256.Sum256(reply)
	if hex.EncodeToString(sum[:]) != resp.Header.Get(simsvc.ChecksumHeader) {
		return reply, errors.New("body does not match " + simsvc.ChecksumHeader)
	}
	return reply, nil
}

// doneJobs decodes a 200 reply whose n jobs must all be done with a
// cell result.
func doneJobs(reply []byte, n int) (*submitResponse, error) {
	var sr submitResponse
	if err := json.Unmarshal(reply, &sr); err != nil || len(sr.Jobs) != n {
		return nil, fmt.Errorf("undecodable reply: %v", err)
	}
	for _, j := range sr.Jobs {
		if j.Status != string(simsvc.StatusDone) || j.Result == nil || len(j.Result.Cell) == 0 || j.Finished == nil {
			return nil, errors.New("job not done or without a cell result")
		}
	}
	return &sr, nil
}

// send submits one request and checks its reply.
func (d *daemon) send(r *request) outcome {
	reply, status, rtt, err := d.post(r.body)
	o := checkReply(r, reply, status, err)
	o.rtt = rtt
	return o
}

// checkReply checks the reply to one request: the body checksum on every
// reply (err reports a mismatch), 422 exactly for over-budget specs, and
// a done cell for every other spec.
func checkReply(r *request, reply []byte, status int, err error) outcome {
	o := outcome{respBytes: len(reply)}
	switch {
	case err != nil:
		o.reason = err.Error()
		return o
	case r.kind == kindOver:
		o.ok = status == http.StatusUnprocessableEntity
		if !o.ok {
			o.reason = fmt.Sprintf("over-budget spec answered %d, want 422", status)
		}
		return o
	case status != http.StatusOK:
		o.reason = fmt.Sprintf("%s spec answered %d: %.200s", kindNames[r.kind], status, reply)
		return o
	}
	sr, err := doneJobs(reply, 1)
	if err != nil {
		o.reason = err.Error()
		return o
	}
	j := sr.Jobs[0]
	o.cacheHit = j.CacheHit
	o.server = j.Finished.Sub(j.Submitted)
	if j.Started != nil {
		o.queue, o.run = j.Started.Sub(j.Submitted), j.Finished.Sub(*j.Started)
	}
	o.cell = j.Result.Cell
	o.ok = true
	return o
}

// phase is one fixed-rate stretch of the open loop, or with closed set
// one closed-loop drain.
type phase struct {
	name    string
	rate    float64
	closed  bool
	reqs    []request
	start   time.Time // when request due times count from
	outs    []outcome
	lag     []float64
	failed  int
	lat     summary // ms, completed requests
	wallS   float64 // phase start to last reply
	cpuS    float64 // child CPU
	simS    float64 // Finished - Started summed over the cells winsimd simulated
	genCPUS float64 // generator CPU
	allocMB float64 // child Go heap allocated
}

// meetsSLO reports whether the phase had no failed request and a tail
// within the SLO: the p99, or on a probe too short for one, the highest
// percentile with ten samples beyond it.
func (p *phase) meetsSLO() bool {
	return p.failed == 0 && p.lat.n > 0 && p.lat.tail <= ms(sloP99)
}

// run drives the phase against d and checks every reply; hot replies
// must equal the warm-up answer.
func (p *phase) run(d *daemon, warm [][]byte) {
	cpu0, alloc0, gen0 := d.cpuSeconds(), d.totalAllocMB(), sampleProc()
	if p.closed {
		// The drain opens its own connections; closing the client's idle
		// ones keeps the total at nproc.
		d.transport.CloseIdleConnections()
		p.outs, p.start = drainBatch(p.reqs, runtime.NumCPU(), pipeDepth, d.dialPipe, checkReply)
	} else {
		p.outs, p.lag, p.start = drive(p.reqs, d.send, nil)
	}
	p.cpuS, p.allocMB, p.genCPUS = d.cpuSeconds()-cpu0, d.totalAllocMB()-alloc0, (sampleProc().cpu - gen0.cpu).Seconds()
	var lat []float64
	var last time.Duration
	for i := range p.outs {
		o := &p.outs[i]
		last = max(last, o.done)
		if o.ok && p.reqs[i].kind == kindHot && !bytes.Equal(compactJSON(o.cell), warm[p.reqs[i].hot]) {
			o.ok, o.reason = false, "hot answer differs from the warm-up answer"
		}
		if p.reqs[i].kind != kindCold {
			o.cell = nil // only cold answers are checked again later
		}
		if !o.ok {
			p.failed++
			continue
		}
		lat = append(lat, ms(o.latency()))
		if !o.cacheHit {
			p.simS += o.run.Seconds()
		}
	}
	p.lat = summarize(lat)
	p.wallS = last.Seconds()
}

func (p *phase) describe() string {
	byKind := make([][]float64, len(kindNames))
	for i, o := range p.outs {
		if o.ok {
			byKind[p.reqs[i].kind] = append(byKind[p.reqs[i].kind], ms(o.latency()))
		}
	}
	var b strings.Builder
	if p.closed {
		fmt.Fprintf(&b, "phase %s closed-loop conns=%d depth=%d requests=%d failed=%d wall_s=%.3f latency_ms %s",
			p.name, runtime.NumCPU(), pipeDepth, len(p.reqs), p.failed, p.wallS, p.lat)
	} else {
		fmt.Fprintf(&b, "phase %s rate=%.0f/s requests=%d failed=%d latency_ms %s gen_lag_ms p99=%.3f max=%.3f",
			p.name, p.rate, len(p.reqs), p.failed, p.lat, percentile(p.lag, 99), percentile(p.lag, 100))
	}
	fmt.Fprintf(&b, " child_cpu_s=%.3f child_alloc_mb=%.1f sim_run_s=%.3f gen_cpu_s=%.3f", p.cpuS, p.allocMB, p.simS, p.genCPUS)
	for k, xs := range byKind {
		fmt.Fprintf(&b, "\n  %s latency_ms %s", kindNames[k], summarize(xs))
	}
	return b.String()
}

func compactJSON(raw []byte) []byte {
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return raw
	}
	return b.Bytes()
}

// cpuSeconds reads the child's user plus system CPU from /proc.
func (d *daemon) cpuSeconds() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return math.NaN()
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields, in clock ticks of 1/100 s.
	f := strings.Fields(string(data[bytes.LastIndexByte(data, ')')+1:]))
	if len(f) < 13 {
		return math.NaN()
	}
	ut, _ := strconv.ParseFloat(f[11], 64)
	st, _ := strconv.ParseFloat(f[12], 64)
	return (ut + st) / 100
}

// peakRSSMB reads the child's peak resident set from /proc.
func (d *daemon) peakRSSMB() float64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, _ := strconv.ParseFloat(strings.Fields(line)[1], 64)
			return kb / 1024
		}
	}
	return math.NaN()
}

// memStat reads one runtime.MemStats field from /debug/pprof/heap.
func (d *daemon) memStat(field string, gc bool) float64 {
	path := "/debug/pprof/heap?debug=1"
	if gc {
		path += "&gc=1"
	}
	body, err := d.get(path)
	if err != nil {
		return math.NaN()
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "# "+field+" = "); ok {
			n, _ := strconv.ParseFloat(v, 64)
			return n
		}
	}
	return math.NaN()
}

func (d *daemon) totalAllocMB() float64 { return d.memStat("TotalAlloc", false) / (1 << 20) }

// goroutines counts the child's goroutines from /debug/pprof.
func (d *daemon) goroutines() int {
	body, err := d.get("/debug/pprof/goroutine?debug=1")
	if err != nil {
		return -1
	}
	line, _, _ := strings.Cut(string(body), "\n")
	n, _ := strconv.Atoi(strings.TrimPrefix(line, "goroutine profile: total "))
	return n
}

// settledGoroutines closes idle keep-alive connections, which are not
// leaks, and counts the child's goroutines once their server side has
// gone.
func (d *daemon) settledGoroutines() int {
	d.transport.CloseIdleConnections()
	n := d.goroutines()
	for i := 0; i < 20; i++ {
		time.Sleep(25 * time.Millisecond)
		d.transport.CloseIdleConnections()
		m := d.goroutines()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// simCounters reads the child's window-manager counters from /metrics.
func (d *daemon) simCounters() (stats.Counters, uint64, error) {
	body, err := d.get("/metrics")
	if err != nil {
		return stats.Counters{}, 0, err
	}
	sum := func(family, label string) uint64 {
		var total float64
		for _, line := range strings.Split(string(body), "\n") {
			if !strings.HasPrefix(line, family+"{") || !strings.Contains(line, label) {
				continue
			}
			if i := strings.LastIndexByte(line, ' '); i > 0 {
				v, _ := strconv.ParseFloat(line[i+1:], 64)
				total += v
			}
		}
		return uint64(total)
	}
	c := stats.Counters{
		Switches:       sum("winsim_context_switches_total", ""),
		Saves:          sum("winsim_window_instructions_total", `op="save"`),
		Restores:       sum("winsim_window_instructions_total", `op="restore"`),
		OverflowTraps:  sum("winsim_window_traps_total", `kind="overflow"`),
		UnderflowTraps: sum("winsim_window_traps_total", `kind="underflow"`),
		SwitchSaves:    sum("winsim_windows_transferred_total", `cause="switch_save"`),
		SwitchRestores: sum("winsim_windows_transferred_total", `cause="switch_restore"`),
		TrapSaves:      sum("winsim_windows_transferred_total", `cause="overflow_trap"`),
		TrapRestores:   sum("winsim_windows_transferred_total", `cause="underflow_trap"`),
		Migrations:     sum("winsim_migrations_total", ""),
		MigrationSaves: sum("winsim_migration_saves_total", ""),
	}
	return c, sum("winsim_cells_simulated_total", ""), nil
}

func (d *daemon) poolMetrics() (simsvc.MetricsSnapshot, error) {
	var m simsvc.MetricsSnapshot
	body, err := d.get("/metrics?format=json")
	if err == nil {
		err = json.Unmarshal(body, &m)
	}
	return m, err
}

func subCounters(a, b stats.Counters) stats.Counters {
	return stats.Counters{
		Switches: a.Switches - b.Switches, Saves: a.Saves - b.Saves, Restores: a.Restores - b.Restores,
		OverflowTraps: a.OverflowTraps - b.OverflowTraps, UnderflowTraps: a.UnderflowTraps - b.UnderflowTraps,
		SwitchSaves: a.SwitchSaves - b.SwitchSaves, SwitchRestores: a.SwitchRestores - b.SwitchRestores,
		TrapSaves: a.TrapSaves - b.TrapSaves, TrapRestores: a.TrapRestores - b.TrapRestores,
		Migrations: a.Migrations - b.Migrations, MigrationSaves: a.MigrationSaves - b.MigrationSaves,
	}
}

// bootAndWarm starts winsimd and warms the hot set with one batch
// submission, as a warming client would, returning the compacted
// warm-up answer of every hot spec.
func bootAndWarm(bin string, hot []simsvc.JobSpec) (*daemon, [][]byte, error) {
	d, err := startDaemon(bin)
	if err != nil {
		return nil, nil, err
	}
	warm, err := d.warm(hot)
	if err != nil {
		d.stop()
		return nil, nil, fmt.Errorf("warming the hot set: %w", err)
	}
	return d, warm, nil
}

func (d *daemon) warm(hot []simsvc.JobSpec) ([][]byte, error) {
	body, err := json.Marshal(map[string][]simsvc.JobSpec{"specs": hot})
	if err != nil {
		return nil, err
	}
	reply, status, _, err := d.post(body)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("answered %d: %.200s", status, reply)
	}
	if err != nil {
		return nil, err
	}
	sr, err := doneJobs(reply, len(hot))
	if err != nil {
		return nil, err
	}
	warm := make([][]byte, len(hot))
	for i, j := range sr.Jobs {
		warm[i] = compactJSON(j.Result.Cell)
	}
	return warm, nil
}

func runServeMixed(o options) (*report, error) {
	rep := newReport()
	if _, err := os.Stat(o.winsimd); err != nil {
		return nil, fmt.Errorf("winsimd binary: %w (run.sh builds it)", err)
	}
	src := newSpecSource(o.seed)
	spans := newSpanLog() // written only by the traced run
	d, warm, err := bootServe(o, rep, src)
	if err != nil {
		return nil, err
	}
	defer d.stop()

	light := &phase{name: "light", rate: lightRPS, reqs: src.schedule(lightRPS, seconds(o.seconds*lightShare))}
	heavy := &phase{name: "heavy", rate: heavyRPS, reqs: src.schedule(heavyRPS, seconds(o.seconds*heavyShare))}
	var drained []*phase
	for i := 0; i < drains; i++ {
		drained = append(drained, &phase{name: fmt.Sprintf("drain%d", i), closed: true,
			reqs: src.schedule(heavyRPS, seconds(o.seconds*drainShare))})
	}
	phases := append([]*phase{light, heavy}, drained...)
	g0 := d.settledGoroutines()
	c0, cells0, err := d.simCounters()
	if err != nil {
		return nil, err
	}
	m0, err := d.poolMetrics()
	if err != nil {
		return nil, err
	}
	runPhase := func(p *phase) {
		p.run(d, warm)
		rep.notef("%s", p.describe())
		shown := 0
		for i, out := range p.outs {
			rep.op(out.ok)
			if !out.ok && shown < 5 {
				shown++
				rep.notef("request %s/%d (%s): %s", p.name, i, kindNames[p.reqs[i].kind], out.reason)
			}
		}
	}
	runPhase(light)
	runPhase(heavy)
	// The drains start from a collected heap, so that the collections
	// inside them follow from their own allocation and not from where
	// the open loop left the collector.
	d.memStat("HeapInuse", true)
	var walls, cpus, allocs []float64
	for _, p := range drained {
		runPhase(p)
		walls, cpus, allocs = append(walls, p.wallS), append(cpus, p.cpuS), append(allocs, p.allocMB)
	}
	g1 := d.settledGoroutines()
	c1, cells1, err := d.simCounters()
	if err != nil {
		return nil, err
	}
	m1, err := d.poolMetrics()
	if err != nil {
		return nil, err
	}
	rep.set("peak_rss_mb", d.peakRSSMB())
	rep.set("goroutines_leaked", float64(g1-g0))
	rep.set("runtime.goroutines.end", float64(g1))
	rep.set("runtime.heap_inuse_mb.end", d.memStat("HeapInuse", true)/(1<<20))
	// The drains run back to back, and a collection falls in some and
	// not others, so the gated figures are their means.
	rep.set("wall_s", mean(walls))
	rep.set("cpu_s", mean(cpus))
	rep.set("alloc_mb", mean(allocs))
	rep.notef("timing wall_s per drain: %s", summarize(walls))
	rep.notef("timing cpu_s per drain: %s", summarize(cpus))
	rep.notef("timing alloc_mb per drain: %s", summarize(allocs))
	rep.set("serve_p50_ms", heavy.lat.p50)
	rep.set("serve_p99_ms", heavy.lat.tail)
	rep.set("serve_light_p99_ms", light.lat.tail)
	hits, misses := m1.CacheHits-m0.CacheHits, m1.CacheMisses-m0.CacheMisses
	rep.set("cache.hits.count", float64(hits))
	rep.set("cache.misses.count", float64(misses))
	rep.set("cache.coalesced.count", float64(m1.CacheCoalesced-m0.CacheCoalesced))
	rep.set("cache.hit_ratio", float64(hits)/float64(max(hits+misses, 1)))
	agg := subCounters(c1, c0)
	layerCounts(rep, &agg, int(cells1-cells0))
	cold := servingMetrics(rep, light, heavy)
	rep.set("serve_max_rps", maxRPS(o, rep, d, warm, src, light, heavy))
	if o.trace {
		kindCosts(rep, d, warm, src)
	}
	d.stop()

	// A seeded sample of cold answers, re-run in-process.
	specs := make([]harness.CellSpec, 0, coldSamples)
	answers := make([]*simsvc.CellResult, 0, coldSamples)
	for _, i := range rand.New(rand.NewSource(o.seed)).Perm(len(cold))[:min(coldSamples, len(cold))] {
		var cr simsvc.CellResult
		if err := json.Unmarshal(cold[i].out.cell, &cr); err != nil {
			return nil, fmt.Errorf("decoding cold answer: %w", err)
		}
		specs = append(specs, harnessCell(cold[i].req.spec))
		answers = append(answers, &cr)
	}
	untraced := timePass(func() {
		for i, c := range specs {
			ok := bytes.Equal(resultBytes(c.Run()), cellResultBytes(answers[i]))
			if !ok {
				rep.notef("cold answer %s differs from an in-process run", cellLabel(c))
			}
			rep.op(ok)
		}
	})
	if !o.trace {
		return rep, nil
	}

	// Traced run of the same sample: per-layer costs of the cells the
	// daemon simulated.
	for _, p := range phases {
		for i, out := range p.outs {
			id := fmt.Sprintf("req:%s/%d", p.name, i)
			spans.add(id, "request", "", p.start.Add(out.due), p.start.Add(out.done))
			spans.add(id, "http.call", "request", p.start.Add(out.sent), p.start.Add(out.sent+out.rtt))
		}
	}
	tr := newTracedRunner(1, spans)
	traced := timePass(func() { tr.run(specs) })
	var sampleAgg stats.Counters
	for i, c := range specs {
		ok := tr.matches(cellKey(c), answers[i])
		if !ok {
			rep.notef("traced cell %s differs from the daemon's answer", cellLabel(c))
		}
		rep.op(ok)
		r := tr.results[cellKey(c)]
		sampleAgg.Add(&r.Counters)
	}
	rep.notef("trace runs a sample of %d cold cells", len(specs))
	return rep, reportTraced(o, rep, spans, tr, &sampleAgg, 0, untraced.wall, traced.wall, 1)
}

// bootServe times the set-up setupReps times: boot winsimd to /healthz and
// warm the hot set. The daemons are stopped after the timing, all but
// the last, which serves the timed phases.
func bootServe(o options, rep *report, src *specSource) (*daemon, [][]byte, error) {
	var daemons []*daemon
	var warm [][]byte
	var st setupTimes
	var err error
	for i := 0; i < setupReps && err == nil; i++ {
		err = st.time(func() error {
			d, w, err := bootAndWarm(o.winsimd, src.hot)
			if err == nil {
				daemons, warm = append(daemons, d), w
			}
			return err
		})
	}
	for i, d := range daemons {
		if err != nil || i < len(daemons)-1 {
			d.stop()
		}
	}
	if err != nil {
		return nil, nil, err
	}
	st.report(rep)
	return daemons[len(daemons)-1], warm, nil
}

// coldAnswer is one cold cell the daemon simulated.
type coldAnswer struct {
	req *request
	out outcome
}

// servingMetrics sets the serving-layer metrics of the fixed-rate
// phases and returns their cold answers.
func servingMetrics(rep *report, phases ...*phase) []coldAnswer {
	var httpOver, respBytes, queue, run, lag []float64
	var cold []coldAnswer
	for _, p := range phases {
		lag = append(lag, p.lag...)
		for i, out := range p.outs {
			if !out.ok {
				continue
			}
			respBytes = append(respBytes, float64(out.respBytes))
			if out.server > 0 {
				httpOver = append(httpOver, ms(out.rtt-out.server))
			}
			if k := p.reqs[i].kind; (k == kindCold || k == kindTrace) && !out.cacheHit {
				queue = append(queue, ms(out.queue))
				run = append(run, ms(out.run))
				if k == kindCold {
					cold = append(cold, coldAnswer{&p.reqs[i], out})
				}
			}
		}
	}
	rep.set("http.overhead.ms", median(httpOver))
	rep.set("http.resp_bytes", median(respBytes))
	rep.set("pool.queue_wait.ms", median(queue))
	rep.set("pool.run.ms", median(run))
	rep.set("serve.gen_lag_ms", percentile(lag, 99))
	return cold
}

// maxRPS bisects between the heavy rate and 2.5 times it with short
// probes for the highest rate that meets the SLO: its tail within the
// limit and no failed request (a growing backlog breaks the limit
// within a probe).
func maxRPS(o options, rep *report, d *daemon, warm [][]byte, src *specSource, light, heavy *phase) float64 {
	lo, hi := 0.0, 2.5*heavyRPS
	switch {
	case heavy.meetsSLO():
		lo = heavyRPS
	case light.meetsSLO():
		lo, hi = lightRPS, heavyRPS
	}
	for i := 0; i < probes && lo > 0; i++ {
		mid := math.Sqrt(lo * hi)
		p := &phase{name: fmt.Sprintf("probe%d", i), rate: mid, reqs: src.schedule(mid, seconds(o.seconds*probeShare))}
		p.run(d, warm)
		rep.notef("%s slo_met=%t", p.describe(), p.meetsSLO())
		if p.meetsSLO() {
			lo = mid
		} else {
			hi = mid
		}
	}
	rep.notef("serve_max_rps is the highest passing probe rate under a tail limit of %v", sloP99)
	return lo
}

// kindBatch is the pipelined batch kindCosts sends of each kind, large
// enough that the 10 ms tick of the CPU times read from /proc is a
// small part of each.
var kindBatch = [...]int{kindHot: 3000, kindCold: 150, kindTrace: 40, kindOver: 300}

// kindCosts sends a pipelined batch of each request kind alone and
// reports winsimd's CPU per request of each kind, and the share of the
// mix's CPU that the simulating kinds (cold and traced cells) take.
func kindCosts(rep *report, d *daemon, warm [][]byte, src *specSource) {
	shares := [...]float64{kindHot: 1 - shareCold - shareTrace - shareOver,
		kindCold: shareCold, kindTrace: shareTrace, kindOver: shareOver}
	var total, sim float64
	for k, n := range kindBatch {
		p := &phase{name: "only-" + kindNames[k], closed: true, reqs: src.batch(k, n)}
		p.run(d, warm)
		rep.notef("%s", p.describe())
		for _, out := range p.outs {
			rep.op(out.ok)
		}
		cost := 1000 * p.cpuS / float64(n)
		rep.set(fmt.Sprintf("serve.%s.cpu_ms", kindNames[k]), cost)
		total += shares[k] * cost
		if k == kindCold || k == kindTrace {
			sim += shares[k] * cost
		}
	}
	rep.set("serve.sim_share_pct", 100*sim/total)
}

// harnessCell is the harness cell a served spell-cell spec describes.
func harnessCell(s simsvc.JobSpec) harness.CellSpec {
	var scheme core.Scheme
	for _, sc := range core.Schemes {
		if sc.String() == s.Scheme {
			scheme = sc
		}
	}
	policy, _ := sched.ParsePolicy(s.Policy)
	b, _ := harness.BehaviorByName(s.Behavior)
	return harness.CellSpec{
		Scheme: scheme, Windows: s.Windows, Policy: policy, Behavior: b,
		Sizes: harness.Sizes{Draft: s.Draft, Dict: s.Dict},
	}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
