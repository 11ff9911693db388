package spell

import (
	"bytes"

	"cyclicwin/internal/sched"
	"cyclicwin/internal/stream"
)

// Per-byte and per-call work charges of the pipeline threads.
const (
	ioCostPerByte   = 1   // the simulated file threads' copy loop
	insertCostExtra = 6   // dictionary insert beyond hashing
	blockSize       = 128 // file threads copy in blocks of this size
)

// badMark prefixes words on S3 that spell1 already judged misspelled.
// (The paper routes T2's finds directly to T5, giving S4 two producers;
// this implementation forwards them through spell2 with a marker so
// every stream keeps a single producer. The word traffic and judgment
// are identical.)
const badMark = '!'

// Config parameterises one spell-checker run. M and N are the stream
// buffer sizes of Section 5.1: S1 and S4..S6 are M bytes, S2 and S3 are
// N bytes. Granularity follows min(M,N); concurrency follows M/N.
type Config struct {
	M, N          int
	Source        []byte // the LaTeX draft (fed by T4)
	MainDict      []byte // correct words (fed by T7 to spell2/T3)
	ForbiddenDict []byte // incorrect derivatives (fed by T6 to spell1/T2)
}

// Pipeline is the seven-thread spell checker of Figure 10.
type Pipeline struct {
	cfg Config

	S1, S2, S3, S4, S5, S6 *stream.Stream

	// T1..T7 in the paper's numbering: delatex, spell1, spell2, input,
	// output, dict1 (forbidden), dict2 (main).
	T1, T2, T3, T4, T5, T6, T7 *sched.TCB

	out bytes.Buffer
}

// New wires the pipeline onto k. Run k.Run() to execute it. It returns
// an error when a stream size (M or N) is not positive.
func New(k *sched.Kernel, cfg Config) (*Pipeline, error) {
	p := &Pipeline{cfg: cfg}
	var err error
	mk := func(name string, capacity int) *stream.Stream {
		s, e := stream.New(k, name, capacity)
		if e != nil && err == nil {
			err = e
		}
		return s
	}
	size := cfg.StreamSizes()
	p.S1 = mk("S1", size[0]) // T4 -> T1: raw LaTeX bytes
	p.S2 = mk("S2", size[1]) // T1 -> T2: one word per line
	p.S3 = mk("S3", size[2]) // T2 -> T3: words, bad ones marked
	p.S4 = mk("S4", size[3]) // T3 -> T5: misspelled words
	p.S5 = mk("S5", size[4]) // T6 -> T2: forbidden derivatives
	p.S6 = mk("S6", size[5]) // T7 -> T3: main dictionary
	if err != nil {
		return nil, err
	}

	p.T1 = k.Spawn("T1-delatex", p.delatex)
	p.T2 = k.Spawn("T2-spell1", p.spell1)
	p.T3 = k.Spawn("T3-spell2", p.spell2)
	p.T4 = k.Spawn("T4-input", fileReader(p.S1, cfg.Source))
	p.T5 = k.Spawn("T5-output", p.output)
	p.T6 = k.Spawn("T6-dict1", fileReader(p.S5, cfg.ForbiddenDict))
	p.T7 = k.Spawn("T7-dict2", fileReader(p.S6, cfg.MainDict))
	return p, nil
}

// StreamSizes returns the buffer sizes of S1..S6 in order: S1 and
// S4..S6 are M bytes, S2 and S3 are N bytes.
func (c Config) StreamSizes() [6]int { return [6]int{c.M, c.N, c.N, c.M, c.M, c.M} }

// Streams lists the streams S1..S6 in order.
func (p *Pipeline) Streams() []*stream.Stream {
	return []*stream.Stream{p.S1, p.S2, p.S3, p.S4, p.S5, p.S6}
}

// Output returns the raw bytes T5 collected (misspelled words, one per
// line, in order of occurrence).
func (p *Pipeline) Output() []byte { return p.out.Bytes() }

// Misspelled returns the reported words in order.
func (p *Pipeline) Misspelled() []string {
	raw := bytes.TrimSuffix(p.out.Bytes(), []byte{'\n'})
	if len(raw) == 0 {
		return nil
	}
	lines := bytes.Split(raw, []byte{'\n'})
	words := make([]string, len(lines))
	for i, l := range lines {
		words[i] = string(l)
	}
	return words
}

// Threads lists the TCBs in paper order T1..T7.
func (p *Pipeline) Threads() []*sched.TCB {
	return []*sched.TCB{p.T1, p.T2, p.T3, p.T4, p.T5, p.T6, p.T7}
}

// fileReader builds a file-input thread body (T4, T6, T7): it copies its
// internal memory buffer (the paper's simulated disk cache) into the
// stream, one procedure call per block, then closes the stream.
func fileReader(s *stream.Stream, data []byte) func(*sched.Env) {
	return func(e *sched.Env) {
		for off := 0; off < len(data); off += blockSize {
			end := off + blockSize
			if end > len(data) {
				end = len(data)
			}
			block := data[off:end]
			e.Call(func(e *sched.Env) {
				for _, b := range block {
					e.Work(ioCostPerByte)
					s.Put(e, b)
				}
			})
		}
		s.Close(e)
	}
}

// delatex is T1: strip LaTeX from S1, emit one word per line on S2.
func (p *Pipeline) delatex(e *sched.Env) {
	var d Delatex
	emit := func(w string) {
		e.Call(func(e *sched.Env) {
			for i := 0; i < len(w); i++ {
				p.S2.Put(e, w[i])
			}
			p.S2.Put(e, '\n')
		})
	}
	e.Call(func(e *sched.Env) {
		for {
			b, ok := p.S1.Get(e)
			if !ok {
				break
			}
			e.Work(scanCostPerByte)
			d.Feed(b)
			for _, w := range d.Words() {
				emit(w)
			}
		}
		d.Close()
		for _, w := range d.Words() {
			emit(w)
		}
	})
	p.S2.Close(e)
}

// readLine consumes bytes from s up to a newline. ok is false at EOF
// with no pending bytes.
func readLine(e *sched.Env, s *stream.Stream) (line string, ok bool) {
	var buf []byte
	for {
		b, more := s.Get(e)
		if !more {
			return string(buf), len(buf) > 0
		}
		if b == '\n' {
			return string(buf), true
		}
		buf = append(buf, b)
	}
}

// loadDict consumes an entire dictionary stream into a hash set,
// charging hashing and insertion work per word.
func loadDict(e *sched.Env, s *stream.Stream) *Dict {
	d := NewDict(1024)
	for {
		w, ok := readLine(e, s)
		if !ok {
			return d
		}
		if w == "" {
			continue
		}
		d.Add(w)
		e.Work(uint64(len(w)*hashCostPerByte + insertCostExtra))
	}
}

// spell1 is T2: load the forbidden-derivative dictionary from S5, then
// judge each word from S2, marking the incorrect derivatives it catches
// before passing everything on to spell2 via S3.
func (p *Pipeline) spell1(e *sched.Env) {
	var forbidden *Dict
	e.Call(func(e *sched.Env) { forbidden = loadDict(e, p.S5) })
	checker := &Checker{Forbidden: forbidden}

	for {
		var w string
		var ok bool
		e.Call(func(e *sched.Env) { w, ok = readLine(e, p.S2) })
		if !ok {
			break
		}
		if w == "" {
			continue
		}
		bad := false
		e.Call(func(e *sched.Env) {
			var cost uint64
			bad, cost = checker.IsForbiddenDerivative(w)
			e.Work(cost)
		})
		e.Call(func(e *sched.Env) {
			if bad {
				p.S3.Put(e, badMark)
			}
			for i := 0; i < len(w); i++ {
				p.S3.Put(e, w[i])
			}
			p.S3.Put(e, '\n')
		})
	}
	p.S3.Close(e)
}

// spell2 is T3: load the main dictionary from S6, then filter out
// correct words (accepting legal derivatives) and report the rest on S4.
func (p *Pipeline) spell2(e *sched.Env) {
	var main *Dict
	e.Call(func(e *sched.Env) { main = loadDict(e, p.S6) })
	checker := &Checker{Main: main}

	report := func(w string) {
		e.Call(func(e *sched.Env) {
			for i := 0; i < len(w); i++ {
				p.S4.Put(e, w[i])
			}
			p.S4.Put(e, '\n')
		})
	}
	for {
		var w string
		var ok bool
		e.Call(func(e *sched.Env) { w, ok = readLine(e, p.S3) })
		if !ok {
			break
		}
		if w == "" {
			continue
		}
		if w[0] == badMark {
			// spell1 already judged it; report as-is.
			report(w[1:])
			continue
		}
		correct := false
		e.Call(func(e *sched.Env) {
			var cost uint64
			correct, cost = checker.IsCorrect(w)
			e.Work(cost)
		})
		if !correct {
			report(w)
		}
	}
	p.S4.Close(e)
}

// output is T5: collect S4 into the in-memory output buffer (the
// simulated disk cache of the output file).
func (p *Pipeline) output(e *sched.Env) {
	for {
		b, ok := p.S4.Get(e)
		if !ok {
			return
		}
		e.Work(ioCostPerByte)
		p.out.WriteByte(b)
	}
}
