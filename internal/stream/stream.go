// Package stream implements the cyclic-buffer FIFO byte streams
// connecting the threads of the paper's workload (S1 through S6 in
// Figure 10). A thread reading an empty stream or writing a full one
// blocks, which — under the non-preemptive kernel — is exactly what
// triggers context switches; the buffer sizes M and N therefore control
// granularity and concurrency (Section 5.1).
package stream

import (
	"fmt"
	"strings"

	"cyclicwin/internal/sched"
)

// Cost of moving one byte through a stream, in cycles (index update,
// load/store, wrap test).
const byteCost = 4

// Stream is a bounded FIFO of bytes with blocking reads and writes. It
// wakes parked threads through the acting thread's kernel rather than
// keeping its own, so that with the hook it still fits 128 bytes.
type Stream struct {
	name   string
	buf    []byte
	head   int // next read position
	count  int // bytes in the buffer
	closed bool

	readers []*sched.TCB
	writers []*sched.TCB

	// hook, when non-nil, observes every operation (SetHook).
	hook Hook

	// BytesWritten counts all bytes that passed through.
	BytesWritten uint64
}

// Op is a stream operation as a Hook sees it.
type Op uint8

const (
	// OpPut is a byte written by Put.
	OpPut Op = iota
	// OpGet is a byte read by Get.
	OpGet
	// OpEOF is a Get that found the stream closed and drained.
	OpEOF
	// OpClose is a Close.
	OpClose
)

// Hook observes one stream operation by thread t, called as the
// operation takes effect: after Put or Get moves its byte and before it
// charges the byte's cost or wakes anyone, when Get returns EOF, and
// when Close marks the stream closed. A Put or Get that blocks first
// is seen once, when it completes.
type Hook func(op Op, t *sched.TCB)

// SetHook installs h, or removes the hook when h is nil.
func (s *Stream) SetHook(h Hook) { s.hook = h }

// New creates a stream with the given buffer capacity (the paper's M or
// N parameter). The capacity must be positive: a zero-capacity FIFO can
// never transfer a byte under the blocking protocol, so it is rejected
// here rather than deadlocking later. The stream registers itself with
// the kernel's diagnostic registry, so deadlock reports show its
// occupancy and the threads parked on it.
func New(k *sched.Kernel, name string, capacity int) (*Stream, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("stream %s: capacity %d must be positive", name, capacity)
	}
	s := &Stream{name: name, buf: make([]byte, capacity)}
	k.RegisterDiag("stream "+name, s.diag)
	return s, nil
}

// diag renders the occupancy line shown in deadlock reports.
func (s *Stream) diag() string {
	names := func(ts []*sched.TCB) string {
		if len(ts) == 0 {
			return "-"
		}
		out := make([]string, len(ts))
		for i, t := range ts {
			out[i] = t.Name()
		}
		return strings.Join(out, ",")
	}
	return fmt.Sprintf("%d/%d bytes, closed=%t, blocked readers: %s, blocked writers: %s",
		s.count, len(s.buf), s.closed, names(s.readers), names(s.writers))
}

// Name returns the stream name.
func (s *Stream) Name() string { return s.name }

// Cap returns the buffer capacity.
func (s *Stream) Cap() int { return len(s.buf) }

// Len returns the number of buffered bytes.
func (s *Stream) Len() int { return s.count }

func (s *Stream) wakeReaders(k *sched.Kernel) {
	for _, t := range s.readers {
		k.Wake(t)
	}
	s.readers = s.readers[:0]
}

func (s *Stream) wakeWriters(k *sched.Kernel) {
	for _, t := range s.writers {
		k.Wake(t)
	}
	s.writers = s.writers[:0]
}

// Put appends b, blocking while the buffer is full. Writing to a
// closed stream is a guest program bug: the calling thread fails with a
// structured error (Env.Fail) instead of panicking the simulator.
func (s *Stream) Put(e *sched.Env, b byte) {
	for s.count == len(s.buf) {
		if s.closed {
			e.Fail(fmt.Errorf("stream %s: write after close by %s", s.name, e.TCB().Name()))
		}
		s.writers = append(s.writers, e.TCB())
		e.Block()
	}
	if s.closed {
		e.Fail(fmt.Errorf("stream %s: write after close by %s", s.name, e.TCB().Name()))
	}
	s.buf[(s.head+s.count)%len(s.buf)] = b
	s.count++
	s.BytesWritten++
	if s.hook != nil {
		s.hook(OpPut, e.TCB())
	}
	e.Work(byteCost)
	s.wakeReaders(e.Kernel())
}

// PutString writes every byte of str in order.
func (s *Stream) PutString(e *sched.Env, str string) {
	for i := 0; i < len(str); i++ {
		s.Put(e, str[i])
	}
}

// Get removes and returns the oldest byte, blocking while the
// buffer is empty. It returns ok=false when the stream is closed and
// drained.
func (s *Stream) Get(e *sched.Env) (b byte, ok bool) {
	for s.count == 0 {
		if s.closed {
			if s.hook != nil {
				s.hook(OpEOF, e.TCB())
			}
			return 0, false
		}
		s.readers = append(s.readers, e.TCB())
		e.Block()
	}
	b = s.buf[s.head]
	s.head = (s.head + 1) % len(s.buf)
	s.count--
	if s.hook != nil {
		s.hook(OpGet, e.TCB())
	}
	e.Work(byteCost)
	s.wakeWriters(e.Kernel())
	return b, true
}

// Close marks the stream finished; blocked and future readers see EOF
// once the buffer drains.
func (s *Stream) Close(e *sched.Env) {
	s.closed = true
	if s.hook != nil {
		s.hook(OpClose, e.TCB())
	}
	s.wakeReaders(e.Kernel())
	s.wakeWriters(e.Kernel())
}
