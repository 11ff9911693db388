package sched

// This file implements the ready queue: a growable ring-buffer deque.
// The previous implementation was a plain slice, which made two hot
// paths pathological at T3-scale thread counts: Wake's working-set
// front-enqueue allocated a fresh slice per wake (append([]*TCB{t},
// ready...)), and pop's stale-resident demotion shifted the whole queue
// (copy(ready, ready[1:])) once per demoted head — O(n²) per dispatch.
// Both are O(1) on the deque, with no steady-state allocation.

// tcbRing is a growable ring buffer of TCBs: O(1) push/pop at both
// ends, amortised allocation-free once warm.
type tcbRing struct {
	buf  []*TCB
	head int // index of the front element
	n    int
	// moves counts single-element stores performed by push and pop
	// operations. Regression tests pin the demotion and front-enqueue
	// paths to O(1) moves; the old slice implementation cost O(n) here.
	moves uint64
}

func (r *tcbRing) len() int { return r.n }

// grow doubles the backing array (power-of-two capacity, so indexing
// is a mask).
func (r *tcbRing) grow() {
	if r.n < len(r.buf) {
		return
	}
	cap := len(r.buf) * 2
	if cap == 0 {
		cap = 8
	}
	buf := make([]*TCB, cap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

func (r *tcbRing) pushBack(t *TCB) {
	r.grow()
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = t
	r.n++
	r.moves++
}

func (r *tcbRing) pushFront(t *TCB) {
	r.grow()
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = t
	r.n++
	r.moves++
}

func (r *tcbRing) popFront() *TCB {
	if r.n == 0 {
		return nil
	}
	t := r.buf[r.head]
	r.buf[r.head] = nil // release the reference for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	r.moves++
	return t
}

func (r *tcbRing) peekFront() *TCB {
	if r.n == 0 {
		return nil
	}
	return r.buf[r.head]
}
