package main

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"cyclicwin/internal/core"
	"cyclicwin/internal/mem"
	"cyclicwin/internal/regwin"
	"cyclicwin/internal/sched"
	"cyclicwin/internal/simsvc"
	"cyclicwin/internal/stats"
	"cyclicwin/internal/stream"
)

// layerCosts are isolated per-call costs in nanoseconds, each the
// median of isolatedReps timings of a loop of calls.
type layerCosts struct {
	store32, load32 float64 // mem, on the 64-byte save-frame pattern
	regwin          float64 // Above, Below and Distance on 8 and 256 windows
	handoff         float64 // one Env.Yield between two threads
	streamHandoff   float64 // one byte through a capacity-1 stream
	streamBuffered  float64 // one byte through a large stream
	cacheGet        float64 // one Cache.Get memory hit
}

const isolatedReps = 5

// sink keeps the isolated loops' results alive.
var sink uint64

func medianNS(n int, body func() time.Duration) float64 {
	xs := make([]float64, isolatedReps)
	for i := range xs {
		xs[i] = float64(body()) / float64(n)
	}
	return median(xs)
}

// measureLayers times isolated calls into each layer.
func measureLayers() (layerCosts, error) {
	var lc layerCosts
	const frames, rounds = 64, 1000
	base := uint32(0xfff0000 - frames*64)
	m := mem.New()
	calls := frames * rounds * 16
	lc.store32 = medianNS(calls, func() time.Duration {
		t := time.Now()
		for r := 0; r < rounds; r++ {
			for f := uint32(0); f < frames; f++ {
				a := base + f*64
				for w := uint32(0); w < 16; w++ {
					m.Store32(a+4*w, w+uint32(r))
				}
			}
		}
		return time.Since(t)
	})
	lc.load32 = medianNS(calls, func() time.Duration {
		var s uint32
		t := time.Now()
		for r := 0; r < rounds; r++ {
			for f := uint32(0); f < frames; f++ {
				a := base + f*64
				for w := uint32(0); w < 16; w++ {
					s += m.Load32(a + 4*w)
				}
			}
		}
		d := time.Since(t)
		sink += uint64(s)
		return d
	})

	const regIters = 500000
	files := []*regwin.File{regwin.NewFile(8), regwin.NewFile(256)}
	lc.regwin = medianNS(3*regIters*len(files), func() time.Duration {
		s := 0
		t := time.Now()
		for _, f := range files {
			w := 0
			for i := 0; i < regIters; i++ {
				w = f.Above(w)
				s += f.Distance(w, f.Below(w))
			}
		}
		d := time.Since(t)
		sink += uint64(s)
		return d
	})

	const yields = 20000
	var err error
	lc.handoff = medianNS(2*yields, func() time.Duration {
		k := referenceKernel()
		for i := 0; i < 2; i++ {
			k.Spawn("yielder"+strconv.Itoa(i), func(e *sched.Env) {
				for j := 0; j < yields; j++ {
					e.Yield()
				}
			})
		}
		t := time.Now()
		if e := k.Run(); e != nil && err == nil {
			err = fmt.Errorf("yield kernel: %w", e)
		}
		return time.Since(t)
	})

	const handoffBytes, bufferedBytes = 20000, 400000
	lc.streamHandoff = medianNS(handoffBytes, func() time.Duration {
		d, e := timeStream(1, handoffBytes)
		if e != nil && err == nil {
			err = e
		}
		return d
	})
	lc.streamBuffered = medianNS(bufferedBytes, func() time.Duration {
		d, e := timeStream(1<<16, bufferedBytes)
		if e != nil && err == nil {
			err = e
		}
		return d
	})

	cache, cerr := simsvc.NewCache(0, "")
	if cerr != nil {
		return lc, cerr
	}
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = simsvc.JobSpec{Experiment: simsvc.ExperimentCell, Scheme: "SP", Windows: 4 + i, Behavior: "high-fine"}.Hash()
		cache.Put(keys[i], &simsvc.JobResult{})
	}
	const gets = 200000
	ctx := context.Background()
	lc.cacheGet = medianNS(gets, func() time.Duration {
		hits := 0
		t := time.Now()
		for i := 0; i < gets; i++ {
			if _, ok := cache.Get(ctx, keys[i&63]); ok {
				hits++
			}
		}
		d := time.Since(t)
		if hits != gets && err == nil {
			err = fmt.Errorf("cache answered %d of %d gets", hits, gets)
		}
		return d
	})
	return lc, err
}

// referenceKernel is a kernel on the infinite-window Reference manager,
// so isolated scheduler timings include no window traffic.
func referenceKernel() *sched.Kernel {
	return sched.NewKernel(core.New(core.SchemeReference, core.Config{Windows: 8}), sched.FIFO)
}

// timeStream moves n bytes from a producer to a consumer thread through
// one stream of the given capacity.
func timeStream(capacity, n int) (time.Duration, error) {
	k := referenceKernel()
	s, err := stream.New(k, "bench", capacity)
	if err != nil {
		return 0, err
	}
	got := 0
	k.Spawn("producer", func(e *sched.Env) {
		for i := 0; i < n; i++ {
			s.Put(e, byte(i))
		}
		s.Close(e)
	})
	k.Spawn("consumer", func(e *sched.Env) {
		for {
			if _, ok := s.Get(e); !ok {
				return
			}
			got++
		}
	})
	t := time.Now()
	err = k.Run()
	d := time.Since(t)
	if err == nil && got != n {
		err = fmt.Errorf("stream delivered %d of %d bytes", got, n)
	}
	return d, err
}

// report sets the isolated per-call metrics.
func (lc layerCosts) report(rep *report) {
	rep.set("mem.store32.ns", lc.store32)
	rep.set("mem.load32.ns", lc.load32)
	rep.set("regwin.op.ns", lc.regwin)
	rep.set("sched.handoff.ns", lc.handoff)
	rep.set("stream.byte_handoff.ns", lc.streamHandoff)
	rep.set("stream.byte_buffered.ns", lc.streamBuffered)
	rep.set("cache.get.ns", lc.cacheGet)
}

// ledger predicts a pass's wall time from its own counts times the
// isolated costs: 16 stores per spilled window, 16 loads per filled
// one, one regwin operation per save, restore and moved window, one
// scheduler handoff per context switch, one buffered stream transfer
// per byte and one cache lookup per pool submission, divided over the
// workers that ran the cells. What the prediction misses
// (window-manager bookkeeping, the guest programs' own work) is the
// residual.
func ledger(rep *report, c *stats.Counters, streamBytes, cacheGets uint64, workers int, measured float64, lc layerCosts) {
	spilled := float64(c.SwitchSaves + c.TrapSaves + c.MigrationSaves)
	filled := float64(c.SwitchRestores + c.TrapRestores)
	ns := 16*spilled*lc.store32 + 16*filled*lc.load32 +
		float64(c.Saves+c.Restores)*lc.regwin + (spilled+filled)*lc.regwin +
		float64(c.Switches)*lc.handoff + float64(streamBytes)*lc.streamBuffered +
		float64(cacheGets)*lc.cacheGet
	predicted := ns / 1e9 / float64(workers)
	rep.set("ledger.predicted_wall_s", predicted)
	rep.set("ledger.residual_pct", 100*(measured-predicted)/measured)
	rep.notef("ledger predicted_wall_s=%.4f measured_wall_s=%.4f residual=%.1f%% (workers=%d)",
		predicted, measured, 100*(measured-predicted)/measured, workers)
}
