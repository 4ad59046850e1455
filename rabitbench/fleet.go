package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	rabit "repro"
	"repro/internal/obs"
	"repro/internal/trace"
)

// setupRepeats is how many times a run builds the workload's system:
// builds take well under a millisecond to a few, so setup_s is the
// median of many, and the last build serves the timed phase.
const setupRepeats = 21

// warmup is the untimed lead-in of every timed phase: caches fill and
// lazy set-up finishes before measurement starts.
func warmup(d time.Duration) time.Duration { return min(time.Second, d/10) }

// fleetScripts is the fleet workload's script count: one closed-loop
// script per core of the 2-core reference machine.
const fleetScripts = 2

// script is one closed-loop experiment script: its own interceptor,
// device and probe.
type script struct {
	ic       *trace.Interceptor
	p        *probe
	next     func() labelled
	verdicts []byte
	check    samples // Before + After per measured command
	block    samples // the same, for must-block commands
	opBase   int64   // added to op numbers so span files keep scripts apart
	ops      int64   // commands issued, warm-up included
	// checkSum and checkN mirror Engine.CheckOverhead: Before + After of
	// every command, and the number of commands that passed.
	checkSum, checkN int64
	measured         int64
	failed           int64
	firstBad         string
}

// phase is one timed run of a workload over fresh systems.
type phase struct {
	setup    []time.Duration
	scripts  []*script
	wall     time.Duration // measured interval
	heapMB   float64
	proc     [2]procStats  // at the start and end of the measured interval
	totals   engineTotals  // the engine's counters over the whole phase
	obs      *obs.Registry // the engine's registry, for program-measured layers
	checker  *checker      // the motion script's checker (stage samples when traced)
	restarts int64
}

func (ph *phase) latency() samples {
	var all samples
	for _, s := range ph.scripts {
		all = append(all, s.check...)
	}
	return all
}

func (ph *phase) measured() int64 {
	var n int64
	for _, s := range ph.scripts {
		n += s.measured
	}
	return n
}

// harnessBytes is what the phase's own sample buffers hold on the heap.
func (ph *phase) harnessBytes() int64 {
	var n int64
	for _, s := range ph.scripts {
		n += int64(cap(s.verdicts)) + 8*int64(cap(s.check)+cap(s.block)) + s.p.agg.heapBytes()
		n += int64(cap(s.p.dump)+cap(s.p.spans)) * 32
	}
	return n
}

// record appends one command's verdict and check time.
func (s *script) record(c labelled, err error, measured bool) {
	v := verdictOf(err)
	s.verdicts = append(s.verdicts, verdictCode(v))
	if v != c.label {
		s.failed++
		if s.firstBad == "" {
			s.firstBad = fmt.Sprintf("command %d %s: got %s, labelled %s (%v)", s.ops, c.cmd, v, c.label, err)
		}
	}
	s.checkSum += s.p.checkNS
	if err == nil {
		s.checkN++
	}
	if measured {
		s.measured++
		s.check = append(s.check, s.p.checkNS)
		if c.label != verdictOK {
			s.block = append(s.block, s.p.checkNS)
		}
	}
	s.ops++
}

// verdictCode packs a verdict into one byte for sequence comparison.
func verdictCode(v string) byte {
	switch v {
	case verdictOK:
		return 0
	case verdictInvalidCommand:
		return 1
	case verdictInvalidTrajectory:
		return 2
	}
	return 255
}

// runFleet is the fleet workload: an arm-free hotplate deck, two
// closed-loop scripts each owning a device and an interceptor, unpaced.
func runFleet(cfg runConfig) (*report, error) {
	return runClosedLoop(cfg, fleetPhase)
}

// runClosedLoop runs an in-process workload: one phase untraced, or an
// untraced and a traced half of equal length for the per-layer run.
func runClosedLoop(cfg runConfig, run func(runConfig, time.Duration, bool) (*phase, error)) (*report, error) {
	rep := newReport()
	if !cfg.trace {
		ph, err := run(cfg, cfg.seconds, false)
		if err != nil {
			return nil, err
		}
		ph.endToEnd(rep)
		return rep, nil
	}
	plain, err := run(cfg, cfg.seconds/2, false)
	if err != nil {
		return nil, err
	}
	traced, err := run(cfg, cfg.seconds/2, true)
	if err != nil {
		return nil, err
	}
	if err := traced.perLayer(rep, plain, cfg); err != nil {
		return nil, err
	}
	return rep, nil
}

// fleetPhase builds the fleet system setupRepeats times and runs the two
// scripts for d after the warm-up.
func fleetPhase(cfg runConfig, d time.Duration, traced bool) (*phase, error) {
	ph := &phase{}
	epoch := time.Now()
	var sys *rabit.System
	for range setupRepeats {
		if sys != nil {
			sys.Close()
		}
		runtime.GC() // a build measures its own allocation, not an earlier one's collection
		t0 := time.Now()
		var err error
		sys, err = rabit.New(fleetSpec("bench-fleet", fleetScripts), rabit.Options{Seed: int64(cfg.seed)})
		if err != nil {
			return nil, err
		}
		ph.scripts = make([]*script, fleetScripts)
		env := &engineEnv{ScopedEnvironment: sys.Env, owners: map[string]*probe{}}
		for g := range ph.scripts {
			p := newProbe(epoch, traced)
			ic := trace.NewInterceptor(&checker{Engine: sys.Engine, p: p}, &executor{Executor: sys.Env, p: p})
			ic.SetObserver(sys.Obs)
			ic.SetRecorder(sys.Recorder)
			ic.SetTracer(sys.Tracer)
			stream := newFleetStream(cfg.seed, g)
			ph.scripts[g] = &script{ic: ic, p: p, next: stream.next, opBase: int64(g) << 40}
			env.owners[fleetDevice(g)] = p
		}
		if traced {
			sys.Engine.Rebind(env)
		}
		ph.setup = append(ph.setup, time.Since(t0))
	}
	defer sys.Close()

	start := time.Now()
	from := start.Add(warmup(d))
	deadline := from.Add(d)
	var wg sync.WaitGroup
	var once sync.Once
	for _, s := range ph.scripts {
		wg.Add(1)
		go func(s *script) {
			defer wg.Done()
			for {
				now := time.Now()
				if now.After(deadline) {
					return
				}
				measured := !now.Before(from)
				if measured {
					once.Do(func() { ph.proc[0] = readProc() })
				}
				c := s.next()
				op := s.p.beginOp(s.opBase + s.ops)
				m := s.p.begin(layerDo)
				err := s.ic.Do(c.cmd)
				s.p.end(m)
				s.p.endOp(op)
				s.record(c, err, measured)
			}
		}(s)
	}
	wg.Wait()
	ph.wall = time.Since(from)
	ph.proc[1] = readProc()
	for _, s := range ph.scripts {
		s.ic.FinishTrace()
	}
	ph.heapMB = liveHeapMB(ph.harnessBytes())
	ph.totals.add(sys.Engine)
	ph.obs = sys.Obs
	return ph, nil
}
