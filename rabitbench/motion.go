package main

import (
	"runtime"
	"time"

	rabit "repro"
	"repro/internal/labs"
	"repro/internal/trace"
)

// runMotion is the motion workload: the testbed deck with the Extended
// Simulator and one script using DoLookahead over a seeded mix of
// station revisits, jittered fresh targets, door toggles, hotplate
// cycles and must-block commands.
func runMotion(cfg runConfig) (*report, error) {
	return runClosedLoop(cfg, motionPhase)
}

// newMotionSystem builds the testbed with the Extended Simulator and the
// motion script's interceptor behind the benchmark's decorators.
func newMotionSystem(seed uint64, p *probe) (*rabit.System, *checker, *trace.Interceptor, error) {
	sys, err := rabit.New(labs.TestbedSpec(), rabit.Options{ExtendedSimulator: true, Seed: int64(seed)})
	if err != nil {
		return nil, nil, nil, err
	}
	ck := &checker{Engine: sys.Engine, p: p}
	if p.traced {
		ck.st = newStageReader(sys.Obs)
	}
	ic := trace.NewInterceptor(ck, &executor{Executor: sys.Env, p: p})
	ic.SetObserver(sys.Obs)
	ic.SetRecorder(sys.Recorder)
	ic.SetTracer(sys.Tracer)
	if p.traced {
		sys.Engine.Rebind(&engineEnv{ScopedEnvironment: sys.Env, fallback: p})
	}
	return sys, ck, ic, nil
}

// motionStep issues one command with lookahead, restarts the engine
// after a block as an operator resuming the lab would, and waits for
// speculation to settle, standing in for arm travel time. It reports
// whether the engine was restarted; the engine's counters are folded
// into totals first, since Start resets them.
func motionStep(sys *rabit.System, s *script, stream *motionStream, measured bool, totals *engineTotals) bool {
	c := stream.next()
	nxt := stream.peek()
	op := s.p.beginOp(s.ops)
	m := s.p.begin(layerDo)
	err := s.ic.DoLookahead(c.cmd, nxt.cmd)
	s.p.end(m)
	s.p.endOp(op)
	s.record(c, err, measured)
	restarted := sys.Engine.Stopped() != nil
	if restarted {
		totals.add(sys.Engine)
		sys.Engine.Start()
	}
	sys.Engine.WaitSpeculation()
	return restarted
}

// motionPhase builds the motion system setupRepeats times and runs the
// script for d after the warm-up.
func motionPhase(cfg runConfig, d time.Duration, traced bool) (*phase, error) {
	ph := &phase{}
	epoch := time.Now()
	var sys *rabit.System
	var stream *motionStream
	for range setupRepeats {
		if sys != nil {
			sys.Close()
		}
		runtime.GC() // a build measures its own allocation, not an earlier one's collection
		t0 := time.Now()
		p := newProbe(epoch, traced)
		var ic *trace.Interceptor
		var err error
		sys, ph.checker, ic, err = newMotionSystem(cfg.seed, p)
		if err != nil {
			return nil, err
		}
		stream = newMotionStream(cfg.seed)
		ph.scripts = []*script{{ic: ic, p: p, next: stream.next}}
		ph.setup = append(ph.setup, time.Since(t0))
	}
	defer sys.Close()

	s := ph.scripts[0]
	from := time.Now().Add(warmup(d))
	deadline := from.Add(d)
	started := false
	for {
		now := time.Now()
		if now.After(deadline) {
			break
		}
		measured := !now.Before(from)
		if measured && !started {
			started = true
			ph.proc[0] = readProc()
		}
		if motionStep(sys, s, stream, measured, &ph.totals) {
			ph.restarts++
		}
	}
	ph.wall = time.Since(from)
	ph.proc[1] = readProc()
	s.ic.FinishTrace()
	ph.heapMB = liveHeapMB(ph.harnessBytes())
	ph.totals.add(sys.Engine)
	ph.obs = sys.Obs
	return ph, nil
}
