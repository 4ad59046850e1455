package main

import (
	"fmt"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
)

// The campaign workload's fixed size: scenarios per campaign.Run, the
// worker count, and the fewest Runs one phase makes. A phase runs a
// series of campaign seeds derived from the workload seed — each seed
// jitters its own deck variants, so one seed alone would make a run's
// figures depend on three decks per lab — and ends by repeating the
// first seed, whose Summary.Counts() must match.
const (
	campaignN       = 250
	campaignWorkers = 2
	campaignMinRuns = 3
	// campaignMinScenarios makes the untraced phase long enough for a
	// p99 with ten samples beyond it.
	campaignMinScenarios = 1010
	// campaignPoll is how often the per-scenario latency poller reads
	// campaign.Progress.
	campaignPoll = time.Millisecond
)

// campaignPhase is one timed series of campaign.Run calls over a seed.
type campaignPhase struct {
	setup     []time.Duration // per Run: call time not inside Summary.WallNS
	generate  []time.Duration // traced: campaign.NewGenerator alone
	heapMB    []float64       // per Run: live heap with the run 90% done
	latency   samples         // per scenario, from Progress polling
	summaries []*campaign.Summary
	proc      [2]procStats
}

// campaignSeed is the i-th campaign master seed of a workload seed.
func campaignSeed(seed uint64, i int) uint64 { return newRNG(seed, 300+uint64(i)).next() }

// runCampaignPhase calls campaign.Run at N=campaignN over successive
// campaign seeds until d has passed (and at least minScenarios
// scenarios and campaignMinRuns Runs are done); the last Run repeats
// the first seed.
func runCampaignPhase(cfg runConfig, d time.Duration, traced bool, minScenarios int) (*campaignPhase, error) {
	ph := &campaignPhase{}
	deadline := time.Now().Add(d)
	ph.proc[0] = readProc()
	for i := 0; ; i++ {
		last := i+1 >= campaignMinRuns && (i+1)*campaignN >= minScenarios && !time.Now().Before(deadline)
		seed := campaignSeed(cfg.seed, i)
		if last {
			seed = campaignSeed(cfg.seed, 0)
		}
		if traced {
			t0 := time.Now()
			if _, err := campaign.NewGenerator(seed, 0); err != nil {
				return nil, err
			}
			ph.generate = append(ph.generate, time.Since(t0))
		}
		prog := campaign.NewProgress(obs.NewRegistry("rabitbench-campaign"))
		stop := make(chan struct{})
		polled := make(chan pollResult, 1)
		go func() { polled <- pollProgress(prog, stop, ph.latency) }()
		t0 := time.Now()
		sum, err := campaign.Run(campaign.Options{N: campaignN, Seed: seed, Workers: campaignWorkers, Progress: prog})
		total := time.Since(t0)
		close(stop)
		pr := <-polled
		if err != nil {
			return nil, err
		}
		ph.latency = pr.latency
		ph.heapMB = append(ph.heapMB, pr.heapMB)
		ph.setup = append(ph.setup, total-time.Duration(sum.WallNS))
		ph.summaries = append(ph.summaries, sum)
		if last {
			break
		}
	}
	ph.proc[1] = readProc()
	return ph, nil
}

// throughput is scenarios per second over all Runs' wall time.
func (ph *campaignPhase) throughput() float64 {
	var n, wall int64
	for _, s := range ph.summaries {
		n += int64(s.N)
		wall += s.WallNS
	}
	return ratio(float64(n), float64(wall)/1e9)
}

// pollResult is what the progress poller measured over one Run.
type pollResult struct {
	latency samples
	heapMB  float64
}

// pollProgress turns campaign.Progress's per-worker completion counts
// into per-scenario latencies: a worker runs its scenarios back to back,
// so the time between two of its completions is one scenario (±1 poll
// interval). Once the run is 90% done it reads the live heap, with every
// deck's pooled stacks and plan caches in use. It appends to into.
func pollProgress(p *campaign.Progress, stop <-chan struct{}, into samples) pollResult {
	res := pollResult{latency: into}
	var last []int64
	var lastT []time.Time
	for {
		select {
		case <-stop:
			return res
		default:
		}
		snap := p.Snapshot()
		now := time.Now()
		if snap.Running && last == nil && len(snap.Workers) > 0 {
			begun := now.Add(-time.Duration(snap.ElapsedSeconds * float64(time.Second)))
			last = make([]int64, len(snap.Workers))
			lastT = make([]time.Time, len(snap.Workers))
			for w := range lastT {
				lastT[w] = begun
			}
		}
		if last != nil && len(snap.Workers) == len(last) {
			for w, c := range snap.Workers {
				if k := c - last[w]; k > 0 {
					per := int64(now.Sub(lastT[w])) / k
					for range k {
						res.latency = append(res.latency, per)
					}
					last[w], lastT[w] = c, now
				}
			}
			if res.heapMB == 0 && snap.Done*10 >= snap.Total*9 {
				res.heapMB = liveHeapMB(8 * int64(cap(res.latency)))
			}
		}
		time.Sleep(campaignPoll)
	}
}

// check records the phase's attempted and failed scenarios (setup
// errors fail their scenarios) and compares Summary.Counts() of runs
// of one seed: the phase's repeat of its first seed, and — given other,
// a phase over the same seeds — every seed both phases ran. A mismatch
// fails that Run's scenarios.
func (ph *campaignPhase) check(rep *report, other *campaignPhase) {
	n := len(ph.summaries)
	for i, s := range ph.summaries {
		failed := s.SetupErrors
		want := ""
		switch {
		case i == n-1:
			want = ph.summaries[0].Counts()
		case other != nil && i < len(other.summaries)-1:
			want = other.summaries[i].Counts()
		}
		if c := s.Counts(); want != "" && c != want {
			failed = int64(s.N)
			rep.problem("campaign run %d: Summary.Counts() differ from another run of seed %016x:\n%s\nvs\n%s", i, s.Seed, c, want)
		}
		rep.count(int64(s.N), failed)
	}
}

// runCampaign is the campaign workload: campaign.Run at N=campaignN with
// two workers over a series of seeds.
func runCampaign(cfg runConfig) (*report, error) {
	rep := newReport()
	if !cfg.trace {
		ph, err := runCampaignPhase(cfg, cfg.seconds, false, campaignMinScenarios)
		if err != nil {
			return nil, err
		}
		ph.check(rep, nil)
		rep.set("setup_s", "s", medianDuration(ph.setup).Seconds(), len(ph.setup), "median per Run: generator and deck runtimes")
		rep.setLatency("latency_us", "us", ph.latency, 1e3, "scenario, oracle and protected replay")
		rep.set("throughput_per_s", "1/s", ph.throughput(), len(ph.summaries), fmt.Sprintf("scenarios/s over all Runs at N=%d, %d workers", campaignN, campaignWorkers))
		rep.set("live_heap_mb", "MB", liveHeapMB(8*int64(cap(ph.latency))), 0, "after the last Run returned")
		rep.set("campaign.inrun_heap_mb", "MB", medianFloat(ph.heapMB), len(ph.heapMB), "median per Run, read 90% through")
		rep.infof("issue names: scenarios_per_s = throughput_per_s")
		rep.infof("counts of the first run:\n%s", ph.summaries[0].Counts())
		return rep, nil
	}

	plain, err := runCampaignPhase(cfg, cfg.seconds/2, false, 0)
	if err != nil {
		return nil, err
	}
	traced, err := runCampaignPhase(cfg, cfg.seconds/2, true, 0)
	if err != nil {
		return nil, err
	}
	plain.check(rep, nil)
	traced.check(rep, plain)
	s := plain.summaries[0]
	t := s.Totals()
	count := func(name string, v int64) { rep.set(name, "count", float64(v), 0, programMeasured) }
	rep.set("campaign.generate_s", "s", medianDuration(traced.generate).Seconds(), len(traced.generate), "campaign.NewGenerator")
	count("campaign.detected", t.Detected)
	count("campaign.missed", t.Missed)
	count("campaign.false_alarms", s.FalseAlarms)
	count("campaign.oracle_errors", s.OracleErrors)
	count("campaign.run_errors", s.RunErrors)
	var scen int64
	for _, s := range plain.summaries {
		scen += int64(s.N)
	}
	rep.setProcess(plain.proc[0], plain.proc[1], scen)
	rep.setTail("latency_us", plain.latency, "scenario, untraced half")
	base, with := plain.latency.quantile(0.5), traced.latency.quantile(0.5)
	rep.set("tracing_overhead", "ratio", ratio(float64(with), float64(base))-1, 0,
		"scenario latency p50 with / without generator timing - 1")
	rep.infof("campaign.Run exposes no layer boundary to decorate: its per-layer metrics are the summary's counts and generator time")
	return rep, nil
}
