package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	rabit "repro"
	"repro/internal/action"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/obs"
	"repro/internal/state"
)

// The gateway ladder: fixed open-loop rates in batches per second over
// both client connections, chosen once against the gateway's measured
// closed-loop capacity of 6-9k batches/s on the 2-core reference
// machine (see README.md), and the p99 latency limit a rate must meet to
// count as sustained (max_rate_per_s). The top rate's completed
// batches/s is the gated throughput: it reads the offered rate until the
// gateway falls behind, and unlike the highest rate meeting the limit it
// does not flip between rungs with host noise.
var gatewayRates = []float64{300, 600, 1200}

// gatewayShares splits the run's seconds across the rungs; the middle
// one, whose latency is reported, gets most of them.
var gatewayShares = []float64{0.2, 0.6, 0.2}

const (
	gatewayMidRung = 1
	gatewayLimit   = 20 * time.Millisecond
	// gatewayWorkers is the client connection count: each worker owns one
	// connection and two sessions and sends its share of the schedule.
	gatewayWorkers  = 2
	gatewaySessions = 4
	// gatewayWarmBatches is each worker's untimed closed-loop lead-in.
	gatewayWarmBatches = 200
)

// Request headers that tie a traced batch's server-side spans to its
// operation: the op number and the lab/device it commands.
const (
	headerOp  = "X-Rabitbench-Op"
	headerKey = "X-Rabitbench-Key"
)

// gatewayTrace records a traced gateway run's spans from the client
// workers, the handler wrapper and the tenants' engine environments.
type gatewayTrace struct {
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	current map[string]int64 // lab/device → op being served
}

func newGatewayTrace() *gatewayTrace {
	return &gatewayTrace{epoch: time.Now(), current: map[string]int64{}}
}

func (t *gatewayTrace) now() int64 { return int64(time.Since(t.epoch)) }

func (t *gatewayTrace) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

func (t *gatewayTrace) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap decorates the gateway's http.Handler with a gateway.handler span
// per traced batch.
func (t *gatewayTrace) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.ParseInt(r.Header.Get(headerOp), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		key := r.Header.Get(headerKey)
		start := t.now()
		t.mu.Lock()
		t.current[key] = op
		t.mu.Unlock()
		h.ServeHTTP(w, r)
		end := t.now()
		t.mu.Lock()
		delete(t.current, key)
		t.spans = append(t.spans, span{op: op, layer: layerHandler, start: start, end: end})
		t.mu.Unlock()
	})
}

// gatewayEnv decorates a tenant engine's environment (attached with
// Engine.Rebind): each scoped fetch becomes an env.fetch span of the
// batch being served for the fetched device.
type gatewayEnv struct {
	core.ScopedEnvironment
	lab string
	t   *gatewayTrace
}

func (e *gatewayEnv) FetchStateScoped(ids []string) state.Snapshot {
	start := e.t.now()
	s := e.ScopedEnvironment.FetchStateScoped(ids)
	end := e.t.now()
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	for _, id := range ids {
		if op, ok := e.t.current[e.lab+"/"+id]; ok {
			e.t.spans = append(e.t.spans, span{op: op, layer: layerFetch, start: start, end: end})
			break
		}
	}
	return s
}

// gatewaySession is one attached session and the device it commands.
type gatewaySession struct {
	id, lab, device string
}

// gatewayBench is a gateway behind a loopback HTTP server with its
// sessions attached and one client per worker.
type gatewayBench struct {
	gw       *gateway.Gateway
	srv      *http.Server
	served   chan error
	url      string
	sessions []gatewaySession
	clients  []*http.Client
	mu       sync.Mutex
	systems  []*rabit.System
}

// gatewayLab names tenant i's fleet deck.
func gatewayLab(i int) string { return fmt.Sprintf("bench-fleet-%c", 'a'+i) }

// newGatewayBench builds the gateway, serves it on a loopback port, and
// attaches gatewaySessions sessions over HTTP across two fleet-deck
// tenants: session s is on tenant s%2 and owns device s/2 there.
func newGatewayBench(seed uint64, gt *gatewayTrace) (*gatewayBench, error) {
	b := &gatewayBench{served: make(chan error, 1)}
	b.gw = gateway.New(gateway.Options{
		System: rabit.Options{Seed: int64(seed)},
		ConfigureSystem: func(lab string, sys *rabit.System) {
			if gt != nil {
				sys.Engine.Rebind(&gatewayEnv{ScopedEnvironment: sys.Env, lab: lab, t: gt})
			}
			b.mu.Lock()
			b.systems = append(b.systems, sys)
			b.mu.Unlock()
		},
	})
	var h http.Handler = b.gw.Handler()
	if gt != nil {
		h = gt.wrap(h)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.gw.Close()
		return nil, err
	}
	b.url = "http://" + ln.Addr().String()
	b.srv = &http.Server{Handler: h}
	go func() { b.served <- b.srv.Serve(ln) }()
	for range gatewayWorkers {
		b.clients = append(b.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
		}})
	}
	for s := range gatewaySessions {
		lab := gatewayLab(s % 2)
		raw, err := json.Marshal(fleetSpec(lab, gatewaySessions/2))
		if err != nil {
			b.close()
			return nil, err
		}
		id, err := b.createSession(raw)
		if err != nil {
			b.close()
			return nil, fmt.Errorf("create session: %w", err)
		}
		b.sessions = append(b.sessions, gatewaySession{id: id, lab: lab, device: fleetDevice(s / 2)})
	}
	return b, nil
}

func (b *gatewayBench) createSession(spec []byte) (string, error) {
	body, err := json.Marshal(gateway.CreateSessionRequest{Spec: spec})
	if err != nil {
		return "", err
	}
	resp, err := b.clients[0].Post(b.url+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return "", fmt.Errorf("status %d", resp.StatusCode)
	}
	var info gateway.SessionInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", err
	}
	return info.SessionID, nil
}

// close stops the server, waits for it, and closes the gateway.
func (b *gatewayBench) close() {
	b.srv.Close()
	<-b.served
	for _, c := range b.clients {
		c.CloseIdleConnections()
	}
	b.gw.Close()
}

// rejects sums the gateway's admission rejections (HTTP 429s).
func (b *gatewayBench) rejects() int64 {
	var n int64
	for _, snap := range b.gw.Group().Snapshots() {
		if fam, ok := snap.Family(obs.FamilyGatewayRejections); ok {
			for _, c := range fam.Counters {
				n += c.Value
			}
		}
	}
	return n
}

// batchResult is one batch's outcome as the client saw it.
type batchResult struct {
	sent, first, last time.Time
	verdicts          []string
	err               error
}

// send posts one batch and reads its NDJSON verdict stream. op ≥ 0 tags
// the request for the traced run's handler and fetch spans.
func (b *gatewayBench) send(client *http.Client, s gatewaySession, body []byte, op int64) batchResult {
	var res batchResult
	req, err := http.NewRequest(http.MethodPost, b.url+"/v1/sessions/"+s.id+"/commands", bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	if op >= 0 {
		req.Header.Set(headerOp, strconv.FormatInt(op, 10))
		req.Header.Set(headerKey, s.lab+"/"+s.device)
	}
	res.sent = time.Now()
	resp, err := client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		res.err = fmt.Errorf("status %d", resp.StatusCode)
		return res
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if res.first.IsZero() {
			res.first = time.Now()
		}
		var cr gateway.CommandResult
		if err := json.Unmarshal(sc.Bytes(), &cr); err != nil {
			res.err = err
			return res
		}
		v := verdictOK
		switch {
		case cr.Alert != nil:
			v = cr.Alert.Kind
		case cr.Outcome != gateway.OutcomeOK:
			v = "error: " + cr.Detail
		}
		res.verdicts = append(res.verdicts, v)
	}
	res.last = time.Now()
	res.err = sc.Err()
	return res
}

// gatewayBatch is one scheduled batch: a fleet cycle and its body.
type gatewayBatch struct {
	due  time.Duration
	cmds []labelled
	body []byte
}

// gatewaySchedule generates n batches of one rung: Poisson due times at
// rate and one seeded fleet cycle each, on the device of the session
// batch k is sent on.
func gatewaySchedule(seed uint64, rung int, rate float64, n int, sessions []gatewaySession) ([]gatewayBatch, error) {
	r := newRNG(seed, 200+uint64(rung))
	due := poissonSchedule(r, rate, n)
	out := make([]gatewayBatch, n)
	for k := range out {
		s := sessions[sessionFor(k)]
		cmds := fleetCycle(r, s.device)
		batch := gateway.CommandBatch{Commands: make([]action.Command, len(cmds))}
		for i, c := range cmds {
			batch.Commands[i] = c.cmd
		}
		body, err := json.Marshal(batch)
		if err != nil {
			return nil, err
		}
		out[k] = gatewayBatch{due: due[k], cmds: cmds, body: body}
	}
	return out, nil
}

// workerFor and sessionFor split the schedule: batch k goes to worker
// k%2, which alternates between its two sessions, so no session ever
// has two batches in flight.
func workerFor(k int) int  { return k % gatewayWorkers }
func sessionFor(k int) int { return workerFor(k) + gatewayWorkers*((k/gatewayWorkers)%2) }

// rungResult is one fixed-rate rung's measurement.
type rungResult struct {
	rate       float64
	batches    int
	latency    samples // due → last verdict
	firstNS    samples // sent → first verdict
	late       samples // due → sent
	backlogMax int
	achieved   float64 // completed batches per second
	verdicts   [][]string
	failed     int64
	firstBad   string
}

func (r *rungResult) meets() bool {
	return r.failed == 0 && len(r.latency) > 0 && time.Duration(r.latency.p99()) <= gatewayLimit
}

// runRung sends one rung's schedule open loop: each worker sleeps until
// a batch is due and sends it at once if it is already late, so a stall
// delays later batches and their latency, timed from the due time,
// shows it.
func (b *gatewayBench) runRung(batches []gatewayBatch, rate float64, gt *gatewayTrace, opBase int64) *rungResult {
	res := &rungResult{rate: rate, batches: len(batches), verdicts: make([][]string, len(batches))}
	start := time.Now().Add(10 * time.Millisecond)
	type workerOut struct {
		latency, first, late samples
		backlog              int
		last                 time.Time
		failed               int64
		firstBad             string
	}
	outs := make([]workerOut, gatewayWorkers)
	var wg sync.WaitGroup
	for w := range gatewayWorkers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := &outs[w]
			for k := w; k < len(batches); k += gatewayWorkers {
				bt := batches[k]
				due := start.Add(bt.due)
				sleepUntil(due)
				now := time.Now()
				backlog := 0
				for j := k; j < len(batches) && !start.Add(batches[j].due).After(now); j += gatewayWorkers {
					backlog++
				}
				o.backlog = max(o.backlog, backlog)
				op := int64(-1)
				if gt != nil {
					op = opBase + int64(k)
				}
				r := b.send(b.clients[w], b.sessions[sessionFor(k)], bt.body, op)
				res.verdicts[k] = r.verdicts
				bad := r.err
				if bad == nil {
					bad = checkLabels(bt.cmds, r.verdicts)
				}
				if bad != nil {
					o.failed++
					if o.firstBad == "" {
						o.firstBad = fmt.Sprintf("batch %d: %v", k, bad)
					}
					continue
				}
				o.latency = append(o.latency, int64(r.last.Sub(due)))
				o.first = append(o.first, int64(r.first.Sub(r.sent)))
				o.late = append(o.late, int64(r.sent.Sub(due)))
				o.last = r.last
				if gt != nil {
					gt.add(span{op: op, layer: layerOp, start: gt.at(due), end: gt.at(r.last)})
					gt.add(span{op: op, layer: layerWait, start: gt.at(due), end: gt.at(r.sent)})
					gt.add(span{op: op, layer: layerClient, start: gt.at(r.sent), end: gt.at(r.last)})
				}
			}
		}(w)
	}
	wg.Wait()
	var last time.Time
	for _, o := range outs {
		res.latency = append(res.latency, o.latency...)
		res.firstNS = append(res.firstNS, o.first...)
		res.late = append(res.late, o.late...)
		res.backlogMax = max(res.backlogMax, o.backlog)
		res.failed += o.failed
		if res.firstBad == "" {
			res.firstBad = o.firstBad
		}
		if o.last.After(last) {
			last = o.last
		}
	}
	if el := last.Sub(start); el > 0 {
		res.achieved = float64(len(res.latency)) / el.Seconds()
	}
	return res
}

// sleepUntil blocks until t: nanosleep to within spinWindow of it, then
// a yielding spin. The runtime's timers wake sleepers on a millisecond
// grain on Linux, and nanosleep alone still overshoots by tens of
// microseconds, which would add the generator's own lateness to every
// batch.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t) - spinWindow
		if d <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// spinWindow is how long before a due time sleepUntil stops sleeping.
const spinWindow = 200 * time.Microsecond

// checkLabels compares a batch's verdicts with its labels.
func checkLabels(cmds []labelled, verdicts []string) error {
	if len(verdicts) != len(cmds) {
		return fmt.Errorf("%d verdicts for %d commands", len(verdicts), len(cmds))
	}
	for i, c := range cmds {
		if verdicts[i] != c.label {
			return fmt.Errorf("%s: got %s, labelled %s", c.cmd, verdicts[i], c.label)
		}
	}
	return nil
}

// warm has each worker send its share of batches back to back, cycling
// through them, until it has sent gatewayWarmBatches.
func (b *gatewayBench) warm(batches []gatewayBatch) error {
	errs := make([]error, gatewayWorkers)
	var wg sync.WaitGroup
	for w := range gatewayWorkers {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < gatewayWarmBatches*gatewayWorkers; k += gatewayWorkers {
				bt := batches[k%len(batches)]
				r := b.send(b.clients[w], b.sessions[sessionFor(k%len(batches))], bt.body, -1)
				if r.err == nil {
					r.err = checkLabels(bt.cmds, r.verdicts)
				}
				if r.err != nil {
					errs[w] = fmt.Errorf("batch %d: %w", k, r.err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// gatewayPool is how many distinct batches the warm-up cycles through
// (a multiple of four, so batch k keeps its session).
const gatewayPool = 400

// gatewayPhase builds the gateway setupRepeats times, warms the last
// build, and runs the given rungs (indices into gatewayRates), rung i
// for d[i].
func gatewayPhase(cfg runConfig, rungs []int, d []time.Duration, gt *gatewayTrace) (*gatewayRun, error) {
	run := &gatewayRun{}
	for range setupRepeats {
		if run.b != nil {
			run.b.close()
		}
		runtime.GC() // a build measures its own allocation, not an earlier one's collection
		t0 := time.Now()
		b, err := newGatewayBench(cfg.seed, gt)
		if err != nil {
			return nil, err
		}
		run.b = b
		run.setup = append(run.setup, time.Since(t0))
	}
	b := run.b
	pool, err := gatewaySchedule(cfg.seed, 99, 1, gatewayPool, b.sessions)
	if err == nil {
		err = b.warm(pool)
	}
	if err != nil {
		b.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	run.proc[0] = readProc()
	for j, i := range rungs {
		rate := gatewayRates[i]
		n := int(rate * d[j].Seconds())
		batches, err := gatewaySchedule(cfg.seed, i, rate, n, b.sessions)
		if err != nil {
			b.close()
			return nil, err
		}
		// Each rung starts from a collected heap, so every run meets the
		// collector at the same points of its schedule.
		runtime.GC()
		run.rungs = append(run.rungs, b.runRung(batches, rate, gt, int64(i)<<40))
	}
	run.proc[1] = readProc()
	run.heapMB = liveHeapMB(0)
	return run, nil
}

// gatewayRun is one gateway phase: the last build, its set-up times, the
// rung results, and process and heap readings around the rungs.
type gatewayRun struct {
	b      *gatewayBench
	setup  []time.Duration
	rungs  []*rungResult
	proc   [2]procStats
	heapMB float64 // live heap after the rungs
}

// runGateway is the gateway workload: open-loop Poisson batches over
// loopback HTTP at a fixed-rate ladder, two fleet-deck tenants.
func runGateway(cfg runConfig) (*report, error) {
	rep := newReport()
	if !cfg.trace {
		all := make([]int, len(gatewayRates))
		durs := make([]time.Duration, len(gatewayRates))
		for i := range all {
			all[i] = i
			durs[i] = time.Duration(gatewayShares[i] * float64(cfg.seconds))
		}
		run, err := gatewayPhase(cfg, all, durs, nil)
		if err != nil {
			return nil, err
		}
		defer run.b.close()
		rep.set("setup_s", "s", medianDuration(run.setup).Seconds(), len(run.setup), "median of builds")
		mid := run.rungs[gatewayMidRung]
		rep.setLatency("latency_us", "us", mid.latency, 1e3, fmt.Sprintf("batch, due to last verdict, at %.0f/s", mid.rate))
		rep.setLatency("batch_ms", "ms", mid.latency, 1e6, fmt.Sprintf("at %.0f/s", mid.rate))
		for _, r := range run.rungs {
			if r.meets() {
				rep.set("max_rate_per_s", "1/s", r.rate, 0, fmt.Sprintf("highest ladder rate with p99 <= %s", gatewayLimit))
			}
			rep.infof("rung %5.0f/s: batches=%d completed/s=%.1f batch_ms.p50=%.3f p90=%.3f p99=%.3f late_us.p99=%.1f backlog_max=%d meets=%v",
				r.rate, r.batches, r.achieved, float64(r.latency.quantile(0.5))/1e6, float64(r.latency.quantile(0.9))/1e6, float64(r.latency.p99())/1e6,
				us(r.late.quantile(0.99)), r.backlogMax, r.meets())
			rep.count(int64(r.batches), r.failed)
			if r.firstBad != "" {
				rep.problem("rung %.0f/s: %d batches failed; first: %s", r.rate, r.failed, r.firstBad)
			}
		}
		top := run.rungs[len(run.rungs)-1]
		rep.set("throughput_per_s", "1/s", top.achieved, len(top.latency),
			fmt.Sprintf("completed batches/s at the top rate, %.0f/s offered", top.rate))
		rep.set("live_heap_mb", "MB", run.heapMB, 0, "after the rungs")
		rep.infof("issue names: batch_ms.* = latency_us.* / 1000 at the middle rung")
		return rep, nil
	}

	mid := []int{gatewayMidRung}
	half := []time.Duration{cfg.seconds / 2}
	pr, err := gatewayPhase(cfg, mid, half, nil)
	if err != nil {
		return nil, err
	}
	pr.b.close()
	gt := newGatewayTrace()
	tr, err := gatewayPhase(cfg, mid, half, gt)
	if err != nil {
		return nil, err
	}
	defer tr.b.close()
	p, t := pr.rungs[0], tr.rungs[0]
	for _, r := range []*rungResult{p, t} {
		rep.count(int64(r.batches), r.failed)
		if r.firstBad != "" {
			rep.problem("%d batches failed; first: %s", r.failed, r.firstBad)
		}
	}
	for k := range p.verdicts {
		if fmt.Sprint(p.verdicts[k]) != fmt.Sprint(t.verdicts[k]) {
			rep.problem("batch %d: traced verdicts %v differ from untraced %v", k, t.verdicts[k], p.verdicts[k])
			break
		}
	}
	gt.mu.Lock()
	spans := gt.spans
	gt.mu.Unlock()
	var agg layerAgg
	agg.addAll(spans)
	agg.report(rep)
	if len(t.firstNS) > 0 {
		rep.set("gateway.first_verdict_us.p50", "us", us(t.firstNS.quantile(0.5)), len(t.firstNS), "request sent to first NDJSON line")
	}
	rep.set("gateway.rejects", "count", float64(tr.b.rejects()), 0, programMeasured)
	rep.set("loadgen.late_us.p99", "us", us(t.late.quantile(0.99)), len(t.late), "due to sent")
	rep.set("loadgen.backlog_max", "count", float64(t.backlogMax), 0, "")
	rep.setProcess(pr.proc[0], pr.proc[1], int64(len(p.latency)))
	if len(pr.b.systems) > 0 {
		sys := pr.b.systems[0]
		var totals engineTotals
		totals.add(sys.Engine)
		rep.programStages(sys.Obs, totals)
		rep.infof("program-measured layers read from tenant %s", gatewayLab(0))
	}
	rep.setTail("latency_us", p.latency, "batch, due to last verdict, untraced half")
	base, with := p.latency.quantile(0.5), t.latency.quantile(0.5)
	rep.set("tracing_overhead", "ratio", ratio(float64(with), float64(base))-1, 0, "batch latency p50 traced / untraced - 1")
	if len(spans) > maxDumpSpans {
		spans = spans[:maxDumpSpans]
	}
	return rep, rep.writeSpans(cfg, spans)
}
