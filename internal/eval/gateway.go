package eval

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	rabit "repro"
	"repro/internal/gateway"
)

// GatewayThroughputOptions configures the gateway deployment of the
// replay-throughput benchmark: the same synthetic hotplate fleets and
// command cycles as Throughput, but issued over the gateway's HTTP API
// against a pool of lab tenants — measuring the full service path
// (session admission, JSON decode, engine checks, NDJSON verdict
// streaming) instead of in-process interceptor calls.
type GatewayThroughputOptions struct {
	// Labs is the number of lab tenants in the gateway's engine pool.
	Labs int
	// Scripts is the total number of concurrent experiment scripts,
	// spread round-robin across the lab tenants (one session each).
	Scripts int
	// CommandsPerScript and Speedup are as in ThroughputOptions.
	CommandsPerScript int
	Speedup           float64
	// System is every tenant's stack configuration, passed to the
	// gateway as gateway.Options.System.
	System rabit.Options
}

// GatewayThroughput boots an in-process gateway, attaches one session
// per script across Labs tenants, replays every script's command cycle
// as one streamed batch, and measures aggregate commands/sec end to
// end over HTTP.
func GatewayThroughput(o GatewayThroughputOptions) (*ThroughputResult, error) {
	if o.Labs <= 0 {
		o.Labs = 4
	}
	if o.Scripts < o.Labs {
		o.Scripts = o.Labs
	}
	if o.CommandsPerScript <= 0 {
		o.CommandsPerScript = 40
	}
	perLab := (o.Scripts + o.Labs - 1) / o.Labs

	var mu sync.Mutex
	systems := map[string]*rabit.System{}
	gw := gateway.New(gateway.Options{
		System: o.System,
		// The benchmark measures checking throughput, not backpressure:
		// size the admission queue so every script on a lab can be in
		// flight at once.
		QueueDepth: perLab,
		MaxTenants: o.Labs,
		ConfigureSystem: func(lab string, sys *rabit.System) {
			if o.Speedup > 0 {
				sys.Env.SetPacing(o.Speedup)
			}
			mu.Lock()
			systems[lab] = sys
			mu.Unlock()
		},
	})
	defer gw.Close()
	srv := httptest.NewServer(gw.Handler())
	defer srv.Close()

	// One session per script: script g lives on lab g%Labs and owns
	// device hp(g/Labs) of that lab's fleet.
	type scriptRun struct {
		session string
		device  string
	}
	runs := make([]scriptRun, o.Scripts)
	for g := 0; g < o.Scripts; g++ {
		lab := g % o.Labs
		spec := throughputSpec(perLab)
		spec.Lab = fmt.Sprintf("throughput-%02d", lab)
		rawSpec, err := json.Marshal(spec)
		if err != nil {
			return nil, fmt.Errorf("eval: gateway throughput: %w", err)
		}
		info, err := postJSON[gateway.SessionInfo](srv.URL+"/v1/sessions",
			gateway.CreateSessionRequest{Spec: rawSpec}, http.StatusCreated)
		if err != nil {
			return nil, fmt.Errorf("eval: gateway throughput: create session: %w", err)
		}
		runs[g] = scriptRun{
			session: info.SessionID,
			device:  fmt.Sprintf("hp%02d", g/o.Labs),
		}
	}

	errs := make([]error, o.Scripts)
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < o.Scripts; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			script := throughputScript(runs[g].device, o.CommandsPerScript)
			n, err := streamCommands(srv.URL, runs[g].session, gateway.CommandBatch{Commands: script})
			if err != nil {
				errs[g] = fmt.Errorf("script %d: %w", g, err)
				return
			}
			if n != len(script) {
				errs[g] = fmt.Errorf("script %d: %d of %d verdicts streamed", g, n, len(script))
			}
		}(g)
	}
	wg.Wait()
	wall := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("eval: gateway throughput: %w", err)
		}
	}

	var check time.Duration
	var commands int
	for _, sys := range systems {
		if sys.Engine == nil {
			continue
		}
		c, n := sys.Engine.CheckOverhead()
		check += c
		commands += n
		if a := sys.Engine.Stopped(); a != nil {
			return nil, fmt.Errorf("eval: gateway throughput: unexpected alert: %s", a.Error())
		}
	}
	res := &ThroughputResult{
		Mode:     "gateway",
		Labs:     o.Labs,
		Scripts:  o.Scripts,
		Commands: commands,
		Wall:     wall,
	}
	if wall > 0 {
		res.CommandsPerSec = float64(commands) / wall.Seconds()
	}
	if commands > 0 {
		res.CheckPerCommand = check / time.Duration(commands)
	}
	return res, nil
}

// postJSON posts a JSON body and decodes a JSON response of type T,
// insisting on the given status.
func postJSON[T any](url string, body any, wantStatus int) (*T, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var eb gateway.ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, eb.Error)
	}
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}

// streamCommands posts one command batch and consumes the NDJSON
// verdict stream, returning how many ok verdicts arrived. Any non-ok
// verdict is an error.
func streamCommands(baseURL, session string, batch gateway.CommandBatch) (int, error) {
	raw, err := json.Marshal(batch)
	if err != nil {
		return 0, err
	}
	resp, err := http.Post(baseURL+"/v1/sessions/"+session+"/commands",
		"application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var eb gateway.ErrorBody
		_ = json.NewDecoder(resp.Body).Decode(&eb)
		return 0, fmt.Errorf("status %d: %s", resp.StatusCode, eb.Error)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	n := 0
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var res gateway.CommandResult
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return n, fmt.Errorf("verdict line %d: %w", n+1, err)
		}
		if res.Outcome != gateway.OutcomeOK {
			return n, fmt.Errorf("command %s: %s: %s", res.Cmd, res.Outcome, res.Detail)
		}
		n++
	}
	return n, sc.Err()
}
