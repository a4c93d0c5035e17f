// Package loadgen is an open-loop load generator for the hummingbirdd
// session protocol. Open-loop means arrivals are scheduled by a clock,
// not by the completion of earlier requests: every operation has a
// scheduled intent time drawn from a constant-rate or Poisson arrival
// process, it is dispatched the moment that time arrives whether or not
// earlier operations have finished, and its latency is measured from the
// intent time. A server stall therefore shows up as the full queueing
// delay suffered by every operation scheduled during the stall — the
// coordinated-omission-safe measurement a closed-loop (request, wait,
// request) harness structurally cannot make. A second histogram per
// class records service time from request send, so latency minus service
// reads directly as client-side queueing.
//
// The generator holds a pool of concurrent sessions open against the
// daemon and schedules a weighted mix of operation classes over them:
//
//	open         session ramp-up (POST /v1/sessions)
//	edit_delay   delay-only edit batch (adjust)
//	edit_topo    topology edit batch (add + remove a buffer → full rebuild)
//	whatif       speculative edit, read the verdict, revert (3 requests)
//	report       full analysis report read
//	park_resume  close a session and re-open the same design
//
// A background poller watches /readyz: when the replica reports the
// draining state, the generator stops scheduling session-creating
// operations against it (ramp for a fleet drain story), while continuing
// the in-flight mix. Before and after the run it scrapes /metrics.json
// so client-observed latency can be correlated with server-side signals
// (fsync lag, inflight, GC pause, compile-cache occupancy). When trace
// tagging is on, every request carries a generator-chosen X-Trace-Id;
// after the run the slowest operation is replayed under its tag and the
// matching span tree is fetched from the session's /trace/last.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hummingbird/internal/benchfmt"
	"hummingbird/internal/telemetry"
)

// Operation class names (the opClass column of benchfmt.LoadRow).
const (
	OpOpen       = "open"
	OpEditDelay  = "edit_delay"
	OpEditTopo   = "edit_topo"
	OpWhatIf     = "whatif"
	OpReport     = "report"
	OpParkResume = "park_resume"
)

// Arrival processes.
const (
	ArrivalsConst   = "const"
	ArrivalsPoisson = "poisson"
)

// DefaultMix is the steady-state operation mix: mostly cheap delay
// edits and report reads, a trickle of expensive full-rebuild topology
// edits and park/resume cycles — the shape of an interactive
// analysis-redesign loop.
func DefaultMix() map[string]float64 {
	return map[string]float64{
		OpEditDelay:  0.55,
		OpReport:     0.20,
		OpWhatIf:     0.15,
		OpEditTopo:   0.05,
		OpParkResume: 0.05,
	}
}

// Config parameterises one load run.
type Config struct {
	// BaseURL of the target daemon, e.g. "http://127.0.0.1:7077".
	BaseURL string
	// Client defaults to an http.Client with a 30s timeout and raised
	// per-host connection limits.
	Client *http.Client
	// Rate is the total scheduled arrival rate in ops/sec.
	Rate float64
	// Arrivals is ArrivalsConst or ArrivalsPoisson.
	Arrivals string
	// Duration of the steady-state phase (after session ramp).
	Duration time.Duration
	// Sessions is the number of concurrent sessions to hold open.
	Sessions int
	// MaxConcurrent bounds in-flight operations (the worker pool). The
	// pool must be generous: a bounded pool that saturates re-introduces
	// coordination; saturation is therefore counted in Dropped. 0 = 512.
	MaxConcurrent int
	// QueueDepth bounds the dispatch backlog. 0 = 65536.
	QueueDepth int
	// Workload labels the rows (e.g. "sm1f").
	Workload string
	// Design is the netlist text sessions are opened with.
	Design string
	// EditInsts are instance names safe for delay adjustments.
	EditInsts []string
	// TopoNets are net names a temporary buffer may be hung off for
	// topology edits.
	TopoNets []string
	// Mix maps op class → weight; DefaultMix when nil.
	Mix map[string]float64
	// Seed drives every random choice; same seed, same schedule.
	Seed int64
	// TraceTag, when non-empty, prefixes an X-Trace-Id sent with every
	// request, and enables the slowest-op replay after the run.
	TraceTag string
	// Log receives progress lines; nil discards.
	Log io.Writer
	// DrainPoll is the /readyz polling interval. 0 = 250ms.
	DrainPoll time.Duration
	// ReadyzURL is the full URL the drain poller watches. It defaults to
	// BaseURL+"/readyz", which is right for a single replica; when
	// driving a fleet router, point it at one member's /readyz (or the
	// router's aggregate) so the drain ramp reacts to the replica being
	// rolled rather than to fleet-wide state.
	ReadyzURL string
	// Replicas labels the emitted bench rows with the fleet size behind
	// BaseURL (0 = standalone daemon, omitted from the row).
	Replicas int
}

func (c *Config) defaults() {
	if c.Client == nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = 256
		tr.MaxConnsPerHost = 0
		c.Client = &http.Client{Timeout: 30 * time.Second, Transport: tr}
	}
	if c.Arrivals == "" {
		c.Arrivals = ArrivalsConst
	}
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 512
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 65536
	}
	if c.Mix == nil {
		c.Mix = DefaultMix()
	}
	if c.Log == nil {
		c.Log = io.Discard
	}
	if c.DrainPoll <= 0 {
		c.DrainPoll = 250 * time.Millisecond
	}
	if c.ReadyzURL == "" {
		c.ReadyzURL = c.BaseURL + "/readyz"
	}
}

// ClassResult is one op class's accumulated outcome.
type ClassResult struct {
	Scheduled    int64
	Completed    int64
	Dropped      int64 // harness overload: dispatch queue or worker pool full
	SkippedDrain int64 // not scheduled because the replica was draining
	Shed         int64 // 429s
	Failed       int64 // 5xx + transport errors
	Errors       map[string]int64
	Latency      histStats // from scheduled intent (coordinated-omission safe)
	Service      histStats // from request send
}

// Result is one load run's outcome.
type Result struct {
	Workload string
	Arrivals string
	Rate     float64
	Sessions int
	Replicas int           // fleet size behind the target (0 = standalone)
	Duration time.Duration // measured steady-state window
	Classes  map[string]*ClassResult
	// ServerBefore/ServerAfter are the daemon's telemetry snapshots
	// scraped around the run (nil when /metrics.json was unreachable).
	ServerBefore, ServerAfter *telemetry.Metrics
	// DrainObserved reports whether /readyz ever answered "draining".
	DrainObserved bool
	// Slowest op across all classes, for the trace walkthrough.
	SlowestClass   string
	SlowestLatency time.Duration
	SlowestTraceID string
	// SlowestTrace is the span tree fetched from /trace/last after
	// replaying the slowest op under its trace id (TraceTag runs only).
	SlowestTrace json.RawMessage
}

// BenchRows converts the result into benchfmt load rows, one per op
// class that scheduled anything, sorted by class name.
func (r *Result) BenchRows() []benchfmt.LoadRow {
	names := make([]string, 0, len(r.Classes))
	for name, c := range r.Classes {
		if c.Scheduled == 0 && c.Completed == 0 {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	rows := make([]benchfmt.LoadRow, 0, len(names))
	secs := r.Duration.Seconds()
	for _, name := range names {
		c := r.Classes[name]
		row := benchfmt.LoadRow{
			Workload:   r.Workload,
			OpClass:    name,
			Arrivals:   r.Arrivals,
			Sessions:   r.Sessions,
			Replicas:   r.Replicas,
			DurationNs: r.Duration.Nanoseconds(),
			Scheduled:  c.Scheduled,
			Ops:        c.Completed,
			Shed:       c.Shed,
			Failed:     c.Failed,
			MeanNs:     c.Latency.Mean,
			P50Ns:      c.Latency.P50,
			P90Ns:      c.Latency.P90,
			P99Ns:      c.Latency.P99,
			P999Ns:     c.Latency.P999,
			MaxNs:      c.Latency.Max,

			ServiceP50Ns: c.Service.P50,
			ServiceP99Ns: c.Service.P99,
		}
		if len(c.Errors) > 0 {
			row.Errors = make(map[string]int64, len(c.Errors))
			for k, v := range c.Errors {
				row.Errors[k] = v
			}
		}
		if secs > 0 {
			row.Throughput = float64(c.Completed) / secs
			row.TargetRate = float64(c.Scheduled) / secs
		}
		rows = append(rows, row)
	}
	return rows
}

// replayable is the single request re-issued for the slow-trace
// walkthrough.
type replayable struct {
	method, path string
	body         []byte
}

// classStats is the live accumulator behind a ClassResult.
type classStats struct {
	scheduled    atomic.Int64
	completed    atomic.Int64
	dropped      atomic.Int64
	skippedDrain atomic.Int64
	shed         atomic.Int64
	failed       atomic.Int64

	errMu  sync.Mutex
	errors map[string]int64

	latency hist
	service hist

	slowMu      sync.Mutex
	slowLatency time.Duration
	slowTraceID string
	slowSession string
	slowReq     replayable
}

func (c *classStats) countError(key string) {
	c.errMu.Lock()
	if c.errors == nil {
		c.errors = make(map[string]int64)
	}
	c.errors[key]++
	c.errMu.Unlock()
}

func (c *classStats) noteSlow(lat time.Duration, traceID, session string, req replayable) {
	c.slowMu.Lock()
	if lat > c.slowLatency {
		c.slowLatency, c.slowTraceID, c.slowSession, c.slowReq = lat, traceID, session, req
	}
	c.slowMu.Unlock()
}

func (c *classStats) result() *ClassResult {
	r := &ClassResult{
		Scheduled:    c.scheduled.Load(),
		Completed:    c.completed.Load(),
		Dropped:      c.dropped.Load(),
		SkippedDrain: c.skippedDrain.Load(),
		Shed:         c.shed.Load(),
		Failed:       c.failed.Load(),
		Latency:      c.latency.stats(),
		Service:      c.service.stats(),
	}
	c.errMu.Lock()
	if len(c.errors) > 0 {
		r.Errors = make(map[string]int64, len(c.errors))
		for k, v := range c.errors {
			r.Errors[k] = v
		}
	}
	c.errMu.Unlock()
	return r
}

// scheduledOp is one dispatched intent.
type scheduledOp struct {
	class  string
	intent time.Time
	seed   int64
}

// runner holds one run's live state.
type runner struct {
	cfg      Config
	classes  map[string]*classStats
	draining atomic.Bool
	drainHit atomic.Bool
	traceSeq atomic.Int64

	poolMu sync.Mutex
	pool   []string // open session ids
}

// Run executes one load run. The context cancels the whole run
// (in-flight requests included).
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg.defaults()
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("loadgen: Rate must be positive")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: Duration must be positive")
	}
	if cfg.Sessions <= 0 {
		return nil, fmt.Errorf("loadgen: Sessions must be positive")
	}
	if cfg.Design == "" {
		return nil, fmt.Errorf("loadgen: Design required")
	}
	switch cfg.Arrivals {
	case ArrivalsConst, ArrivalsPoisson:
	default:
		return nil, fmt.Errorf("loadgen: unknown arrivals %q", cfg.Arrivals)
	}
	classNames := []string{OpOpen, OpEditDelay, OpEditTopo, OpWhatIf, OpReport, OpParkResume}
	r := &runner{cfg: cfg, classes: make(map[string]*classStats, len(classNames))}
	for _, n := range classNames {
		r.classes[n] = &classStats{}
	}
	for n := range cfg.Mix {
		if _, ok := r.classes[n]; !ok {
			return nil, fmt.Errorf("loadgen: unknown op class %q in mix", n)
		}
	}

	before := r.scrapeMetrics(ctx)

	// Drain poller: watches /readyz for the draining state for the whole
	// run (ramp included).
	pollCtx, stopPoll := context.WithCancel(ctx)
	defer stopPoll()
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		r.pollReadyz(pollCtx)
	}()

	if err := r.ramp(ctx); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.Log, "loadgen: %d sessions open, starting %s %s arrivals at %.0f ops/s for %v\n",
		len(r.pool), cfg.Workload, cfg.Arrivals, cfg.Rate, cfg.Duration)

	// Workers pull dispatched intents; the pool size bounds in-flight
	// operations without ever blocking the scheduler (a full queue counts
	// as dropped instead — harness overload must be visible, not absorbed
	// into the latency numbers).
	dispatch := make(chan scheduledOp, cfg.QueueDepth)
	var workWG sync.WaitGroup
	for i := 0; i < cfg.MaxConcurrent; i++ {
		workWG.Add(1)
		go func(worker int) {
			defer workWG.Done()
			rnd := rand.New(rand.NewSource(cfg.Seed ^ int64(worker)<<17 ^ 0x5eed))
			for op := range dispatch {
				r.execute(ctx, rnd, op)
			}
		}(i)
	}

	start := time.Now()
	r.schedule(ctx, start, dispatch)
	close(dispatch)
	workWG.Wait()
	elapsed := time.Since(start)
	stopPoll()
	pollWG.Wait()

	after := r.scrapeMetrics(ctx)

	res := &Result{
		Workload:      cfg.Workload,
		Arrivals:      cfg.Arrivals,
		Rate:          cfg.Rate,
		Sessions:      cfg.Sessions,
		Replicas:      cfg.Replicas,
		Duration:      elapsed,
		Classes:       make(map[string]*ClassResult, len(r.classes)),
		ServerBefore:  before,
		ServerAfter:   after,
		DrainObserved: r.drainHit.Load(),
	}
	for name, c := range r.classes {
		res.Classes[name] = c.result()
	}
	r.attachSlowest(ctx, res)
	r.closeAll(ctx)
	return res, ctx.Err()
}

// schedule runs the arrival process until the duration elapses,
// dispatching one intent per arrival. Behind schedule it dispatches
// immediately without sleeping — the backlog is charged to the
// operations, never forgiven.
func (r *runner) schedule(ctx context.Context, start time.Time, dispatch chan<- scheduledOp) {
	rnd := rand.New(rand.NewSource(r.cfg.Seed))
	classes, cum := mixTable(r.cfg.Mix)
	interval := float64(time.Second) / r.cfg.Rate
	end := start.Add(r.cfg.Duration)
	next := start
	for {
		switch r.cfg.Arrivals {
		case ArrivalsConst:
			next = next.Add(time.Duration(interval))
		case ArrivalsPoisson:
			next = next.Add(time.Duration(rnd.ExpFloat64() * interval))
		}
		if next.After(end) {
			return
		}
		if d := time.Until(next); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return
			}
		} else if ctx.Err() != nil {
			return
		}
		class := pickClass(classes, cum, rnd.Float64())
		cs := r.classes[class]
		if r.draining.Load() && (class == OpOpen || class == OpParkResume) {
			// The replica asked to be drained: do not create sessions on
			// it. The rest of the mix keeps flowing so in-progress work
			// completes.
			cs.skippedDrain.Add(1)
			continue
		}
		cs.scheduled.Add(1)
		select {
		case dispatch <- scheduledOp{class: class, intent: next, seed: rnd.Int63()}:
		default:
			cs.dropped.Add(1)
		}
	}
}

// mixTable flattens the mix into a cumulative-weight table.
func mixTable(mix map[string]float64) (classes []string, cum []float64) {
	classes = make([]string, 0, len(mix))
	for c, w := range mix {
		if w > 0 {
			classes = append(classes, c)
		}
	}
	sort.Strings(classes)
	total := 0.0
	for _, c := range classes {
		total += mix[c]
	}
	cum = make([]float64, len(classes))
	acc := 0.0
	for i, c := range classes {
		acc += mix[c] / total
		cum[i] = acc
	}
	return classes, cum
}

func pickClass(classes []string, cum []float64, u float64) string {
	for i, c := range cum {
		if u <= c {
			return classes[i]
		}
	}
	return classes[len(classes)-1]
}

// ramp opens the session pool with bounded parallelism, measured into
// the "open" class (intent = the moment the open was scheduled, so a
// daemon that compiles slowly under a thundering herd is charged for
// the queueing it causes).
func (r *runner) ramp(ctx context.Context) error {
	cs := r.classes[OpOpen]
	par := 32
	if par > r.cfg.Sessions {
		par = r.cfg.Sessions
	}
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	var firstErr atomic.Value
	for i := 0; i < r.cfg.Sessions; i++ {
		if ctx.Err() != nil {
			break
		}
		if r.draining.Load() {
			cs.skippedDrain.Add(1)
			continue
		}
		sem <- struct{}{}
		wg.Add(1)
		intent := time.Now()
		cs.scheduled.Add(1)
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			if _, err := r.openSession(ctx, cs, intent); err != nil && firstErr.Load() == nil {
				firstErr.Store(err)
			}
		}()
	}
	wg.Wait()
	if err, _ := firstErr.Load().(error); err != nil {
		r.poolMu.Lock()
		n := len(r.pool)
		r.poolMu.Unlock()
		if n == 0 {
			return fmt.Errorf("loadgen: session ramp failed: %w", err)
		}
		fmt.Fprintf(r.cfg.Log, "loadgen: ramp partially failed (%d/%d sessions): %v\n", n, r.cfg.Sessions, err)
	}
	return nil
}

// openSession opens one session and adds it to the pool.
func (r *runner) openSession(ctx context.Context, cs *classStats, intent time.Time) (string, error) {
	body, _ := json.Marshal(map[string]any{"design": r.cfg.Design})
	req := replayable{method: http.MethodPost, path: "/v1/sessions", body: body}
	status, resp, err := r.do(ctx, cs, intent, "", req)
	if err != nil {
		return "", err
	}
	if status != http.StatusCreated {
		return "", fmt.Errorf("open: status %d", status)
	}
	id, _ := resp["session"].(string)
	if id == "" {
		return "", fmt.Errorf("open: no session id")
	}
	r.poolMu.Lock()
	r.pool = append(r.pool, id)
	r.poolMu.Unlock()
	return id, nil
}

// takeSession removes a random session from the pool (park_resume);
// pickSession reads one without removing it.
func (r *runner) takeSession(rnd *rand.Rand) (string, bool) {
	r.poolMu.Lock()
	defer r.poolMu.Unlock()
	if len(r.pool) == 0 {
		return "", false
	}
	i := rnd.Intn(len(r.pool))
	id := r.pool[i]
	r.pool[i] = r.pool[len(r.pool)-1]
	r.pool = r.pool[:len(r.pool)-1]
	return id, true
}

func (r *runner) pickSession(rnd *rand.Rand) (string, bool) {
	r.poolMu.Lock()
	defer r.poolMu.Unlock()
	if len(r.pool) == 0 {
		return "", false
	}
	return r.pool[rnd.Intn(len(r.pool))], true
}

func (r *runner) inPool(id string) bool {
	r.poolMu.Lock()
	defer r.poolMu.Unlock()
	for _, s := range r.pool {
		if s == id {
			return true
		}
	}
	return false
}

func (r *runner) anySession() (string, bool) {
	r.poolMu.Lock()
	defer r.poolMu.Unlock()
	if len(r.pool) == 0 {
		return "", false
	}
	return r.pool[0], true
}

// execute performs one scheduled operation.
func (r *runner) execute(ctx context.Context, rnd *rand.Rand, op scheduledOp) {
	cs := r.classes[op.class]
	switch op.class {
	case OpOpen:
		r.openSession(ctx, cs, op.intent)
	case OpEditDelay:
		sid, ok := r.pickSession(rnd)
		if !ok {
			cs.countError("no_session")
			return
		}
		sign := "-"
		if rnd.Intn(2) == 0 {
			sign = ""
		}
		inst := r.cfg.EditInsts[rnd.Intn(len(r.cfg.EditInsts))]
		body, _ := json.Marshal(map[string]any{"edits": []map[string]any{
			{"op": "adjust", "inst": inst, "delta": sign + "100ps"},
		}})
		r.doOp(ctx, cs, op.intent, sid, replayable{
			method: http.MethodPost, path: "/v1/sessions/" + sid + "/edits", body: body,
		})
	case OpEditTopo:
		sid, ok := r.pickSession(rnd)
		if !ok {
			cs.countError("no_session")
			return
		}
		net := r.cfg.TopoNets[rnd.Intn(len(r.cfg.TopoNets))]
		tmp := fmt.Sprintf("lg_tmp_%d", op.seed&0xffffff)
		body, _ := json.Marshal(map[string]any{"edits": []map[string]any{
			{"op": "add", "inst": tmp, "ref": "BUF_X1", "conns": map[string]string{"A": net, "Y": tmp + "_y"}},
			{"op": "remove", "inst": tmp},
		}})
		r.doOp(ctx, cs, op.intent, sid, replayable{
			method: http.MethodPost, path: "/v1/sessions/" + sid + "/edits", body: body,
		})
	case OpWhatIf:
		r.executeWhatIf(ctx, rnd, cs, op)
	case OpReport:
		sid, ok := r.pickSession(rnd)
		if !ok {
			cs.countError("no_session")
			return
		}
		r.doOp(ctx, cs, op.intent, sid, replayable{
			method: http.MethodGet, path: "/v1/sessions/" + sid + "/report",
		})
	case OpParkResume:
		r.executeParkResume(ctx, rnd, cs, op)
	}
}

// executeWhatIf models Algorithm 3's speculative probe: apply a
// candidate slowdown, read the verdict, revert. One operation, three
// requests; the latency covers the whole probe.
func (r *runner) executeWhatIf(ctx context.Context, rnd *rand.Rand, cs *classStats, op scheduledOp) {
	sid, ok := r.pickSession(rnd)
	if !ok {
		cs.countError("no_session")
		return
	}
	inst := r.cfg.EditInsts[rnd.Intn(len(r.cfg.EditInsts))]
	apply, _ := json.Marshal(map[string]any{"edits": []map[string]any{
		{"op": "adjust", "inst": inst, "delta": "500ps"},
	}})
	revert, _ := json.Marshal(map[string]any{"edits": []map[string]any{
		{"op": "adjust", "inst": inst, "delta": "-500ps"},
	}})
	editPath := "/v1/sessions/" + sid + "/edits"
	traceID := r.nextTraceID()
	start := time.Now()
	status, _, err := r.doRaw(ctx, traceID, replayable{method: http.MethodPost, path: editPath, body: apply})
	ok1 := err == nil && status < 400
	if ok1 {
		// Only a successfully applied probe is read back and reverted; an
		// errored apply (e.g. the session was closed mid-probe) ends the op.
		if st, _, e := r.doRaw(ctx, "", replayable{method: http.MethodGet, path: "/v1/sessions/" + sid}); e == nil && st >= 400 {
			status = st
		}
		if st, _, e := r.doRaw(ctx, "", replayable{method: http.MethodPost, path: editPath, body: revert}); e == nil && st >= 400 {
			status = st
		} else if e != nil {
			err = e
		}
	}
	r.finishOp(cs, op.intent, start, status, err, traceID, sid,
		replayable{method: http.MethodPost, path: editPath, body: apply})
}

// executeParkResume closes a session, which releases its engine, and
// re-opens the same design: the open shares the compiled design while
// another session holds it, and elaborates it otherwise. One operation,
// two requests.
func (r *runner) executeParkResume(ctx context.Context, rnd *rand.Rand, cs *classStats, op scheduledOp) {
	sid, ok := r.takeSession(rnd)
	if !ok {
		cs.countError("no_session")
		return
	}
	traceID := r.nextTraceID()
	start := time.Now()
	status, _, err := r.doRaw(ctx, traceID, replayable{method: http.MethodDelete, path: "/v1/sessions/" + sid})
	openReq := replayable{method: http.MethodPost, path: "/v1/sessions"}
	openReq.body, _ = json.Marshal(map[string]any{"design": r.cfg.Design})
	if err == nil && status < 400 {
		var resp map[string]any
		st, resp, e := r.doRaw(ctx, "", openReq)
		if e != nil {
			err = e
		} else {
			status = st
			if id, _ := resp["session"].(string); id != "" {
				r.poolMu.Lock()
				r.pool = append(r.pool, id)
				r.poolMu.Unlock()
			}
		}
	}
	r.finishOp(cs, op.intent, start, status, err, traceID, "", openReq)
}

// doOp runs a single-request operation end to end.
func (r *runner) doOp(ctx context.Context, cs *classStats, intent time.Time, sid string, req replayable) {
	traceID := r.nextTraceID()
	start := time.Now()
	status, _, err := r.doRaw(ctx, traceID, req)
	r.finishOp(cs, intent, start, status, err, traceID, sid, req)
}

// finishOp records one completed operation into the class accumulators.
func (r *runner) finishOp(cs *classStats, intent, sent time.Time, status int, err error, traceID, sid string, req replayable) {
	now := time.Now()
	lat := now.Sub(intent)
	cs.completed.Add(1)
	cs.latency.record(lat)
	cs.service.record(now.Sub(sent))
	switch {
	case err != nil:
		cs.failed.Add(1)
		cs.countError("transport")
	case status >= 400:
		cs.countError(strconv.Itoa(status))
		if status == http.StatusTooManyRequests {
			cs.shed.Add(1)
		}
		if status >= 500 {
			cs.failed.Add(1)
		}
	}
	if err == nil && status < 400 {
		cs.noteSlow(lat, traceID, sid, req)
	}
}

// doRaw issues one HTTP request, returning the status and decoded JSON
// body (nil when the body is not a JSON object).
func (r *runner) doRaw(ctx context.Context, traceID string, req replayable) (int, map[string]any, error) {
	var rd io.Reader
	if req.body != nil {
		rd = bytes.NewReader(req.body)
	}
	hreq, err := http.NewRequestWithContext(ctx, req.method, r.cfg.BaseURL+req.path, rd)
	if err != nil {
		return 0, nil, err
	}
	if req.body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	if traceID != "" {
		hreq.Header.Set("X-Trace-Id", traceID)
	}
	resp, err := r.cfg.Client.Do(hreq)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var m map[string]any
	dec := json.NewDecoder(io.LimitReader(resp.Body, 8<<20))
	if err := dec.Decode(&m); err != nil {
		m = nil
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, m, nil
}

// do wraps doRaw with per-op accounting for ramp opens.
func (r *runner) do(ctx context.Context, cs *classStats, intent time.Time, sid string, req replayable) (int, map[string]any, error) {
	traceID := r.nextTraceID()
	start := time.Now()
	status, m, err := r.doRaw(ctx, traceID, req)
	r.finishOp(cs, intent, start, status, err, traceID, sid, req)
	return status, m, err
}

func (r *runner) nextTraceID() string {
	if r.cfg.TraceTag == "" {
		return ""
	}
	return fmt.Sprintf("%s-%d", r.cfg.TraceTag, r.traceSeq.Add(1))
}

// pollReadyz watches /readyz for the draining state.
func (r *runner) pollReadyz(ctx context.Context) {
	t := time.NewTicker(r.cfg.DrainPoll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.ReadyzURL, nil)
		if err != nil {
			continue
		}
		resp, err := r.cfg.Client.Do(req)
		if err != nil {
			continue
		}
		var m struct {
			State string `json:"state"`
		}
		json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&m)
		resp.Body.Close()
		draining := m.State == "draining"
		if draining {
			r.drainHit.Store(true)
		}
		r.draining.Store(draining)
	}
}

// scrapeMetrics fetches the daemon's JSON telemetry snapshot;
// best-effort (nil on any failure).
func (r *runner) scrapeMetrics(ctx context.Context) *telemetry.Metrics {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.BaseURL+"/metrics.json", nil)
	if err != nil {
		return nil
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil
	}
	var m telemetry.Metrics
	if err := json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(&m); err != nil {
		return nil
	}
	return &m
}

// ServerDelta correlates the run with server-side signals: for every
// counter it returns after-before, and for every gauge the after value,
// keyed by instrument name. Empty when either scrape failed.
func (r *Result) ServerDelta() map[string]float64 {
	if r.ServerBefore == nil || r.ServerAfter == nil {
		return nil
	}
	d := make(map[string]float64)
	for name, after := range r.ServerAfter.Counters {
		d[name] = float64(after - r.ServerBefore.Counters[name])
	}
	for name, after := range r.ServerAfter.Gauges {
		d[name] = after
	}
	return d
}

// attachSlowest finds the slowest successful operation across classes
// and, when trace tagging is on, replays it under its trace id and
// fetches the span tree from the session's /trace/last.
func (r *runner) attachSlowest(ctx context.Context, res *Result) {
	var worst *classStats
	worstClass := ""
	for name, cs := range r.classes {
		cs.slowMu.Lock()
		lat := cs.slowLatency
		cs.slowMu.Unlock()
		if worst == nil || lat > res.SlowestLatency {
			if lat > 0 {
				worst, worstClass, res.SlowestLatency = cs, name, lat
			}
		}
	}
	if worst == nil {
		return
	}
	worst.slowMu.Lock()
	res.SlowestClass = worstClass
	res.SlowestTraceID = worst.slowTraceID
	sid, req := worst.slowSession, worst.slowReq
	worst.slowMu.Unlock()
	if r.cfg.TraceTag == "" || req.path == "" {
		return
	}
	// The slowest op's session may have been closed by a later
	// park_resume; substitute a session that is still in the pool.
	if sid != "" && !r.inPool(sid) {
		live, ok := r.anySession()
		if !ok {
			return
		}
		req.path = strings.ReplaceAll(req.path, sid, live)
		sid = live
	}
	// Replay under a derived id, then read the session's last trace; the
	// fetch only counts when the daemon adopted the inbound id.
	replayID := res.SlowestTraceID + "-replay"
	status, resp, err := r.doRaw(ctx, replayID, req)
	if err != nil || status >= 400 {
		return
	}
	if sid == "" {
		// A park_resume replay opens a fresh session; its id arrives in
		// the reply. Pool it so closeAll cleans it up.
		id, _ := resp["session"].(string)
		if id == "" {
			return
		}
		r.poolMu.Lock()
		r.pool = append(r.pool, id)
		r.poolMu.Unlock()
		sid = id
	}
	st, body, err := r.fetchTrace(ctx, sid)
	if err != nil || st != http.StatusOK {
		return
	}
	var tr struct {
		ID string `json:"id"`
	}
	if json.Unmarshal(body, &tr) != nil || tr.ID != replayID {
		return
	}
	res.SlowestTrace = body
}

func (r *runner) fetchTrace(ctx context.Context, sid string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.cfg.BaseURL+"/v1/sessions/"+sid+"/trace/last", nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := r.cfg.Client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	return resp.StatusCode, b, err
}

// closeAll closes every pooled session (best-effort, bounded time).
func (r *runner) closeAll(ctx context.Context) {
	r.poolMu.Lock()
	ids := r.pool
	r.pool = nil
	r.poolMu.Unlock()
	sem := make(chan struct{}, 32)
	var wg sync.WaitGroup
	for _, id := range ids {
		if ctx.Err() != nil {
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			defer func() { <-sem }()
			r.doRaw(ctx, "", replayable{method: http.MethodDelete, path: "/v1/sessions/" + id})
		}(id)
	}
	wg.Wait()
}

// Failed5xx sums 5xx + transport failures across classes.
func (r *Result) Failed5xx() int64 {
	var n int64
	for _, c := range r.Classes {
		n += c.Failed
	}
	return n
}

// WorstP99 is the maximum p99 latency across classes.
func (r *Result) WorstP99() time.Duration {
	var worst int64
	for _, c := range r.Classes {
		if c.Latency.P99 > worst {
			worst = c.Latency.P99
		}
	}
	return time.Duration(worst)
}

// WriteText renders a human-readable summary table.
func (r *Result) WriteText(w io.Writer) {
	fmt.Fprintf(w, "workload %s: %s arrivals at %.0f ops/s for %v, %d sessions\n",
		r.Workload, r.Arrivals, r.Rate, r.Duration.Round(time.Millisecond), r.Sessions)
	if r.DrainObserved {
		fmt.Fprintln(w, "NOTE: replica reported draining during the run; session-creating ops were withheld")
	}
	names := make([]string, 0, len(r.Classes))
	for n, c := range r.Classes {
		if c.Scheduled > 0 || c.Completed > 0 {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-12s %9s %9s %6s %6s %10s %10s %10s %10s %10s %10s\n",
		"class", "sched", "done", "shed", "fail", "mean", "p50", "p90", "p99", "p99.9", "max")
	for _, n := range names {
		c := r.Classes[n]
		fmt.Fprintf(w, "%-12s %9d %9d %6d %6d %10s %10s %10s %10s %10s %10s\n",
			n, c.Scheduled, c.Completed, c.Shed, c.Failed,
			fmtLat(c.Latency.Mean), fmtLat(c.Latency.P50), fmtLat(c.Latency.P90),
			fmtLat(c.Latency.P99), fmtLat(c.Latency.P999), fmtLat(c.Latency.Max))
		if c.Dropped > 0 || c.SkippedDrain > 0 {
			fmt.Fprintf(w, "%-12s   dropped %d (harness overload), drain-skipped %d\n", "", c.Dropped, c.SkippedDrain)
		}
	}
	if delta := r.ServerDelta(); len(delta) > 0 {
		keys := []string{
			"server.requests_shed", "server.panics_recovered",
			"compile_cache.designs", "compile_cache.refs",
			"server.inflight", "runtime.goroutines", "runtime.gc_pause_last_ns",
		}
		fmt.Fprint(w, "server-side over the run:")
		any := false
		for _, k := range keys {
			if v, ok := delta[k]; ok {
				fmt.Fprintf(w, " %s=%s", k, strconv.FormatFloat(v, 'g', -1, 64))
				any = true
			}
		}
		if !any {
			fmt.Fprint(w, " (no matching instruments)")
		}
		fmt.Fprintln(w)
	}
	if res := r.SlowestTraceID; res != "" {
		fmt.Fprintf(w, "slowest op: %s %v (trace %s)\n", r.SlowestClass,
			r.SlowestLatency.Round(time.Microsecond), res)
	}
}

func fmtLat(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.2fms", float64(d.Nanoseconds())/1e6)
	default:
		return fmt.Sprintf("%.3fs", d.Seconds())
	}
}

// mean is kept for tests of the arrival schedule.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
