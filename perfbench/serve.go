package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hummingbird/internal/clock"
	"hummingbird/internal/core"
	"hummingbird/internal/incremental"
	"hummingbird/internal/netlist"
	"hummingbird/internal/report"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/telemetry/span"
	"hummingbird/internal/workload"
)

// serve-des shape: a light constant arrival rate from no more connections
// than the host has CPUs. At 100 ops/s the mix keeps about 0.8 s of service
// time per second in flight on a 2-vCPU host, where latency turns into
// queueing that amplifies every swing in host speed; at 40 ops/s each
// connection stays under a quarter busy.
const (
	serveSessions = 8
	serveRate     = 40.0 // ops/s, open loop
	serveConns    = 2
	serveWarmup   = time.Second
	serveTargets  = 16
	readyTimeout  = 20 * time.Second
	stopTimeout   = 5 * time.Second
)

// Op classes of serve-des.
const (
	opEditDelay = iota
	opReport
	opEditTopo
)

var opNames = [...]string{"edit_delay", "report", "edit_topo"}

// daemon is one hummingbirdd subprocess with its private journal directory.
type daemon struct {
	cmd    *exec.Cmd
	base   string // service URL
	debug  string // pprof URL
	dir    string // journal and log, removed by stop
	log    *os.File
	done   chan struct{} // closed once the process has been reaped
	client *http.Client
}

// freePort reserves a loopback port by binding it and letting it go.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve loopback port: %w", err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}

// startDaemon runs hummingbirdd on free loopback ports with a journal under
// parent and waits, bounded, for /readyz. On any failure the process is
// stopped and its directory removed before returning.
func startDaemon(ctx context.Context, bin, parent string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no hummingbirdd binary given (-daemon)")
	}
	addr, err := freePort()
	if err != nil {
		return nil, err
	}
	dbg, err := freePort()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(parent, "hbd-")
	if err != nil {
		return nil, fmt.Errorf("daemon directory: %w", err)
	}
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("daemon log: %w", err)
	}
	cmd := exec.Command(bin,
		"-addr", addr, "-debug-addr", dbg,
		"-journal-dir", filepath.Join(dir, "journal"),
		"-trace-retain", "16384", "-shutdown-grace", "2s")
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start hummingbirdd: %w", err)
	}
	d := &daemon{
		cmd: cmd, base: "http://" + addr, debug: "http://" + dbg, dir: dir, log: logf,
		done: make(chan struct{}),
		client: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
		}},
	}
	go func() {
		cmd.Wait()
		close(d.done)
	}()
	if err := d.awaitReady(ctx); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) awaitReady(ctx context.Context) error {
	deadline := time.Now().Add(readyTimeout)
	for {
		if code, _, err := d.do(ctx, http.MethodGet, d.base+"/readyz", nil, ""); err == nil && code == http.StatusOK {
			return nil
		}
		select {
		case <-d.done:
			return fmt.Errorf("hummingbirdd exited before ready: %s", d.logTail())
		case <-ctx.Done():
			return fmt.Errorf("waiting for hummingbirdd /readyz: %w", ctx.Err())
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hummingbirdd not ready within %v: %s", readyTimeout, d.logTail())
		}
	}
}

func (d *daemon) logTail() string {
	raw, _ := os.ReadFile(d.log.Name())
	if len(raw) > 400 {
		raw = raw[len(raw)-400:]
	}
	return strings.TrimSpace(string(raw))
}

// stop terminates the daemon (gracefully, then by force), waits until it is
// reaped and removes its journal and log.
func (d *daemon) stop() {
	d.client.CloseIdleConnections()
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(stopTimeout):
		d.cmd.Process.Kill()
		<-d.done
	}
	d.log.Close()
	os.RemoveAll(d.dir)
}

// do sends one request and reads the whole response body.
func (d *daemon) do(ctx context.Context, method, url string, body []byte, traceID string) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceID != "" {
		req.Header.Set(span.TraceIDHeader, traceID)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// counters scrapes the daemon's /metrics.json counters.
func (d *daemon) counters(ctx context.Context) (map[string]int64, error) {
	code, raw, err := d.do(ctx, http.MethodGet, d.base+"/metrics.json", nil, "")
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics.json: status %d: %v", code, err)
	}
	var m telemetry.Metrics
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("decode /metrics.json: %w", err)
	}
	return m.Counters, nil
}

var heapAllocLine = regexp.MustCompile(`(?m)^# HeapAlloc = (\d+)$`)

// liveHeap asks the daemon's pprof listener to collect garbage and report
// the heap still in use. It asks twice: objects in sync.Pool caches survive
// one collection, so only the second reading is the live heap.
func (d *daemon) liveHeap(ctx context.Context) (uint64, error) {
	var heap uint64
	for i := 0; i < 2; i++ {
		code, raw, err := d.do(ctx, http.MethodGet, d.debug+"/debug/pprof/heap?gc=1&debug=1", nil, "")
		if err != nil || code != http.StatusOK {
			return 0, fmt.Errorf("heap profile: status %d: %v", code, err)
		}
		m := heapAllocLine.FindSubmatch(raw)
		if m == nil {
			return 0, errors.New("heap profile carries no HeapAlloc line")
		}
		if heap, err = strconv.ParseUint(string(m[1]), 10, 64); err != nil {
			return 0, fmt.Errorf("heap profile: %w", err)
		}
	}
	return heap, nil
}

// serveState is one set-up: the daemon, its open sessions and the design's
// editable gates.
type serveState struct {
	d        *daemon
	text     string
	sessions []string
	targets  []target
	topoNets []string // outputs of the targets, where topology edits tap in
}

func setupServe(ctx context.Context, b *bench) (*serveState, error) {
	des, err := workload.DES()
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	if err := netlist.Write(&sb, des); err != nil {
		return nil, err
	}
	eng, err := incremental.Open(b.lib, des, core.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("probe engine: %w", err)
	}
	ts, err := probeTargets(b.lib, eng, rand.New(rand.NewSource(b.seed)), serveTargets)
	if err != nil {
		return nil, err
	}
	signoffShape(b, eng.Analyzer())
	d, err := startDaemon(ctx, b.daemon, b.work)
	if err != nil {
		return nil, err
	}
	st := &serveState{d: d, text: sb.String(), targets: ts}
	for _, t := range ts {
		for _, inst := range des.Instances {
			if inst.Name == t.inst && inst.Conns["Y"] != "" {
				st.topoNets = append(st.topoNets, inst.Conns["Y"])
			}
		}
	}
	body, _ := json.Marshal(map[string]string{"design": st.text})
	for i := 0; i < serveSessions; i++ {
		code, raw, err := d.do(ctx, http.MethodPost, d.base+"/v1/sessions", body, "")
		var resp struct {
			Session string `json:"session"`
		}
		if err == nil && code == http.StatusCreated {
			err = json.Unmarshal(raw, &resp)
		}
		if err != nil || code != http.StatusCreated || resp.Session == "" {
			d.stop()
			return nil, fmt.Errorf("open session %d: status %d: %v %s", i, code, err, raw)
		}
		st.sessions = append(st.sessions, resp.Session)
	}
	return st, nil
}

// serveOp is one scheduled operation and, once run, its outcome.
type serveOp struct {
	class   int
	session int
	due     time.Duration // since the schedule's start
	method  string
	path    string
	body    []byte
	inst    string     // edit_delay: adjusted gate
	delta   clock.Time // edit_delay: adjustment
	traceID string

	slept            bool
	wake, sent, done time.Time
	ok               bool
}

// serveMix is one block of the schedule: 70% delay edits, 25% report reads
// and 5% topology edits, exactly, in a seeded order within each block, so
// the latency percentiles of the mix always fall in the same class (p50 in
// edit_delay, p90 in report, p99 in edit_topo).
var serveMix = [20]int{
	opEditDelay, opEditDelay, opEditDelay, opEditDelay, opEditDelay, opEditDelay, opEditDelay,
	opEditDelay, opEditDelay, opEditDelay, opEditDelay, opEditDelay, opEditDelay, opEditDelay,
	opReport, opReport, opReport, opReport, opReport, opEditTopo,
}

// schedule draws the op sequence from the seed: a constant arrival every
// 1/serveRate, classes in shuffled serveMix blocks, session and target
// uniformly.
func schedule(b *bench, st *serveState, total time.Duration) []serveOp {
	rng := rand.New(rand.NewSource(b.seed ^ 0x5e7e))
	n := int(total.Seconds() * serveRate)
	ops := make([]serveOp, n)
	block := serveMix
	for i := range ops {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(x, y int) { block[x], block[y] = block[y], block[x] })
		}
		o := &ops[i]
		o.due = time.Duration(float64(i) / serveRate * float64(time.Second))
		o.session = rng.Intn(len(st.sessions))
		sid := st.sessions[o.session]
		o.class = block[i%len(block)]
		switch o.class {
		case opEditDelay:
			o.inst = st.targets[rng.Intn(len(st.targets))].inst
			o.delta = 100 * clock.Ps
			if rng.Intn(2) == 0 {
				o.delta = -o.delta
			}
			o.method, o.path = http.MethodPost, "/v1/sessions/"+sid+"/edits"
			o.body, _ = json.Marshal(map[string]any{"edits": []map[string]any{
				{"op": "adjust", "inst": o.inst, "delta": netlist.FormatTime(o.delta)},
			}})
		case opReport:
			o.method, o.path = http.MethodGet, "/v1/sessions/"+sid+"/report"
		case opEditTopo:
			// Add a buffer and remove it again: a structural batch that
			// forces a full re-elaboration and leaves the design unchanged.
			tmp := fmt.Sprintf("pb_tmp_%d", i)
			o.method, o.path = http.MethodPost, "/v1/sessions/"+sid+"/edits"
			o.body, _ = json.Marshal(map[string]any{"edits": []map[string]any{
				{"op": "add", "inst": tmp, "ref": "BUF_X1", "conns": map[string]string{
					"A": st.topoNets[rng.Intn(len(st.topoNets))], "Y": tmp + "_y"}},
				{"op": "remove", "inst": tmp},
			}})
		}
	}
	return ops
}

// runLoad plays the schedule open-loop from serveConns workers: each op is
// sent when due, or as soon as a worker is free if both are busy, and timed
// from when it was due. Ops at or after traceFrom carry an X-Trace-Id.
func runLoad(ctx context.Context, b *bench, st *serveState, ops []serveOp, start time.Time, traceFrom time.Duration) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				o := &ops[i]
				due := start.Add(o.due)
				if wait := time.Until(due); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return
					}
					o.slept, o.wake = true, time.Now()
				}
				if o.due >= traceFrom {
					o.traceID = fmt.Sprintf("pb%d-%d", b.seed, i)
				}
				o.sent = time.Now()
				code, raw, err := st.d.do(ctx, o.method, st.d.base+o.path, o.body, o.traceID)
				o.done = time.Now()
				o.ok = err == nil && code == http.StatusOK && validResponse(o.class, raw)
				if !o.ok {
					fmt.Fprintf(os.Stderr, "perfbench: %s %s: status %d: %v %.200s\n", opNames[o.class], o.path, code, err, raw)
				}
			}
		}()
	}
	wg.Wait()
}

// validResponse checks a 200 body has the shape its op promises: an edit
// reports a worst slack and whether it stayed incremental (delay edits must,
// topology edits must not); a report opens with its design and verdict. A
// report is only sniffed, not decoded, so the client's CPU stays off the
// load's critical path; serveOracle compares whole reports at the end.
func validResponse(class int, raw []byte) bool {
	if class == opReport {
		head := raw[:min(len(raw), 256)]
		return bytes.HasPrefix(head, []byte("{")) && bytes.Contains(head, []byte(`"worstPs"`)) &&
			bytes.HasSuffix(raw, []byte("}\n"))
	}
	var e struct {
		Incremental *bool `json:"incremental"`
		WorstSlack  any   `json:"worst_slack"`
	}
	if json.Unmarshal(raw, &e) != nil || e.Incremental == nil || e.WorstSlack == nil {
		return false
	}
	return *e.Incremental == (class == opEditDelay)
}

// runServe drives serve-des.
func runServe(ctx context.Context, b *bench) error {
	st, err := setupMedian(ctx, b, func() (*serveState, error) { return setupServe(ctx, b) },
		func(st *serveState) { st.d.stop() })
	if err != nil {
		return err
	}
	defer st.d.stop()
	if err := enumOracle(b); err != nil {
		return err
	}

	window := b.window
	traceFrom := serveWarmup + window // never, unless traced
	if b.trace {
		traceFrom = serveWarmup + window/2
	}
	ops := schedule(b, st, serveWarmup+window)
	c0, err := st.d.counters(ctx)
	if err != nil {
		return err
	}
	// The CPU sample brackets the measured window: it is taken when the
	// warm-up ends and again once the last op has returned.
	start := time.Now()
	cpuAt := make(chan time.Duration, 1)
	go func() {
		t := time.NewTimer(time.Until(start.Add(serveWarmup)))
		defer t.Stop()
		select {
		case <-t.C:
			c, err := procCPU(st.d.cmd.Process.Pid)
			if err != nil {
				c = -1
			}
			cpuAt <- c
		case <-ctx.Done():
			cpuAt <- -1
		}
	}()
	runLoad(ctx, b, st, ops, start, traceFrom)
	cpu1, err := procCPU(st.d.cmd.Process.Pid)
	if err != nil {
		return fmt.Errorf("daemon cpu: %w", err)
	}
	cpu0 := <-cpuAt
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	if cpu0 < 0 {
		return errors.New("daemon cpu: no sample at the end of the warm-up")
	}
	c1, err := st.d.counters(ctx)
	if err != nil {
		return err
	}

	// Latency over every op of the measured window (its untraced part in a
	// traced run), from its due time; CPU over the whole window.
	var all []float64
	byClass := [3][]float64{}
	service := [3][]float64{}
	var queue, lag []float64
	done, failed := 0, 0
	for i := range ops {
		o := &ops[i]
		if !o.ok {
			failed++
		}
		if o.due < serveWarmup || !o.ok {
			continue
		}
		done++
		if o.due >= traceFrom {
			continue
		}
		l := ms(o.done.Sub(start.Add(o.due)))
		all = append(all, l)
		byClass[o.class] = append(byClass[o.class], l)
		service[o.class] = append(service[o.class], ms(o.done.Sub(o.sent)))
		queue = append(queue, ms(o.sent.Sub(start.Add(o.due))))
		if o.slept {
			lag = append(lag, ms(o.wake.Sub(start.Add(o.due))))
		}
	}
	b.ops(len(ops), failed)
	if len(all) == 0 {
		return errors.New("no op completed in the measured window")
	}
	b.latencies(all)
	b.set("cpu_ms_per_op", ms(cpu1-cpu0)/float64(done))
	heap, err := st.d.liveHeap(ctx)
	if err != nil {
		return err
	}
	b.set("live_heap_mb", float64(heap)/1e6)

	b.set("serve.edit_delay_p50_ms", percentile(byClass[opEditDelay], 0.50))
	b.set("serve.edit_delay_p99_ms", percentile(byClass[opEditDelay], 0.99))
	b.set("serve.edit_topo_p50_ms", percentile(byClass[opEditTopo], 0.50))
	b.set("serve.report_p50_ms", percentile(byClass[opReport], 0.50))
	b.set("serve.report_p90_ms", percentile(byClass[opReport], 0.90))
	for c, name := range opNames {
		b.set("client."+name+".service_p50_ms", percentile(service[c], 0.50))
	}
	b.set("client.queue_p99_ms", percentile(queue, 0.99))
	b.set("client.lag_p99_ms", percentile(lag, 0.99))
	delta := func(k string) float64 { return float64(c1[k] - c0[k]) }
	b.set("journal.syncs_per_append", delta("journal.syncs")/max(delta("journal.appends"), 1))
	b.set("server.requests_shed", delta("server.requests_shed"))
	b.set("incr.full_fallbacks", delta("incr.full_fallbacks"))
	b.set("sta.clusters_analyzed", delta("sta.clusters_analyzed")/float64(len(ops)))
	b.set("delaycalc.evaluations", delta("delaycalc.evaluations")/float64(len(ops)))

	if b.trace {
		if err := traceServe(ctx, b, st, ops, start, percentile(byClass[opEditDelay], 0.50)); err != nil {
			return err
		}
	}
	return serveOracle(ctx, b, st, ops)
}

// traceServe reads the daemon's span tree of every traced delay edit from
// GET /v1/traces/{id} and splits the edit's time across the daemon's layers
// (means per edit) and the HTTP transport around them.
func traceServe(ctx context.Context, b *bench, st *serveState, ops []serveOp, start time.Time, untracedMs float64) error {
	sums := newSpanSums()
	var transport, lat []float64
	for i := range ops {
		o := &ops[i]
		if o.class != opEditDelay || o.traceID == "" || !o.ok {
			continue
		}
		code, raw, err := st.d.do(ctx, http.MethodGet, st.d.base+"/v1/traces/"+o.traceID, nil, "")
		var ex span.Export
		if err == nil && code == http.StatusOK {
			err = json.Unmarshal(raw, &ex)
		}
		if err != nil || code != http.StatusOK || ex.Root == nil {
			return fmt.Errorf("fetch trace %s: status %d: %v", o.traceID, code, err)
		}
		sums.add(ex.Root)
		transport = append(transport, us(o.done.Sub(o.sent)-time.Duration(ex.Root.DurNs)))
		lat = append(lat, ms(o.done.Sub(start.Add(o.due))))
	}
	n := float64(len(transport))
	if n == 0 {
		return errors.New("no traced delay edit completed")
	}
	b.set("hummingbirdd.admission_us", us(sums.dur["admission"])/n)
	b.set("incremental.classify_us", us(sums.dur["incr.classify"])/n)
	b.set("core.sweep_us", us(sums.dur["core.sweep"])/n)
	b.set("core.sweeps", float64(sums.count["core.sweep"])/n)
	b.set("sta.recompute_us", us(sums.dur["sta.recompute"]+sums.dur["sta.recompute_parallel"])/n)
	b.set("journal.append_us", us(sums.dur["journal.append"])/n)
	b.set("journal.fsync_us", us(sums.dur["journal.fsync"])/n)
	b.set("hummingbirdd.encode_us", us(sums.dur["encode"])/n)
	b.set("hummingbirdd.handler_self_us", us(sums.self["server.edits"])/n)
	b.set("http.transport_us", mean(transport))
	b.set("trace.overhead_pct", (median(lat)/untracedMs-1)*100)
	return nil
}

// serveOracle checks every session's final report. Adjustments commute and
// topology edits add and remove the same buffer, so each session must equal
// a fresh analysis of the design at the sum of its acknowledged adjustments.
func serveOracle(ctx context.Context, b *bench, st *serveState, ops []serveOp) error {
	sums := make([]map[string]clock.Time, len(st.sessions))
	for i := range sums {
		sums[i] = map[string]clock.Time{}
	}
	for i := range ops {
		if o := &ops[i]; o.class == opEditDelay && o.ok {
			sums[o.session][o.inst] += o.delta
		}
	}
	if b.perturb == "serve" {
		sums[0][st.targets[0].inst] += clock.Ps
	}
	for i, sid := range st.sessions {
		opts := core.DefaultOptions()
		opts.Adjustments = map[string]clock.Time{}
		for inst, d := range sums[i] {
			if d != 0 {
				opts.Adjustments[inst] = d
			}
		}
		d, err := netlist.ParseString(st.text)
		if err != nil {
			return fmt.Errorf("oracle parse: %w", err)
		}
		a, err := core.Load(b.lib, d, opts)
		if err != nil {
			return fmt.Errorf("oracle load: %w", err)
		}
		rep, err := a.IdentifySlowPaths()
		if err != nil {
			return fmt.Errorf("oracle analysis: %w", err)
		}
		var want bytes.Buffer
		if err := report.WriteJSON(&want, a, rep); err != nil {
			return err
		}
		code, got, err := st.d.do(ctx, http.MethodGet, st.d.base+"/v1/sessions/"+sid+"/report", nil, "")
		b.check("serve-final-report", err == nil && code == http.StatusOK && bytes.Equal(got, want.Bytes()),
			"session %s: status %d, %d bytes, want %d bytes equal to a fresh analysis (%v)", sid, code, len(got), want.Len(), err)
	}
	return nil
}
