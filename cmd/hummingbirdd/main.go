// Command hummingbirdd is the long-lived analysis session server: clients
// open a design, stream edits against it and receive delta timing reports,
// the way a resynthesis tool drives the analyzer in the paper's Algorithm 3
// loop — but over HTTP/JSON so the elaborated network and cached analysis
// state survive between calls.
//
// Protocol (see docs/INCREMENTAL.md for a worked curl session):
//
//	POST   /v1/sessions                 {"design": "<netlist text>"} → session + first report
//	GET    /v1/sessions                 list open sessions
//	GET    /v1/sessions/{id}            session summary
//	POST   /v1/sessions/{id}/edits      {"edits":[...]} → delta report
//	GET    /v1/sessions/{id}/report     full analysis JSON
//	GET    /v1/sessions/{id}/constraints?net=N  Algorithm 2 budgets
//	GET    /v1/sessions/{id}/trace/last span tree of the session's last request
//	DELETE /v1/sessions/{id}            close (releases the engine, drops the journal)
//	GET    /healthz                     liveness
//	GET    /readyz                      readiness; "state" names why not: starting/degraded/draining
//	GET    /metrics                     Prometheus text exposition
//	GET    /metrics.json                telemetry snapshot JSON
//	GET    /buildinfo                   build metadata (module version, VCS revision)
//
// Sessions are concurrent; edits within one session are serialized. An
// engine lives exactly as long as its session: every way out of service
// releases it. Sessions opened on the same design (adjustments included)
// share one compiled design while any of them holds it, so such an open
// skips the elaboration.
//
// Observability (see docs/OBSERVABILITY.md): every request runs under a
// trace whose id is generated at admission — or adopted from a well-formed
// client X-Trace-Id request header (load generators tag their ops this
// way) — and returned in the X-Trace-Id header; nested spans cover
// admission wait, journal append+fsync, edit classification, dirty-cluster
// recompute, each fixed-point sweep, and response encoding. The finished span tree of a session's latest request
// is served at /trace/last, every trace is written in Chrome trace-event
// format under -trace-dir when set, and any request slower than
// -slow-threshold dumps its tree to the server log.
//
// Fault tolerance (see docs/ROBUSTNESS.md):
//
//   - Every request runs under a deadline (-request-timeout); an analysis
//     that exceeds it is cancelled between clusters and reported as a typed
//     "cancelled" error (504). Non-converging designs exhaust the sweep
//     budget (-max-sweeps) and report a typed "non_convergence" error (422).
//   - Handler panics are recovered; the session they ran against is
//     quarantined — later operations on it fail fast with 503 and the panic
//     diagnostic — while every other session keeps serving.
//   - With -journal-dir set, every session-mutating operation is journaled
//     and fsynced before the response is acknowledged; a restarted daemon
//     replays the journals and restores the sessions under their old ids.
//   - Admission control (-max-inflight, -queue-timeout) sheds load with
//     429 + Retry-After instead of queueing without bound.
//   - -failpoints exposes /debug/failpoints for fault injection (chaos
//     tests); HB_FAILPOINTS arms points at startup.
//
// Load testing and live profiling: -debug-addr starts a second listener
// serving net/http/pprof (CPU/heap/goroutine/mutex/block profiles of a
// daemon under load, never routed through — or shed by — the service mux);
// on SIGINT/SIGTERM the daemon reports "draining" at /readyz for
// -drain-grace before closing the listener, so balancers and
// cmd/hummingbirdload stop routing new sessions to it first.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"hummingbird/internal/buildinfo"
	"hummingbird/internal/celllib"
	"hummingbird/internal/clock"
	"hummingbird/internal/cluster"
	"hummingbird/internal/core"
	"hummingbird/internal/failpoint"
	"hummingbird/internal/fleet"
	"hummingbird/internal/incremental"
	"hummingbird/internal/journal"
	"hummingbird/internal/netlist"
	"hummingbird/internal/report"
	"hummingbird/internal/sta"
	"hummingbird/internal/telemetry"
	"hummingbird/internal/telemetry/flight"
	"hummingbird/internal/telemetry/span"
)

var (
	mSessionsOpened  = telemetry.NewCounter("hummingbirdd.sessions_opened")
	mSessionsClosed  = telemetry.NewCounter("hummingbirdd.sessions_closed")
	mEditCalls       = telemetry.NewCounter("hummingbirdd.edit_calls")
	mPanicsRecovered = telemetry.NewCounter("server.panics_recovered")
	mRequestsShed    = telemetry.NewCounter("server.requests_shed")
	mQuarantined     = telemetry.NewCounter("server.sessions_quarantined")
	mReplayed        = telemetry.NewCounter("server.sessions_replayed")
	mTraceInherited  = telemetry.NewCounter("server.trace_ids_inherited")
)

// requestTimers holds one latency histogram per guarded endpoint; the op
// names match the guard() labels so the Prometheus surface exposes
// hb_server_request_<op>_seconds histograms.
var requestTimers = map[string]*telemetry.Timer{
	"open":        telemetry.NewTimer("server.request.open"),
	"list":        telemetry.NewTimer("server.request.list"),
	"summary":     telemetry.NewTimer("server.request.summary"),
	"edits":       telemetry.NewTimer("server.request.edits"),
	"report":      telemetry.NewTimer("server.request.report"),
	"constraints": telemetry.NewTimer("server.request.constraints"),
	"close":       telemetry.NewTimer("server.request.close"),
	"park":        telemetry.NewTimer("server.request.park"),
}

// traceSeq disambiguates trace ids generated within one millisecond.
var traceSeq atomic.Int64

// newTraceID generates a request trace id at admission: wall-clock millis
// in base36 plus a process-wide sequence number, unique within and across
// restarts of one daemon. Both numbers go into one buffer, converted once.
func newTraceID() string {
	var buf [27]byte // two base-36 int64s and the dash
	b := strconv.AppendInt(buf[:0], time.Now().UnixMilli(), 36)
	b = append(b, '-')
	return string(strconv.AppendInt(b, traceSeq.Add(1), 36))
}

// inboundTraceID returns the client's X-Trace-Id when span.ValidID
// accepts it, else "". A load generator (or an upstream proxy, or the
// fleet router's failover orchestration) tags its requests so a slow
// response can be matched to the daemon's trace exports.
func inboundTraceID(r *http.Request) string {
	if id := r.Header.Get(span.TraceIDHeader); span.ValidID(id) {
		return id
	}
	return ""
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "hummingbirdd:", err)
		os.Exit(1)
	}
}

func run(args []string, w, errW io.Writer) error {
	fs := flag.NewFlagSet("hummingbirdd", flag.ContinueOnError)
	fs.SetOutput(errW)
	var (
		addr        = fs.String("addr", "127.0.0.1:7077", "listen address")
		libFile     = fs.String("lib", "", "cell library file (default: built-in library)")
		maxSessions = fs.Int("max-sessions", 64, "maximum concurrently open sessions")
		metricsOut  = fs.String("metrics-out", "", "write a JSON telemetry snapshot to this file on shutdown")
		reqTimeout  = fs.Duration("request-timeout", 30*time.Second, "per-request deadline; slow analyses are cancelled (0 = none)")
		maxInflight = fs.Int("max-inflight", 32, "maximum concurrently served requests (0 = unbounded)")
		queueWait   = fs.Duration("queue-timeout", time.Second, "how long an over-limit request may wait before 429")
		maxSweeps   = fs.Int("max-sweeps", 0, "fixed-point sweep budget per iteration (0 = auto)")
		workers     = fs.Int("workers", 0, "parallel analysis workers per request; full analyses and large incremental recomputes spread across this many goroutines, capped at GOMAXPROCS (<=1 = sequential)")
		journalDir  = fs.String("journal-dir", "", "directory for per-session edit journals (crash recovery; empty = off)")
		shutGrace   = fs.Duration("shutdown-grace", 5*time.Second, "how long shutdown may drain connections and flush journals")
		failpoints  = fs.Bool("failpoints", false, "expose /debug/failpoints fault-injection endpoints")
		traceDir    = fs.String("trace-dir", "", "write every finished request trace here in Chrome trace-event format (empty = off)")
		slowThresh  = fs.Duration("slow-threshold", 0, "log the full span tree of any request slower than this (0 = off)")
		debugAddr   = fs.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = off)")
		mutexFrac   = fs.Int("mutex-profile-fraction", 0, "runtime mutex contention sampling rate for /debug/pprof/mutex (0 = off)")
		blockRate   = fs.Int("block-profile-rate", 0, "runtime blocking sampling rate in ns for /debug/pprof/block (0 = off)")
		drainGrace  = fs.Duration("drain-grace", 0, "how long /readyz advertises draining before the listener stops accepting (0 = immediate)")
		replicaID   = fs.String("replica-id", "", "stable replica id in a fleet (prefixes session ids, labels metrics; empty = standalone)")
		traceRetain = fs.Int("trace-retain", 256, "finished request traces retained for GET /v1/traces/{id}")
		eventRetain = fs.Int("events-retain", 512, "lifecycle events retained in the flight recorder (GET /events)")
		version     = fs.Bool("version", false, "print version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		buildinfo.WriteVersion(w, "hummingbirdd")
		return nil
	}
	if env := os.Getenv("HB_FAILPOINTS"); env != "" {
		if err := failpoint.ArmFromEnv(env); err != nil {
			return err
		}
	}
	lib := celllib.Default()
	if *libFile != "" {
		lf, err := os.Open(*libFile)
		if err != nil {
			return err
		}
		var perr error
		lib, perr = celllib.ParseLibrary(lf)
		lf.Close()
		if perr != nil {
			return perr
		}
	}
	telemetry.Enable()
	defer telemetry.Disable()
	telemetry.RegisterRuntimeGauges()
	if *replicaID != "" {
		// Every Prometheus sample this process exposes carries the replica
		// label, so a fleet-wide scrape can tell the members apart.
		telemetry.SetConstLabels(map[string]string{"replica": *replicaID})
	}

	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			return err
		}
	}
	cfg := serverConfig{
		maxSessions:    *maxSessions,
		requestTimeout: *reqTimeout,
		maxInflight:    *maxInflight,
		queueTimeout:   *queueWait,
		maxSweeps:      *maxSweeps,
		workers:        *workers,
		failpoints:     *failpoints,
		traceDir:       *traceDir,
		slowThreshold:  *slowThresh,
		replicaID:      *replicaID,
		traceRetain:    *traceRetain,
		eventsRetain:   *eventRetain,
		errLog:         errW,
	}
	if *journalDir != "" {
		jm, err := journal.NewManager(*journalDir)
		if err != nil {
			return err
		}
		cfg.journal = jm
	}
	srv := newServer(lib, cfg)
	if cfg.journal != nil {
		restored := srv.recoverSessions()
		if restored > 0 {
			fmt.Fprintf(w, "hummingbirdd: replayed %d session(s) from %s\n", restored, *journalDir)
		}
	}
	httpSrv := &http.Server{Addr: *addr, Handler: srv.handler()}

	// The profiling listener is separate from the service listener so a
	// scrape or a 30s CPU capture can never consume an admission slot,
	// and so the service port never exposes pprof. Mutex and block
	// profiles only sample when their runtime rates are set.
	var dbgSrv *http.Server
	if *debugAddr != "" {
		runtime.SetMutexProfileFraction(*mutexFrac)
		if *blockRate > 0 {
			runtime.SetBlockProfileRate(*blockRate)
		}
		dbgSrv = &http.Server{Addr: *debugAddr, Handler: debugMux()}
		go func() {
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(errW, "hummingbirdd: debug listener: %v\n", err)
			}
		}()
		fmt.Fprintf(w, "hummingbirdd debug (pprof) on %s\n", *debugAddr)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(w, "hummingbirdd listening on %s\n", *addr)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown, in two phases: first advertise draining on
	// /readyz for the grace window — load balancers and load generators
	// stop sending new sessions while the listener still serves — then
	// stop accepting and drain in-flight connections.
	srv.draining.Store(true)
	fmt.Fprintln(w, "hummingbirdd: draining")
	if *drainGrace > 0 {
		timer := time.NewTimer(*drainGrace)
		select {
		case <-timer.C:
		case err := <-errc:
			timer.Stop()
			return err
		}
	}
	fmt.Fprintln(w, "hummingbirdd: shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), *shutGrace)
	defer cancel()
	err := httpSrv.Shutdown(shutCtx)
	if dbgSrv != nil {
		dbgSrv.Shutdown(shutCtx)
	}
	// Flush and close journals, release every engine — even when the
	// drain above timed out, acknowledged records must reach the disk.
	srv.shutdown()
	if err != nil {
		return err
	}
	if *metricsOut != "" {
		mf, err := os.Create(*metricsOut)
		if err != nil {
			return err
		}
		if err := telemetry.WriteSnapshot(mf); err != nil {
			mf.Close()
			return err
		}
		if err := mf.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote telemetry snapshot to %s\n", *metricsOut)
	}
	return nil
}

// debugMux serves the live profiling surface: pprof index plus the CPU,
// trace, and symbol endpoints. Heap, goroutine, mutex, block and allocs
// profiles are reachable through the index handler's named lookup
// (/debug/pprof/heap etc.). Registered on an explicit mux — never
// http.DefaultServeMux — so nothing else in the process can leak
// handlers onto the debug port.
func debugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true, "debug": true})
	})
	return mux
}

// sess is one open analysis session. Its mutex serializes edits and
// report reads within the session; different sessions run concurrently.
type sess struct {
	id string

	mu      sync.Mutex
	eng     *incremental.Engine // nil once retired
	jw      *journal.Writer     // nil when journaling is off
	edits   int
	created time.Time
	// designKey is the fleet routing key (hash of design + adjustments);
	// reported in the replication inventory so a reconciling router can
	// re-pin the session without replaying its journal.
	designKey string
	// prevRes is the result of the previous analysis and prevNets the net
	// table it is indexed by, for delta reports. Results an engine hands
	// out are never written again, so holding the pointer is a snapshot.
	prevRes  *sta.Result
	prevNets []string
	// lastTrace is the finished span tree of the session's most recent
	// guarded request (served at /trace/last). It dies with the session.
	// It is stored without ss.mu, so a finished request never waits for
	// whatever else holds the session.
	lastTrace atomic.Pointer[span.Trace]
}

// serverConfig bundles the run-time knobs of the daemon.
type serverConfig struct {
	maxSessions    int
	requestTimeout time.Duration // 0 = no deadline
	maxInflight    int           // 0 = unbounded
	queueTimeout   time.Duration
	maxSweeps      int              // 0 = auto
	workers        int              // parallel analysis workers; <=1 = sequential
	journal        *journal.Manager // nil = journaling off
	failpoints     bool             // expose /debug/failpoints
	traceDir       string           // Chrome trace-event export dir; "" = off
	slowThreshold  time.Duration    // slow-request log threshold; 0 = off
	replicaID      string           // fleet replica id; "" = standalone
	traceRetain    int              // trace ring capacity; <=0 = default
	eventsRetain   int              // flight recorder capacity; <=0 = default
	errLog         io.Writer        // panic stacks and replay diagnostics
}

// server owns the session table and the compile cache its engines share.
type server struct {
	lib  *celllib.Library
	opts core.Options
	cfg  serverConfig

	// inflight is the admission semaphore; nil when unbounded.
	inflight chan struct{}

	// ready flips to true once every journal has been replayed (or
	// immediately when journaling is off); /readyz gates on it.
	ready atomic.Bool

	// draining flips to true when graceful shutdown begins: /readyz
	// answers 503 with state "draining" so load balancers and load
	// generators stop routing new sessions here while in-flight work
	// completes.
	draining atomic.Bool

	mu          sync.Mutex
	sessions    map[string]*sess
	quarantined map[string]string // id → diagnostic of the fault
	nextID      int

	// compile refcounts CompiledDesigns by state key, its own lock —
	// independent of s.mu so engine release callbacks (fired under a
	// session's mutex) can never deadlock against the session table.
	compile *compileCache

	// Fleet replication (see replication.go): outbound journal streams by
	// session and the HTTP client they share; the journal manager keeps
	// the standby journals peers stream here. adoptMu serializes adopt
	// promotions.
	streams      *fleet.StreamSet
	streamClient *http.Client
	adoptMu      sync.Mutex

	// traces retains recently finished request traces for
	// GET /v1/traces/{id} — the fragment store the fleet router's
	// cross-process trace stitcher pulls from. flight is the bounded
	// lifecycle-event timeline behind GET /events.
	traces *span.Ring
	flight *flight.Recorder
}

// processName labels this daemon's trace fragments and flight events:
// the replica id in a fleet, the binary name standalone.
func (s *server) processName() string {
	if s.cfg.replicaID != "" {
		return s.cfg.replicaID
	}
	return "hummingbirdd"
}

func newServer(lib *celllib.Library, cfg serverConfig) *server {
	if cfg.errLog == nil {
		cfg.errLog = io.Discard
	}
	opts := core.DefaultOptions()
	opts.MaxSweeps = cfg.maxSweeps
	opts.Workers = cfg.workers
	if cfg.traceRetain <= 0 {
		cfg.traceRetain = 256
	}
	s := &server{
		lib:         lib,
		opts:        opts,
		cfg:         cfg,
		sessions:    make(map[string]*sess),
		quarantined: make(map[string]string),
		compile:     newCompileCache(),
		traces:      span.NewRing(cfg.traceRetain),
	}
	s.flight = flight.NewRecorder(s.processName(), cfg.eventsRetain)
	if cfg.maxInflight > 0 {
		s.inflight = make(chan struct{}, cfg.maxInflight)
	}
	if cfg.journal == nil {
		s.ready.Store(true) // nothing to replay
	} else {
		s.streams = fleet.NewStreamSet()
		s.streamClient = &http.Client{Timeout: 5 * time.Second}
		telemetry.NewGaugeFunc("fleet.stream_lag_frames", func() float64 {
			return float64(s.streams.TotalLag())
		})
		telemetry.NewGaugeFunc("fleet.streams_active", func() float64 {
			return float64(s.streams.Len())
		})
	}
	// Server-health gauges. NewGaugeFunc replaces by name, so tests that
	// build several servers in one process always read the newest one.
	telemetry.NewGaugeFunc("server.inflight", func() float64 {
		return float64(len(s.inflight))
	})
	telemetry.NewGaugeFunc("server.draining", func() float64 {
		if s.draining.Load() {
			return 1
		}
		return 0
	})
	telemetry.NewGaugeFunc("server.sessions_open", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.sessions))
	})
	telemetry.NewGaugeFunc("server.sessions_quarantined", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.quarantined))
	})
	// Compile-cache gauges (rendered as hb_compile_cache_designs and
	// hb_compile_cache_refs on /metrics): distinct shared CompiledDesigns
	// and the total session references on them.
	telemetry.NewGaugeFunc("compile_cache.designs", func() float64 {
		return float64(s.compile.designs())
	})
	telemetry.NewGaugeFunc("compile_cache.refs", func() float64 {
		return float64(s.compile.totalRefs())
	})
	return s
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.guard("open", s.handleOpen))
	mux.HandleFunc("GET /v1/sessions", s.guard("list", s.handleList))
	mux.HandleFunc("GET /v1/sessions/{id}", s.guard("summary", s.handleSummary))
	mux.HandleFunc("POST /v1/sessions/{id}/edits", s.guard("edits", s.handleEdits))
	mux.HandleFunc("GET /v1/sessions/{id}/report", s.guard("report", s.handleReport))
	mux.HandleFunc("GET /v1/sessions/{id}/constraints", s.guard("constraints", s.handleConstraints))
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.guard("close", s.handleClose))
	mux.HandleFunc("GET /v1/sessions/{id}/trace/last", s.handleTraceLast)
	// Fleet control plane (replication.go). Park runs under the guard
	// (it mutates a session, so it gets tracing, quarantine fast-fail
	// and panic isolation); the replication endpoints are unguarded like
	// /readyz — the router's failover orchestration must keep working
	// while the service lanes are saturated.
	mux.HandleFunc("POST /v1/sessions/{id}/park", s.guard("park", s.handlePark))
	mux.HandleFunc("GET /v1/sessions/{id}/journal", s.handleJournalExport)
	mux.HandleFunc("POST /v1/replication/sessions/{id}/frames", s.traced("repl_frames", s.handleReplFrames))
	mux.HandleFunc("POST /v1/replication/sessions/{id}/adopt", s.traced("repl_adopt", s.handleReplAdopt))
	mux.HandleFunc("POST /v1/replication/sessions/{id}/release", s.traced("repl_release", s.handleReplRelease))
	mux.HandleFunc("POST /v1/replication/sessions/{id}/forget", s.traced("repl_forget", s.handleReplForget))
	mux.HandleFunc("GET /v1/replication/inventory", s.handleReplInventory)
	// Fleet observability: retained trace fragments (the router's
	// /fleet/trace stitcher pulls these) and the flight-recorder event
	// timeline. Unguarded — they must answer during failover storms.
	mux.HandleFunc("GET /v1/traces/{id}", s.handleTraceGet)
	mux.HandleFunc("GET /events", s.flight.ServeHTTP)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
	})
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		telemetry.WritePrometheus(w)
	})
	mux.HandleFunc("GET /metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		telemetry.WriteSnapshot(w)
	})
	mux.HandleFunc("GET /buildinfo", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			buildinfo.Info
			Replica string `json:"replica,omitempty"`
		}{buildinfo.Collect(), s.cfg.replicaID})
	})
	if s.cfg.failpoints {
		mux.HandleFunc("GET /debug/failpoints", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, map[string]any{"failpoints": failpoint.List()})
		})
		mux.HandleFunc("PUT /debug/failpoints/{name}", func(w http.ResponseWriter, r *http.Request) {
			spec, err := io.ReadAll(io.LimitReader(r.Body, 4096))
			if err != nil {
				httpError(w, http.StatusBadRequest, "read spec: %v", err)
				return
			}
			name := r.PathValue("name")
			if err := failpoint.Arm(name, strings.TrimSpace(string(spec))); err != nil {
				httpError(w, http.StatusUnprocessableEntity, "%v", err)
				return
			}
			writeJSON(w, http.StatusOK, map[string]any{"failpoint": name, "armed": true})
		})
		mux.HandleFunc("DELETE /debug/failpoints/{name}", func(w http.ResponseWriter, r *http.Request) {
			failpoint.Disarm(r.PathValue("name"))
			writeJSON(w, http.StatusOK, map[string]any{"failpoint": r.PathValue("name"), "armed": false})
		})
	}
	return mux
}

// startTracker wraps a ResponseWriter and records whether the response has
// been started, so the panic recovery in guard knows whether it may still
// write an error body or would only corrupt an in-flight response. It also
// holds the request's admission slot (nil when none is held), which the
// guard frees when the handler returns, or the handler sooner through
// freeSlot. Only the request's goroutine touches it.
type startTracker struct {
	http.ResponseWriter
	started bool
	slot    chan struct{}
}

func (t *startTracker) freeSlot() {
	if t.slot != nil {
		<-t.slot
		t.slot = nil
	}
}

// slotKey carries a guarded request's startTracker in its context.
type slotKey struct{}

// freeSlot frees the admission slot of the guarded request ctx belongs
// to, for a handler whose remaining work needs no slot: a report that has
// taken its snapshot and only streams it to the client. A no-op when no
// slot is held.
func freeSlot(ctx context.Context) {
	if t, ok := ctx.Value(slotKey{}).(*startTracker); ok {
		t.freeSlot()
	}
}

// Unwrap gives http.ResponseController the connection's writer, so a
// handler can set its write deadline.
func (t *startTracker) Unwrap() http.ResponseWriter { return t.ResponseWriter }

func (t *startTracker) WriteHeader(code int) {
	t.started = true
	t.ResponseWriter.WriteHeader(code)
}

func (t *startTracker) Write(b []byte) (int, error) {
	t.started = true
	return t.ResponseWriter.Write(b)
}

// guard is the middleware wrapped around every session endpoint: admission
// control (bounded in-flight requests with a queue timeout), the
// per-request deadline, the quarantine fast-fail, and panic isolation. A
// panicking handler quarantines only the session it ran against; the
// recover here keeps the rest of the process serving.
func (s *server) guard(op string, h http.HandlerFunc) http.HandlerFunc {
	root := "server." + op
	return func(rw http.ResponseWriter, r *http.Request) {
		w := &startTracker{ResponseWriter: rw}
		// The trace starts the moment the request reaches the guard. This
		// finish defer is declared before the recover defer below, so a
		// panicking request's spans are force-ended and recorded too
		// (defers run LIFO).
		tr := s.requestTrace(w, r, root, true)
		defer s.finishRequest(op, tr)
		trCtx := span.NewContext(r.Context(), tr)
		// The admission span's returned context is discarded: later spans
		// nest under the root, as siblings of the wait.
		_, adm := span.Start(trCtx, "admission")
		if s.inflight != nil {
			select {
			case s.inflight <- struct{}{}:
			default:
				timer := time.NewTimer(s.cfg.queueTimeout)
				select {
				case s.inflight <- struct{}{}:
					timer.Stop()
				case <-timer.C:
					mRequestsShed.Inc()
					adm.End()
					w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.queueTimeout)))
					httpError(w, http.StatusTooManyRequests, "server at capacity (%d in flight)", s.cfg.maxInflight)
					return
				case <-r.Context().Done():
					timer.Stop()
					return
				}
			}
			w.slot = s.inflight
			defer w.freeSlot()
			trCtx = context.WithValue(trCtx, slotKey{}, w)
		}
		adm.End()
		if id := r.PathValue("id"); id != "" {
			if diag, ok := s.quarantineInfo(id); ok {
				if r.Method == http.MethodDelete {
					// Closing a quarantined session acknowledges the fault
					// and releases the id.
					s.clearQuarantine(id)
					writeJSON(w, http.StatusOK, map[string]any{
						"session": id, "closed": true, "quarantined": true,
					})
					return
				}
				httpError(w, http.StatusServiceUnavailable, "session %s quarantined: %s", id, diag)
				return
			}
		}
		ctx := trCtx
		if s.cfg.requestTimeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.requestTimeout)
			defer cancel()
		}
		r = r.WithContext(ctx)
		defer func() {
			if v := recover(); v != nil {
				mPanicsRecovered.Inc()
				fmt.Fprintf(s.cfg.errLog, "hummingbirdd: panic in %s %s: %v\n%s\n", op, r.URL.Path, v, debug.Stack())
				diag := fmt.Sprintf("panic during %s: %v", op, v)
				if id := r.PathValue("id"); id != "" {
					s.quarantine(id, diag)
				}
				// Only answer if the handler had not started a response — a
				// late WriteHeader would corrupt whatever was in flight. The
				// body is deliberately generic; the panic value stays in the
				// server log and the quarantine diagnostic.
				if !w.started {
					httpError(w, http.StatusInternalServerError, "internal error during %s", op)
				}
			}
		}()
		h(w, r)
	}
}

// requestTrace starts the span tree of one request, with a root span named
// root: under the client's X-Trace-Id when it is valid (counted in
// server.trace_ids_inherited), else under a fresh id when mint is set,
// else not at all (nil). A valid
// X-Hb-Parent-Span marks the request as one hop of a distributed
// operation (the router's failover or migration): the fragment records
// the remote span it hangs off, so the fleet stitcher can splice it into
// the cross-process tree. The id is echoed in X-Trace-Id, so a client can
// match a slow response to the daemon's trace exports.
func (s *server) requestTrace(w http.ResponseWriter, r *http.Request, root string, mint bool) *span.Trace {
	id := inboundTraceID(r)
	switch {
	case id != "":
		mTraceInherited.Inc()
	case mint:
		id = newTraceID()
	default:
		return nil
	}
	tr := span.New(id, root)
	tr.SetProcess(s.processName())
	if ps := r.Header.Get(span.ParentSpanHeader); span.ValidID(ps) {
		tr.SetRemoteParent(ps)
	}
	if sid := r.PathValue("id"); sid != "" {
		tr.Root().Annotate("session", sid)
	}
	w.Header().Set(span.TraceIDHeader, tr.ID())
	return tr
}

// traced wraps an unguarded replication endpoint with opt-in tracing: a
// span tree is created only when the caller sent a valid X-Trace-Id.
// The router's failover and migration orchestration tags its hops, so
// those requests become retained trace fragments this daemon serves at
// /v1/traces/{id}; the high-rate standby frame stream from a peer
// primary carries no trace header and keeps its zero-overhead path.
func (s *server) traced(op string, h http.HandlerFunc) http.HandlerFunc {
	root := "server." + op
	return func(w http.ResponseWriter, r *http.Request) {
		tr := s.requestTrace(w, r, root, false)
		if tr == nil {
			h(w, r)
			return
		}
		defer func() {
			tr.Finish()
			s.traces.Add(tr)
		}()
		h(w, r.WithContext(span.NewContext(r.Context(), tr)))
	}
}

// handleTraceGet serves one retained trace fragment in its wire form
// (span.Export) — the unit the router's /fleet/trace/{id} stitcher
// collects from every member and splices into a cross-process tree.
func (s *server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t := s.traces.Get(id)
	if t == nil {
		httpError(w, http.StatusNotFound, "trace %q not retained on this replica", id)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	t.Export().WriteJSON(w)
}

// finishRequest closes a request's trace and fans it out: the per-op
// latency histogram, the owning session's /trace/last slot, the
// slow-request log, and the -trace-dir Chrome export.
func (s *server) finishRequest(op string, tr *span.Trace) {
	total := tr.Finish()
	s.traces.Add(tr)
	if t := requestTimers[op]; t != nil {
		t.Observe(total)
	}
	if sid := tr.Root().Attr("session"); sid != "" {
		if ss := s.session(sid); ss != nil {
			ss.lastTrace.Store(tr)
		}
	}
	if s.cfg.slowThreshold > 0 && total >= s.cfg.slowThreshold {
		var sb strings.Builder
		fmt.Fprintf(&sb, "hummingbirdd: slow request %s took %v:\n", op, total)
		tr.WriteText(&sb)
		// The flight-recorder tail rides along: a slow request usually has
		// fleet-lifecycle context (a failover in progress, a stream backing
		// off) that the span tree alone cannot show.
		if tail := s.flight.Tail(12); len(tail) > 0 {
			fmt.Fprintf(&sb, "recent flight events:\n")
			s.flight.WriteText(&sb, 12)
		}
		fmt.Fprint(s.cfg.errLog, sb.String())
	}
	if s.cfg.traceDir != "" {
		path := filepath.Join(s.cfg.traceDir, tr.ID()+".trace.json")
		f, err := os.Create(path)
		if err == nil {
			err = tr.WriteChrome(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(s.cfg.errLog, "hummingbirdd: write trace %s: %v\n", path, err)
		}
	}
}

// handleReadyz reports readiness: journals replayed, no session
// quarantined, the admission semaphore below its ceiling, and not
// draining. Load balancers use it to stop routing to a daemon that is
// still alive (healthz) but should not receive new work. The "state"
// field distinguishes why: "starting" (journals replaying), "draining"
// (graceful shutdown in progress — existing requests still complete),
// "degraded" (quarantine or saturation), "ready".
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	quarantined := len(s.quarantined)
	s.mu.Unlock()
	inflight, ceiling := 0, 0
	if s.inflight != nil {
		inflight, ceiling = len(s.inflight), cap(s.inflight)
	}
	draining := s.draining.Load()
	ready := !draining && s.ready.Load() && quarantined == 0 && (s.inflight == nil || inflight < ceiling)
	state := "ready"
	switch {
	case draining:
		state = "draining"
	case !s.ready.Load():
		state = "starting"
	case !ready:
		state = "degraded"
	}
	status := http.StatusOK
	if !ready {
		status = http.StatusServiceUnavailable
	}
	body := map[string]any{
		"ready":        ready,
		"state":        state,
		"replayed":     s.ready.Load(),
		"quarantined":  quarantined,
		"inflight":     inflight,
		"max_inflight": ceiling,
	}
	if s.cfg.replicaID != "" {
		body["replica"] = s.cfg.replicaID
	}
	writeJSON(w, status, body)
}

// handleTraceLast serves the span tree of the session's most recent
// guarded request as JSON. Unguarded and without the session lock: it
// must stay readable while the server is saturated or the session busy,
// and must not overwrite the trace it reports.
func (s *server) handleTraceLast(w http.ResponseWriter, r *http.Request) {
	ss := s.session(r.PathValue("id"))
	if ss == nil {
		httpError(w, http.StatusNotFound, "no such session")
		return
	}
	tr := ss.lastTrace.Load()
	if tr == nil {
		httpError(w, http.StatusNotFound, "no trace recorded for session yet")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	tr.WriteJSON(w)
}

// retryAfterSeconds rounds the queue timeout up to a whole non-zero number
// of seconds for the Retry-After header.
func retryAfterSeconds(d time.Duration) int {
	n := int((d + time.Second - 1) / time.Second)
	if n < 1 {
		n = 1
	}
	return n
}

// fate is what retire does with a session's journal. The engine is
// released whatever the fate.
type fate int

const (
	dropJournal fate = iota // client close: nothing is left to replay
	keepJournal             // park, shutdown, refused open or adopt: the journal stays the session's truth
	setAside                // fault: kept for post-mortem, never replayed; the id answers 503 until a DELETE
)

// errLiveID is admit's refusal of an id another live session holds.
var errLiveID = errors.New("session id already live")

// admit puts ss in service: the one way in, for opens, recoveries and
// adopts. Under one hold of s.mu it checks the session limit (limit false
// exempts a recovered session, admitted before the restart), gives ss a
// fresh id when it brings none, refuses an id that is already live
// (errLiveID), claims the id and inserts the session. Callers that still
// attach a journal or streams hold ss.mu, so no request uses the session
// before it is complete.
func (s *server) admit(ss *sess, limit bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if limit && len(s.sessions) >= s.cfg.maxSessions {
		return fmt.Errorf("session limit (%d) reached", s.cfg.maxSessions)
	}
	if ss.id == "" {
		ss.id = s.sidPrefix() + strconv.Itoa(s.nextID+1)
	}
	if _, live := s.sessions[ss.id]; live {
		return fmt.Errorf("%w: %s", errLiveID, ss.id)
	}
	s.claim(ss.id)
	s.sessions[ss.id] = ss
	return nil
}

// refuseAdmission answers a refused admit: 409 for an id already live,
// 503 for the session limit.
func refuseAdmission(w http.ResponseWriter, err error) {
	status := http.StatusServiceUnavailable
	if errors.Is(err, errLiveID) {
		status = http.StatusConflict
	}
	httpError(w, status, "%v", err)
}

// claim keeps the id allocator past id when id has this replica's own
// form, so a fresh id never collides with one restored, adopted home or
// set aside. Callers hold s.mu.
func (s *server) claim(id string) {
	if rest, ok := strings.CutPrefix(id, s.sidPrefix()); ok {
		if n, err := strconv.Atoi(rest); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
}

// retire takes ss out of service: the one way out, for a close, a park, a
// quarantine, a refused open or adopt, a failed restore and shutdown. It
// removes ss from the table (a session never admitted is not in it),
// detaches its replication stream — flushed first when the journal is
// kept, so the hop lags tell a migration whether each standby is
// complete — closes the journal writer and removes, keeps or sets aside
// the journal, then releases the engine's compile-cache reference: it is
// the daemon's one ReleaseShared call. diag is the quarantine diagnostic
// of a set-aside session. The caller holds ss.mu of an admitted session
// and has seen it live; retire leaves ss.eng nil, which is how the
// requests waiting on ss.mu see it closed.
func (s *server) retire(ss *sess, f fate, diag string) (hops []fleet.HopLag) {
	s.mu.Lock()
	admitted := s.sessions[ss.id] == ss
	if admitted {
		delete(s.sessions, ss.id)
	}
	if f == setAside {
		s.quarantined[ss.id] = diag
		s.claim(ss.id)
		mQuarantined.Inc()
		s.flight.Record(flight.Error, "session.quarantine", ss.id, "", "%s", diag)
	}
	s.mu.Unlock()
	// Streams attach after admission, and a refused session's id may be
	// another live session's.
	if admitted && s.streams != nil {
		if st := s.streams.Detach(ss.id); st != nil {
			if f == keepJournal {
				st.Flush()
				hops = st.HopLags()
			}
			st.Close()
		}
	}
	if ss.jw != nil {
		if err := ss.jw.Close(); err != nil {
			fmt.Fprintf(s.cfg.errLog, "hummingbirdd: close journal %s: %v\n", ss.id, err)
		}
	}
	if j := s.cfg.journal; j != nil && f != keepJournal {
		drop, verb := j.Remove, "remove"
		if f == setAside {
			drop, verb = j.Quarantine, "set aside"
		}
		if err := drop(ss.id); err != nil {
			fmt.Fprintf(s.cfg.errLog, "hummingbirdd: %s journal %s: %v\n", verb, ss.id, err)
		}
	}
	if ss.eng != nil {
		ss.eng.ReleaseShared()
	}
	ss.eng, ss.jw = nil, nil
	return hops
}

// quarantine sets aside the live session id names after a fault in one
// of its requests (a handler panic). Its engine is released like any
// other: an engine unshares before its first write, so the fault cannot
// have touched a design other sessions share.
func (s *server) quarantine(id, diag string) {
	if ss := s.session(id); ss != nil && ss.live() {
		defer ss.mu.Unlock()
		s.retire(ss, setAside, diag)
	}
}

func (s *server) quarantineInfo(id string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	diag, ok := s.quarantined[id]
	return diag, ok
}

func (s *server) clearQuarantine(id string) {
	s.mu.Lock()
	delete(s.quarantined, id)
	s.mu.Unlock()
}

// session returns the session id names in the table, or nil. It may be
// retired by the time the caller locks it; see live.
func (s *server) session(id string) *sess {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[id]
}

// sessionsByID snapshots the session table in id order.
func (s *server) sessionsByID() []*sess {
	s.mu.Lock()
	out := make([]*sess, 0, len(s.sessions))
	for _, ss := range s.sessions {
		out = append(out, ss)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// live locks ss and reports whether it is still in service, unlocking it
// when it is not. A session is retired under its own lock, so a request
// that found it in the table and then waited on ss.mu while a close
// retired it sees false here.
func (ss *sess) live() bool {
	ss.mu.Lock()
	if ss.eng == nil {
		ss.mu.Unlock()
		return false
	}
	return true
}

// sessionFor is how a handler reaches the session its {id} names: locked
// and live, or nil after answering 404. The caller unlocks ss.mu.
func (s *server) sessionFor(w http.ResponseWriter, r *http.Request) *sess {
	ss := s.session(r.PathValue("id"))
	switch {
	case ss == nil:
		httpError(w, http.StatusNotFound, "no such session")
	case !ss.live():
		httpError(w, http.StatusNotFound, "session closed")
	default:
		return ss
	}
	return nil
}

// shutdown retires every live session with its journal kept. The
// replication streams close unflushed first: peers may be gone, and the
// journals hold every acknowledged record. The HTTP listener is already
// drained.
func (s *server) shutdown() {
	if s.streams != nil {
		s.streams.CloseAll()
	}
	for _, ss := range s.sessionsByID() {
		if ss.live() {
			s.retire(ss, keepJournal, "")
			ss.mu.Unlock()
		}
	}
}

// sidPrefix is the prefix of every session id this replica allocates:
// "s" standalone, "<replica-id>-s" in a fleet — so ids stay unique
// fleet-wide and a failed-over session keeps its id on the peer without
// colliding with the peer's own allocations.
func (s *server) sidPrefix() string {
	if s.cfg.replicaID != "" {
		return s.cfg.replicaID + "-s"
	}
	return "s"
}

type openRequest struct {
	// Design is the netlist text (the .hb format).
	Design string `json:"design"`
	// Adjustments maps instance names to additive delay adjustments
	// ("200ps", "-1ns").
	Adjustments map[string]string `json:"adjustments,omitempty"`
}

// parseOpen turns an open request into a parsed design and options; it is
// shared by the live handler and journal replay so both construct sessions
// identically.
func (s *server) parseOpen(req *openRequest) (*netlist.Design, core.Options, error) {
	design, err := netlist.ParseString(req.Design)
	if err != nil {
		return nil, core.Options{}, fmt.Errorf("parse design: %w", err)
	}
	opts := s.opts
	opts.Adjustments = map[string]clock.Time{}
	for inst, v := range req.Adjustments {
		t, err := netlist.ParseTime(v)
		if err != nil {
			return nil, core.Options{}, fmt.Errorf("adjustment %s: %w", inst, err)
		}
		opts.Adjustments[inst] = t
	}
	return design, opts, nil
}

func (s *server) handleOpen(w http.ResponseWriter, r *http.Request) {
	var req openRequest
	if !decodeBody(w, r, 16<<20, &req) {
		return
	}
	design, opts, err := s.parseOpen(&req)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	key := incremental.StateKey(design, opts.Adjustments)
	eng, sharedDesign, err := s.openEngine(r.Context(), key, design, opts)
	if err != nil {
		writeAnalysisError(w, "open design", err)
		return
	}
	ss := &sess{eng: eng, created: time.Now()}
	if b, merr := json.Marshal(&req); merr == nil {
		ss.designKey = fleet.DesignKey(b)
	}
	ss.rememberSlacks()
	// Admitted locked: no request reaches the session before the open
	// record is fsynced — a crash can never leave an acknowledged session
	// without a journal — and before its streams are attached, so no
	// committed frame can miss them.
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if err := s.admit(ss, true); err != nil {
		s.retire(ss, keepJournal, "")
		refuseAdmission(w, err)
		return
	}
	if s.cfg.journal != nil {
		jw, err := s.cfg.journal.Create(ss.id, &req)
		if err != nil {
			s.retire(ss, keepJournal, "") // Create removed what it wrote
			httpError(w, http.StatusServiceUnavailable, "journal open: %v", err)
			return
		}
		ss.jw = jw
		// Fleet replication: when the router names a standby chain, stream
		// this session's frames to every chain member.
		s.attachStreams(ss.id, jw, fleet.ParsePeers(r.Header))
	}
	mSessionsOpened.Inc()
	// Associate the request trace with the freshly allocated id so the
	// guard's finish hook files it under the new session.
	span.Current(r.Context()).Annotate("session", ss.id)
	resp := map[string]any{"session": ss.id, "shared_design": sharedDesign}
	addSummary(resp, ss, key)
	writeJSON(w, http.StatusCreated, resp)
}

// decodeBody decodes a JSON request body of at most limit bytes into v,
// answering 413 or 400 when it cannot.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		httpError(w, http.StatusRequestEntityTooLarge, "request body over %d bytes", tooBig.Limit)
	default:
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
	}
	return false
}

// openEngine opens an engine for design through the compile cache under
// key (incremental.StateKey of the design and its adjustments). When
// another session already compiled the same key, the engine shares that
// CompiledDesign read-only, skips elaboration and gets only a private
// AnalysisState (shared is true). Otherwise the design is compiled
// privately and published, so the next same-key open shares it; if a
// racing open published first, this engine simply stays private.
func (s *server) openEngine(ctx context.Context, key string, design *netlist.Design, opts core.Options) (eng *incremental.Engine, shared bool, err error) {
	if cd, release := s.compile.acquire(key); cd != nil {
		eng, err = incremental.OpenSharedContext(ctx, s.lib, design, opts, cd, release)
		return eng, true, err
	}
	eng, err = incremental.OpenContext(ctx, s.lib, design, opts)
	if err == nil {
		if release, ok := s.compile.publish(key, eng.CompiledDesign()); ok {
			eng.ShareCompiled(release)
		}
	}
	return eng, false, err
}

// recoverSessions restores every journal in the journal directory under
// its original id, exempt from the session limit: each session was
// admitted before the restart. A journal that fails to restore is set
// aside with a diagnostic, not deleted, and its id stays claimed. Returns
// the number of sessions restored.
func (s *server) recoverSessions() int {
	ids, err := s.cfg.journal.Sessions()
	if err != nil {
		fmt.Fprintf(s.cfg.errLog, "hummingbirdd: list journals: %v\n", err)
		return 0
	}
	restored := 0
	for _, id := range ids {
		if ss, err := s.restore(id); err == nil {
			if err := s.admit(ss, false); err != nil {
				fmt.Fprintf(s.cfg.errLog, "hummingbirdd: recover %s: %v\n", id, err)
				s.retire(ss, keepJournal, "")
				continue
			}
			mReplayed.Inc()
			restored++
		}
	}
	s.ready.Store(true)
	return restored
}

// restore rebuilds session id from its journal, the step recovery and
// adopt share: replay, then compact — the journal is rewritten as the
// open record plus every acknowledged batch, dropping a torn tail, and
// the rewrite is atomic (temp file + rename). A journal that fails either
// step is set aside and the engine released: a session is never served
// without durability.
func (s *server) restore(id string) (*sess, error) {
	ss := &sess{id: id, created: time.Now()}
	req, batches, err := s.replaySession(ss)
	if err == nil {
		if ss.jw, err = s.cfg.journal.Rewrite(id, req, batches); err != nil {
			err = fmt.Errorf("rewrite: %w", err)
		}
	}
	if err != nil {
		fmt.Fprintf(s.cfg.errLog, "hummingbirdd: restore %s: %v (journal set aside)\n", id, err)
		s.retire(ss, setAside, fmt.Sprintf("journal restore failed: %v", err))
		return nil, err
	}
	return ss, nil
}

// replaySession rebuilds ss's engine from its journal records, returning
// the open request and edit batches a compact journal is rewritten from.
// The open record goes through the compile cache like a live open, so a
// recovered or adopted session shares the compiled design of a live
// session on the same design and elaborates otherwise. ss.eng is set as
// soon as the engine exists, so a failed replay releases it through
// retire.
func (s *server) replaySession(ss *sess) (*openRequest, []json.RawMessage, error) {
	recs, err := s.cfg.journal.Read(ss.id)
	if err != nil {
		return nil, nil, err
	}
	var req openRequest
	if err := json.Unmarshal(recs[0].Body, &req); err != nil {
		return nil, nil, fmt.Errorf("decode open record: %w", err)
	}
	design, opts, err := s.parseOpen(&req)
	if err != nil {
		return nil, nil, err
	}
	key := incremental.StateKey(design, opts.Adjustments)
	if ss.eng, _, err = s.openEngine(context.Background(), key, design, opts); err != nil {
		return nil, nil, fmt.Errorf("reopen design: %w", err)
	}
	ss.designKey = fleet.DesignKey(recs[0].Body)
	var batches []json.RawMessage
	for i, rec := range recs[1:] {
		if rec.Kind != journal.KindEdits {
			return nil, nil, fmt.Errorf("record %d: unexpected kind %q", i+1, rec.Kind)
		}
		var ejs []editJSON
		if err := json.Unmarshal(rec.Body, &ejs); err != nil {
			return nil, nil, fmt.Errorf("record %d: decode edits: %w", i+1, err)
		}
		edits, err := toEdits(ejs)
		if err != nil {
			return nil, nil, fmt.Errorf("record %d %w", i+1, err)
		}
		if _, err := ss.eng.Apply(edits...); err != nil {
			return nil, nil, fmt.Errorf("record %d: re-apply: %w", i+1, err)
		}
		ss.edits += len(edits)
		batches = append(batches, rec.Body)
	}
	ss.rememberSlacks()
	return &req, batches, nil
}

func (s *server) handleList(w http.ResponseWriter, r *http.Request) {
	out := make([]map[string]any, 0)
	for _, ss := range s.sessionsByID() {
		if ss.live() {
			m := map[string]any{"session": ss.id}
			addSummary(m, ss, ss.eng.StateHash())
			ss.mu.Unlock()
			out = append(out, m)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func (s *server) handleSummary(w http.ResponseWriter, r *http.Request) {
	ss := s.sessionFor(w, r)
	if ss == nil {
		return
	}
	defer ss.mu.Unlock()
	resp := map[string]any{"session": ss.id}
	addSummary(resp, ss, ss.eng.StateHash())
	writeJSON(w, http.StatusOK, resp)
}

// addSummary fills the common session fields; stateHash is the engine's
// StateHash, which an open has already computed. Callers hold ss.mu.
func addSummary(m map[string]any, ss *sess, stateHash string) {
	eng := ss.eng
	d := eng.Design()
	m["design"] = d.Name
	m["edits"] = ss.edits
	m["state_hash"] = stateHash
	rep := eng.Report()
	m["ok"] = rep.OK
	m["worst_slack"] = timeJSON(rep.WorstSlack())
	m["slow_elements"] = len(rep.SlowElems)
	a := eng.Analyzer()
	m["cells"] = len(d.Instances)
	m["nets"] = len(a.CD.Nets)
	m["clusters"] = len(a.CD.Clusters)
}

type editJSON struct {
	Op    string            `json:"op"`
	Inst  string            `json:"inst,omitempty"`
	To    string            `json:"to,omitempty"`
	Delta string            `json:"delta,omitempty"`
	Pin   string            `json:"pin,omitempty"`
	Net   string            `json:"net,omitempty"`
	Ref   string            `json:"ref,omitempty"`
	Conns map[string]string `json:"conns,omitempty"`
}

// toEdits converts a batch of wire edits; the error names the first bad
// one.
func toEdits(ejs []editJSON) ([]incremental.Edit, error) {
	edits := make([]incremental.Edit, len(ejs))
	for i, e := range ejs {
		ed := &edits[i]
		switch e.Op {
		case "adjust":
			ed.Op = incremental.Adjust
			t, err := netlist.ParseTime(e.Delta)
			if err != nil {
				return nil, fmt.Errorf("edit %d: adjust %s: delta: %w", i, e.Inst, err)
			}
			ed.Delta = t
		case "resize":
			ed.Op = incremental.Resize
		case "replace":
			ed.Op = incremental.Replace
		case "add":
			ed.Op = incremental.AddInst
			ed.New = &netlist.Instance{Name: e.Inst, Ref: e.Ref, Conns: e.Conns}
		case "remove":
			ed.Op = incremental.RemoveInst
		case "rewire":
			ed.Op = incremental.Rewire
		default:
			return nil, fmt.Errorf("edit %d: unknown op %q", i, e.Op)
		}
		ed.Inst, ed.To, ed.Pin, ed.Net = e.Inst, e.To, e.Pin, e.Net
	}
	return edits, nil
}

func (s *server) handleEdits(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Edits []editJSON `json:"edits"`
	}
	if !decodeBody(w, r, 1<<20, &req) {
		return
	}
	if len(req.Edits) == 0 {
		httpError(w, http.StatusBadRequest, "no edits")
		return
	}
	edits, err := toEdits(req.Edits)
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	// The closure owns ss.mu (defer keeps the unlock panic-safe for the
	// guard's recovery, which re-acquires it); the response is encoded
	// after the lock is released.
	resp := func() map[string]any {
		ss := s.sessionFor(w, r)
		if ss == nil {
			return nil
		}
		defer ss.mu.Unlock()
		mEditCalls.Inc()
		prevWorst := ss.eng.Report().WorstSlack()
		t0 := time.Now()
		out, err := ss.eng.ApplyContext(r.Context(), edits...)
		elapsed := time.Since(t0)
		if err != nil {
			// ApplyContext is atomic: a cancelled or failed batch was rolled
			// back, the engine still matches the journal, and nothing is
			// recorded — a client retry applies the batch exactly once.
			writeAnalysisError(w, "apply", err)
			return nil
		}
		if ss.jw != nil {
			// Acknowledged edits must be durable: the record is fsynced
			// before the response. A dead journal poisons the session — its
			// disk state can no longer be trusted to match the in-memory
			// engine — so it is quarantined before the lock is released.
			if err := ss.jw.AppendContext(r.Context(), journal.KindEdits, req.Edits); err != nil {
				s.retire(ss, setAside, fmt.Sprintf("journal append failed: %v", err))
				httpError(w, http.StatusServiceUnavailable, "journal append failed, session quarantined: %v", err)
				return nil
			}
		}
		ss.edits += len(edits)

		rep := out.Report
		resp := map[string]any{
			"session":     ss.id,
			"incremental": out.Incremental,
			"elapsed_us":  elapsed.Microseconds(),
			"ok":          rep.OK,
			"worst_slack": timeJSON(rep.WorstSlack()),
		}
		if out.Incremental {
			resp["dirty_clusters"] = out.DirtyClusters
		} else {
			resp["fallback_reason"] = out.FallbackReason
		}
		if prevWorst != clock.Inf && rep.WorstSlack() != clock.Inf {
			resp["worst_slack_delta_ps"] = int64(rep.WorstSlack() - prevWorst)
		}
		resp["changed_nets"] = ss.slackDeltas()
		ss.rememberSlacks()
		return resp
	}()
	if resp == nil {
		return
	}
	_, esp := span.Start(r.Context(), "encode")
	writeJSON(w, http.StatusOK, resp)
	esp.End()
}

// writeAnalysisError maps analysis failures to typed HTTP errors:
//
//   - a cancelled analysis (request deadline or client disconnect) → 504
//     with kind "cancelled" and the interruption point — the caller knows
//     partial work was discarded;
//   - a non-converging fixed point (sweep budget exhausted) → 422 with
//     kind "non_convergence" and the budget that was exhausted;
//   - anything else (bad edit, unknown instance, ...) → 422 untyped.
func writeAnalysisError(w http.ResponseWriter, op string, err error) {
	var ce *core.CancelledError
	var nc *core.NonConvergenceError
	switch {
	case errors.As(err, &ce):
		writeJSON(w, http.StatusGatewayTimeout, map[string]any{
			"error":     fmt.Sprintf("%s: %v", op, err),
			"kind":      "cancelled",
			"iteration": ce.Iteration,
			"sweep":     ce.Sweep,
			"partial":   true,
		})
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusGatewayTimeout, map[string]any{
			"error":   fmt.Sprintf("%s: %v", op, err),
			"kind":    "cancelled",
			"partial": true,
		})
	case errors.As(err, &nc):
		writeJSON(w, http.StatusUnprocessableEntity, map[string]any{
			"error":      fmt.Sprintf("%s: %v", op, err),
			"kind":       "non_convergence",
			"iteration":  nc.Iteration,
			"max_sweeps": nc.MaxSweeps,
		})
	default:
		httpError(w, http.StatusUnprocessableEntity, "%s: %v", op, err)
	}
}

// rememberSlacks keeps the current result as the base of the next delta
// report; callers hold ss.mu.
func (ss *sess) rememberSlacks() {
	ss.prevRes, ss.prevNets = ss.eng.Report().Result, ss.eng.Analyzer().CD.Nets
}

// slackDeltas lists the nets whose slack moved since the previous
// analysis, tightest new slack first, capped at 20 entries. While the
// compiled design still uses the previous net table — delay-only edits
// keep it and copy-on-write twins share it — the slacks are compared
// index by index, and only in the clusters whose result segment differs
// from the previous result's: a shared segment holds equal slacks, and a
// net outside every cluster is +Inf in both. The cost then follows the
// edit, not the net count. After a topology rebuild renumbers the nets
// they are matched by name, merging the two net tables: both are a
// binding's sorted names.
func (ss *sess) slackDeltas() []map[string]any {
	cd := ss.eng.Analyzer().CD
	nets, res, prev := cd.Nets, ss.eng.Report().Result, ss.prevRes
	type delta struct {
		net      string
		now, was clock.Time
		hasWas   bool
	}
	var ds []delta
	if sameNetTable(nets, ss.prevNets) {
		for c, cl := range cd.Clusters {
			if res.SameSegment(prev, c) {
				continue
			}
			for _, i := range cl.Nets {
				if now, was := res.NetSlack(i), prev.NetSlack(i); was != now {
					ds = append(ds, delta{net: nets[i], now: now, was: was, hasWas: true})
				}
			}
		}
	} else {
		prevNets, j := ss.prevNets, 0
		for i, name := range nets {
			for j < len(prevNets) && prevNets[j] < name {
				j++
			}
			now := res.NetSlack(i)
			if j < len(prevNets) && prevNets[j] == name {
				if was := prev.NetSlack(j); was != now {
					ds = append(ds, delta{net: name, now: now, was: was, hasWas: true})
				}
			} else if now != clock.Inf {
				ds = append(ds, delta{net: name, now: now})
			}
		}
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].now != ds[j].now {
			return ds[i].now < ds[j].now
		}
		return ds[i].net < ds[j].net
	})
	total := len(ds)
	if total > 20 {
		ds = ds[:20]
	}
	out := make([]map[string]any, 0, len(ds)+1)
	for _, d := range ds {
		m := map[string]any{"net": d.net, "slack": timeJSON(d.now)}
		if d.hasWas {
			m["was"] = timeJSON(d.was)
		}
		out = append(out, m)
	}
	if total > len(ds) {
		out = append(out, map[string]any{"truncated": total - len(ds)})
	}
	return out
}

// sameNetTable reports whether a and b are the same net table: one backing
// array, not merely equal names.
func sameNetTable(a, b []string) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// handleReport streams the session's JSON report. The report's inputs are
// taken under the session lock and written after it and the admission
// slot are released, so a client that reads slowly holds up no other
// request of the session or the server. The write ends at the request's
// deadline: a client that stops reading cannot keep the handler, its
// buffer and the snapshot's design past -request-timeout. A write error
// ends the response: the status has gone out with the first bytes.
func (s *server) handleReport(w http.ResponseWriter, r *http.Request) {
	ss := s.sessionFor(w, r)
	if ss == nil {
		return
	}
	snap := report.SnapshotOf(ss.eng.Analyzer(), ss.eng.Report())
	ss.mu.Unlock()
	freeSlot(r.Context())
	_, sp := span.Start(r.Context(), "report.write")
	defer sp.End()
	if deadline, ok := r.Context().Deadline(); ok {
		// A writer without deadlines (a test recorder) writes as before.
		http.NewResponseController(w).SetWriteDeadline(deadline)
	}
	w.Header().Set("Content-Type", "application/json")
	n, err := snap.WriteTo(w)
	sp.AnnotateInt("bytes", int(n))
	if err != nil {
		sp.Annotate("error", err.Error())
	}
}

func (s *server) handleConstraints(w http.ResponseWriter, r *http.Request) {
	ss := s.sessionFor(w, r)
	if ss == nil {
		return
	}
	defer ss.mu.Unlock()
	cons, err := ss.eng.ConstraintsContext(r.Context())
	if err != nil {
		writeAnalysisError(w, "constraints", err)
		return
	}
	a := ss.eng.Analyzer()
	var names []string
	if q := r.URL.Query()["net"]; len(q) > 0 {
		names = q
	} else {
		names = append(names, a.CD.Nets...)
	}
	type netTimes struct {
		Net      string `json:"net"`
		Cluster  int    `json:"cluster"`
		Pass     int    `json:"pass"`
		Ready    any    `json:"ready"`
		Required any    `json:"required"`
	}
	var out []netTimes
	for _, name := range names {
		id, ok := a.CD.NetIdx[name]
		if !ok {
			httpError(w, http.StatusUnprocessableEntity, "unknown net %q", name)
			return
		}
		for _, nt := range cons.NetTimes(id) {
			if nt.Ready() == -clock.Inf && nt.Required() == clock.Inf {
				continue
			}
			out = append(out, netTimes{
				Net: name, Cluster: nt.Cluster, Pass: nt.Pass,
				Ready: timeJSON(nt.Ready()), Required: timeJSON(nt.Required()),
			})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"session":           ss.id,
		"backward_snatches": cons.BackwardSnatches,
		"forward_snatches":  cons.ForwardSnatches,
		"nets":              out,
	})
}

func (s *server) handleClose(w http.ResponseWriter, r *http.Request) {
	ss := s.sessionFor(w, r)
	if ss == nil {
		return
	}
	defer ss.mu.Unlock()
	mSessionsClosed.Inc()
	s.retire(ss, dropJournal, "")
	writeJSON(w, http.StatusOK, map[string]any{"session": ss.id, "closed": true})
}

// timeJSON renders a clock.Time as a JSON-friendly value: integer
// picoseconds, or the string "inf"/"-inf" at the sentinels.
func timeJSON(t clock.Time) any {
	switch t {
	case clock.Inf:
		return "inf"
	case -clock.Inf:
		return "-inf"
	}
	return int64(t)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	// Keep error bodies single-line JSON for easy client handling.
	msg = strings.ReplaceAll(msg, "\n", " ")
	writeJSON(w, status, map[string]any{"error": msg})
}

// compileCache refcounts immutable CompiledDesigns by state key so that
// every session opened on the same design hash shares one compiled design,
// cutting steady-state memory by ~N× for N same-design sessions. It has
// its own mutex: engine release callbacks fire from arbitrary goroutines
// (often under a session's lock) and must never contend on s.mu.
type compileCache struct {
	mu sync.Mutex
	m  map[string]*compileEntry
}

type compileEntry struct {
	cd   *cluster.CompiledDesign
	refs int
}

func newCompileCache() *compileCache {
	return &compileCache{m: make(map[string]*compileEntry)}
}

// acquire returns the cached design for key with its reference count
// bumped, plus the matching release callback — or (nil, nil) on a miss.
func (c *compileCache) acquire(key string) (*cluster.CompiledDesign, func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ent, ok := c.m[key]
	if !ok {
		return nil, nil
	}
	ent.refs++
	return ent.cd, c.releaseFunc(key)
}

// publish installs a freshly compiled design under key with one reference
// and returns its release callback. If the key is already present (a
// racing open published first), nothing is stored and ok is false — the
// caller's design stays private.
func (c *compileCache) publish(key string, cd *cluster.CompiledDesign) (release func(), ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.m[key]; exists {
		return nil, false
	}
	c.m[key] = &compileEntry{cd: cd, refs: 1}
	return c.releaseFunc(key), true
}

// releaseFunc builds the once-per-reference drop callback for key; the
// entry is evicted when its last reference goes.
func (c *compileCache) releaseFunc(key string) func() {
	return func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		ent, ok := c.m[key]
		if !ok {
			return
		}
		ent.refs--
		if ent.refs <= 0 {
			delete(c.m, key)
		}
	}
}

// designs counts the distinct shared compiled designs.
func (c *compileCache) designs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// totalRefs sums the session references across all shared designs.
func (c *compileCache) totalRefs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, ent := range c.m {
		n += ent.refs
	}
	return n
}
